"""Command-line front end.

Verbs: verify, frame, frame-multi, dwork, gen-abelian, gen-crt, from-log,
polylog-table, jk-check.  Reports and generated series go to stdout as JSON
unless --out is given.  Exit codes: 0 success or verification passed,
1 verification found violations (the report is still emitted), 2 usage or
input error with a one-line diagnostic.

Each verb imports the modules it runs when it runs, so --help and argument
errors load none of the arithmetic, and no verb loads what it does not use.
"""
from __future__ import annotations

import argparse
import sys

from .errors import BadFile, SfuncError, _refuse_above


def integer(text: str) -> int:
    """An integer of the command line, read by intutil._int as an integer of
    a file is; intutil is imported when a flag is parsed, not for --help."""
    from .intutil import _int

    return _int(text)


def _parse_range(text: str) -> range | list[int]:
    """'2..5' is the closed range, kept as a range and never built; '1,3,7'
    is a list and '4' a singleton."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return range(integer(lo), integer(hi) + 1)
    return [integer(p) for p in text.split(",")]


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _emit_series(v, out: str | None) -> None:
    from .mseries import MSeries
    from .serialize import dump_obj, mseries_to_obj, series_to_obj

    obj = mseries_to_obj(v) if isinstance(v, MSeries) else series_to_obj(v)
    _emit(dump_obj(obj), out)


# The largest --order that gen-crt, gen-abelian and from-log accept, checked
# before any file is read.  Their output and time grow linearly with the
# order (from-log's log recurrence costs the nonzero grades of Q): at this
# order, start-up and output included, from-log of 1 - z over Q took 0.4-0.6 s,
# gen-crt over the disc-49 cubic 0.5-0.55 s and gen-abelian at conductor 7
# 0.25-0.35 s (2-core x86-64, CPython 3.11).
GENERATOR_MAX_ORDER = 10_000


# The largest --conductor of gen-abelian, checked before any file is read:
# its time grows as N * phi(N)**2 for the powers of zeta, plus order * phi(N)
# output and one elimination for a descent.  The dearest request accepted,
# N = 53, c_i = i for every i, s = 2, this bound's order, descended into the
# whole field by zeta + 1, took 1.2-1.3 s on the host above (1.4-1.8 s at
# s = 3), most of it writing 32 MB of output; N = 59 took 1.6-2.6 s.
GENERATOR_MAX_CONDUCTOR = 58


# The largest order * s * bit_length(order), about the bits of the normalized
# coefficients a_k = k**s c_k to the order (each has s * log2(k) bits), that
# verify, gen-crt, gen-abelian and from-log accept, checked before any
# arithmetic; verify reads the order from its file first.  s = 3 at
# GENERATOR_MAX_ORDER runs, s = 4 does not.  The dearest requests accepted are
# at a small order, where a few numbers take all the bits (a Newton lift mod
# p**s; over Phi_n and Psi_n the lift is exact), or at GENERATOR_MAX_ORDER; on
# the host above, at order 3 and s = 87381, gen-crt over x**3 - x - 1 took
# 1.7-1.8 s and verify of its output 1.5 s (over Q(zeta_7) 0.12 and 0.09 s),
# and at order 10,000 and s = 3 verify over Q(zeta_7) 0.4 s, from-log of
# 1 - z 0.41 s and gen-abelian at conductor 7 0.21 s.  At 8 times this bound,
# gen-crt at order 2 took 33 s.
NORMALIZED_MAX_BITS = 2**19


# The largest order * degree * terms * bits that from-log accepts, checked
# before the log recurrence: terms counts the nonzero coefficients of Q past
# the constant, bits is the largest bit length among Q's coordinate
# numerators and denominators and the field polynomial's coefficients.  The
# k-th coefficient of -log Q has up to about k * bits bits in each of degree
# coordinates and each step of the recurrence costs terms products, which
# neither bound above counts: 1 - 1000z at order 10,000 took 25.8 s and
# wrote 150 MB.  The dearest requests accepted sit where the largest root of
# Q grows fastest for its bits: on the host above, Q = 1 + (1 + x + ... +
# x**(d-1))z over x**d - x**(d-1) - ... - 1 took 1.0-1.2 s at d = 10, order
# 1,200 and d = 20, order 600 (1.1 s at d = 4, order 3,000), and 1 - z
# 0.4 s at GENERATOR_MAX_ORDER; at 15,000 the first two took 2.0 s.
FROM_LOG_MAX_BITS = 12_000


def _check_size(order: int, s: int) -> None:
    _refuse_above(order * s * order.bit_length(), NORMALIZED_MAX_BITS, "NORMALIZED_MAX_BITS",
                  "order {} at s = {}", order, s)


def _check_generator(order: int, s: int) -> None:
    if order < 1:  # one rule for gen-abelian, gen-crt and from-log, before any file is read
        raise ValueError("order must be at least 1")
    _refuse_above(order, GENERATOR_MAX_ORDER, "GENERATOR_MAX_ORDER", "order {}", order)
    _check_size(order, s)


def _cmd_verify(args) -> int:
    from .serialize import dump_obj, load_series
    from .sfunc import check_sfunction

    v = load_series(args.series)
    _check_size(v.order, args.s)
    extra = _parse_range(args.primes_extra) if args.primes_extra else ()
    report = check_sfunction(v, args.s, extra_primes=extra)
    _emit(dump_obj(report.to_obj()), args.out)
    return 0 if report.passed else 1


def _cmd_frame(args) -> int:
    from .framing import frame_f
    from .mseries import MSeries
    from .serialize import load_series

    v = load_series(args.series)
    if isinstance(v, MSeries):
        raise BadFile("frame expects a one-variable series; use frame-multi")
    _emit_series(frame_f(v, args.f), args.out)
    return 0


def _cmd_frame_multi(args) -> int:
    from .framing import Kappa, frame_multi
    from .mseries import MSeries
    from .serialize import load_series

    v = load_series(args.series)
    if not isinstance(v, MSeries):
        raise BadFile("frame-multi expects a multivariate series file")
    _emit_series(frame_multi(v, Kappa.parse(args.kappa)), args.out)
    return 0


def _cmd_dwork(args) -> int:
    from .intutil import PRIME_TEST_BOUND, _int_to_str
    from .mseries import MSeries
    from .numfield import denominator_support
    from .serialize import dump_obj, elem_to_obj, field_to_obj, load_series
    from .sfunc import dwork_factor

    v = load_series(args.series)
    if isinstance(v, MSeries):
        raise BadFile("dwork expects a one-variable series")
    b = dwork_factor(v)
    field = v.field
    bad_cells = []
    for d, bd in enumerate(b, 1):
        for q in sorted(denominator_support(bd)):
            if q >= PRIME_TEST_BOUND:  # a cofactor, not proven prime, as check_sfunction reports it
                bad_cells.append([d, {"cofactor": _int_to_str(q)}])
            elif field.discriminant % q != 0:
                bad_cells.append([d, q])
    obj = {
        "field": field_to_obj(field),
        "order": v.order,
        "b": [elem_to_obj(bd) for bd in b],
        "integral_at_good_primes": not bad_cells,
        "nonintegral": bad_cells,
    }
    _emit(dump_obj(obj), args.out)
    return 0 if not bad_cells else 1


def _cmd_gen_abelian(args) -> int:
    from .catalog import CyclotomicSpec, abelian_generator, cyclotomic_field
    from .intutil import _int
    from .serialize import _rational, elem_from_obj, load_field, load_json

    _check_generator(args.order, args.s)
    _refuse_above(args.conductor, GENERATOR_MAX_CONDUCTOR, "GENERATOR_MAX_CONDUCTOR",
                  "conductor {}", args.conductor)
    raw = load_json(args.coeffs)
    if not isinstance(raw, dict):
        raise BadFile("--coeffs file must map index to rational")
    coeffs = {_int(i): _rational(c) for i, c in raw.items()}
    spec = CyclotomicSpec(args.conductor, tuple(sorted(coeffs.items())), args.s)
    subfield = load_field(args.field) if args.field else None
    x_expr = elem_from_obj(cyclotomic_field(args.conductor), load_json(args.x)) if args.x else None
    _emit_series(abelian_generator(spec, args.order, subfield, x_expr), args.out)
    return 0


def _cmd_gen_crt(args) -> int:
    from .serialize import elem_from_obj, load_field, load_json
    from .sfunc import generate_crt

    _check_generator(args.order, args.s)
    field = load_field(args.field)
    x = elem_from_obj(field, load_json(args.x))
    _emit_series(generate_crt(field, x, args.s, args.order), args.out)
    return 0


def _cmd_from_log(args) -> int:
    from .catalog import from_log_poly
    from .serialize import _rational, elem_from_obj, load_field, load_json

    _check_generator(args.order, args.s)
    field = load_field(args.field)
    raw = load_json(args.coeffs)
    if not isinstance(raw, list):
        raise BadFile("--coeffs file must be an array of polynomial coefficients")
    q = [
        elem_from_obj(field, x)
        if isinstance(x, list) and x and isinstance(x[0], list)
        else field.elem(_rational(x))
        for x in raw
    ]
    coords = [c for e in q[:args.order + 1] for c in (*e.nums, e.den)]
    terms = sum(1 for e in q[1:args.order + 1] if e)
    bits = max(abs(c).bit_length() for c in (*field.minpoly, *coords))
    _refuse_above(args.order * field.degree * terms * bits, FROM_LOG_MAX_BITS,
                  "FROM_LOG_MAX_BITS", "order {} x degree {} x {} terms x {} bits",
                  args.order, field.degree, terms, bits)
    _emit_series(from_log_poly(field, q, args.s, args.order), args.out)
    return 0


def _cmd_polylog_table(args) -> int:
    from .catalog import polylog_frame_table
    from .serialize import dump_obj

    table = polylog_frame_table(_parse_range(args.f), _parse_range(args.d))
    if table.nonintegral:
        sys.stderr.write(
            f"note: 6*N/f fails integrality at cells {list(table.nonintegral)}\n"
        )
    if args.format == "csv":
        _emit(table.to_csv(), args.out)
    else:
        _emit(dump_obj(table.to_obj()), args.out)
    return 0


def _cmd_jk_check(args) -> int:
    from .catalog import jk_check
    from .serialize import dump_obj

    report = jk_check(args.p, args.kmax, args.fmax)
    _emit(dump_obj(report.to_obj()), args.out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="sfuncs",
        description="Exact verification and transformation of s-function series.",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write output here instead of stdout")
        return p

    p = add("verify", _cmd_verify, "check the congruences of a series file")
    p.add_argument("--series", required=True, help="series JSON file")
    p.add_argument("--s", required=True, type=integer, help="congruence strength")
    p.add_argument("--jobs", type=integer, default=None,
                   help="accepted and ignored: checks always run in one process")
    p.add_argument("--primes-extra", default="",
                   help="also report (never fail) these primes, e.g. '7' or '2,7'")

    p = add("frame", _cmd_frame, "apply the integer framing z -> z(-Y)**f")
    p.add_argument("--series", required=True)
    p.add_argument("--f", required=True, type=integer)

    p = add("frame-multi", _cmd_frame_multi, "apply a matrix framing")
    p.add_argument("--series", required=True)
    p.add_argument("--kappa", required=True,
                   help="symmetric integer matrix, rows ';'-separated: '1,0;0,1'")

    p = add("dwork", _cmd_dwork, "product factorization V = -sum log(1 - b_d z^d)")
    p.add_argument("--series", required=True)

    p = add("gen-abelian", _cmd_gen_abelian, "root-of-unity combination generator")
    p.add_argument("--conductor", required=True, type=integer,
                   help=f"at most {GENERATOR_MAX_CONDUCTOR}")
    p.add_argument("--coeffs", required=True,
                   help="JSON map: index i to rational c_i")
    p.add_argument("--s", required=True, type=integer)
    p.add_argument("--order", required=True, type=integer,
                   help=f"series order, at most {GENERATOR_MAX_ORDER}")
    p.add_argument("--field", help="subfield minpoly JSON for descent")
    p.add_argument("--x", help="generator coordinates in the cyclotomic field")

    p = add("gen-crt", _cmd_gen_crt, "congruence-tower generator from a_1 = x")
    p.add_argument("--field", required=True)
    p.add_argument("--x", required=True, help="element coordinates JSON")
    p.add_argument("--s", required=True, type=integer)
    p.add_argument("--order", required=True, type=integer,
                   help=f"series order, at most {GENERATOR_MAX_ORDER}")

    p = add("from-log", _cmd_from_log, "series with delta^(s-1) V = -log Q(z)")
    p.add_argument("--field", required=True)
    p.add_argument("--coeffs", required=True, help="JSON array: Q low degree to high")
    p.add_argument("--s", required=True, type=integer)
    p.add_argument("--order", required=True, type=integer,
                   help=f"series order, at most {GENERATOR_MAX_ORDER}")

    p = add("polylog-table", _cmd_polylog_table, "framed-polylog multiplicity table")
    p.add_argument("--d", required=True, help="row range, e.g. 1..7")
    p.add_argument("--f", required=True,
                   help="column range, e.g. 2..5; write negative ones as --f=-7..7")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = add("jk-check", _cmd_jk_check, "binomial congruence sweep at a prime")
    p.add_argument("--p", required=True, type=integer)
    p.add_argument("--kmax", required=True, type=integer)
    p.add_argument("--fmax", required=True, type=integer)

    return top


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    # argparse (CPython 3.11) hands --opt=-- over as [], past type and choices
    for name, value in vars(args).items():
        if isinstance(value, list):
            sys.stderr.write(f"error: argument --{name.replace('_', '-')}: expected one value\n")
            return 2
    try:
        return args.fn(args)
    except (SfuncError, OSError, ValueError) as e:  # JSONDecodeError is a ValueError
        sys.stderr.write(f"error: {type(e).__name__}: {e}\n")
        return 2
    except MemoryError:
        sys.stderr.write("error: MemoryError: the run needs more memory than it has\n")
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
