"""Refusals that no other in-process test reaches: one row per raise,
the call and the error class it must raise.  Raises that a command-line
test already reaches in its subprocess (a series file whose 'coeffs' is not
a list, or not a dict for several variables) have no row here."""
from __future__ import annotations

import json
import re
import time

import pytest

from sfuncs import catalog, cli, framing, serialize
from sfuncs.catalog import (CyclotomicSpec, abelian_generator, cyclotomic_field, from_log_poly,
                            jk_check, polylog)
from sfuncs.errors import (
    BadConstantTerm,
    BadFile,
    DegreeZero,
    DescentFailed,
    DimensionMismatch,
    TooLarge,
)
from sfuncs.framing import frame_f
from sfuncs.intutil import moebius
from sfuncs.mseries import MSeries, delta_i, exp_m, log_m
from sfuncs.numfield import FieldElem, make_field, rationals
from sfuncs.series import Series, shift_down
from sfuncs.sfunc import dwork_factor, generate_crt

Q = rationals()
Z1 = MSeries.var(Q, 2, 3, 0)

REFUSALS = [
    # serialize
    ("field object without minpoly", lambda: serialize.field_from_obj({}), BadFile),
    ("field spec not a list", lambda: serialize.field_from_obj("x"), BadFile),
    ("element not a list", lambda: serialize.elem_from_obj(Q, "1"), BadFile),
    ("multivariate object without nvars",
     lambda: serialize.mseries_from_obj({"field": [0, 1], "order": 2, "coeffs": {}}), BadFile),
    # series
    ("negative order", lambda: Series(Q, -1, Q.zero(), ()), ValueError),
    ("coefficient count not the order", lambda: Series(Q, 2, Q.zero(), (Q.one(),)), ValueError),
    ("more coefficients than the order", lambda: Series.from_coeffs(Q, 1, [1, 2]), ValueError),
    ("truncation above the order", lambda: polylog(2, 4).truncate(5), ValueError),
    ("shift_down of a constant", lambda: shift_down(Series.from_coeffs(Q, 2, [], 1)),
     BadConstantTerm),
    ("shift_down at order 0", lambda: shift_down(Series.zero(Q, 0)), ValueError),
    # mseries
    ("no variables", lambda: MSeries.from_dict(Q, 0, 3, {}), DimensionMismatch),
    ("negative exponent", lambda: MSeries.from_dict(Q, 2, 3, {(-1, 2): 1}), ValueError),
    ("two variables to one", lambda: Z1.to_univariate(), DimensionMismatch),
    ("variable index out of range", lambda: delta_i(Z1, 2), DimensionMismatch),
    ("exp of a constant", lambda: exp_m(Z1 + 1), BadConstantTerm),
    ("log without constant 1", lambda: log_m(Z1), BadConstantTerm),
    # numfield
    ("value class given too few fields", lambda: MSeries(Q, 1), TypeError),
    ("element of the wrong length", lambda: Q.elem([1, 2]), ValueError),
    ("constant minimal polynomial", lambda: make_field([1]), DegreeZero),
    ("coordinates of the wrong length", lambda: FieldElem(Q, (1, 2), 1), ValueError),
    ("zero denominator", lambda: FieldElem(Q, (1,), 0), ZeroDivisionError),
    # sfunc, catalog, intutil
    ("dwork_factor of a constant", lambda: dwork_factor(Series.from_coeffs(Q, 2, [], 1)),
     BadConstantTerm),
    ("generate_crt at order 0", lambda: generate_crt(Q, Q.one(), 1, 0), ValueError),
    ("from_log_poly at s = 0", lambda: from_log_poly(Q, [1, -1], 0, 4), ValueError),
    ("descent without a subfield", lambda: abelian_generator(
        CyclotomicSpec(7, {1: 1, 6: 1}, 2), 4, x_expr=cyclotomic_field(7).gen()), DescentFailed),
    ("moebius of 0", lambda: moebius(0), ValueError),
]


@pytest.mark.parametrize("call, error", [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
def test_refused(call, error):
    with pytest.raises(error):
        call()


def test_a_framing_far_above_the_cap_is_refused_before_any_work():
    # W = z at order 5,000: the pairs of the walk alone, C(5002, 2), are
    # above MAX_WORK, so _walk_cost returns them without summing its terms
    w = Series.var(Q, 5000)
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        frame_f(w, 1)
    assert time.monotonic() - t0 < 1


def test_a_framing_by_a_huge_kappa_is_refused_before_any_work():
    # f = 10**1000 on Li2 at order 120: 120**2 * 3,322 kappa bits, far above
    # MAX_KAPPA_BITS (at order 60 this framing took 5.6 s, at 120 it ran for
    # more than 50 s); f = 10**6 at order 200, 800,000 kappa bits, frames
    w = polylog(2, 120)
    t0 = time.monotonic()
    with pytest.raises(TooLarge):
        frame_f(w, 10**1000)
    assert time.monotonic() - t0 < 0.5
    assert frame_f(polylog(2, 200), 10**6).order == 200


# --- one rule for every size cap: each refuses with TooLarge through
# errors._refuse_above, "<what> is above <NAME> = <cap>", before the work it
# bounds, and the dearest request that tier-1 pins as accepted next to it runs


def _verb(tmp_path, argv: list) -> int:
    """A verb run in-process past cli.run, so that its error propagates."""
    args = cli.build_parser().parse_args(argv + ["--out", str(tmp_path / "out.json")])
    return args.fn(args)


def _files(tmp_path) -> dict:
    paths = {name: str(tmp_path / f"{name}.json") for name in ("q", "x", "li8", "c58", "qf", "qp")}
    for name, obj in (("q", [0, 1]), ("x", [4]), ("qf", [-1, -1, 1]),
                      ("qp", [1, [[1, 1], [1, 1]], [[1, 3], [0, 1]]]),
                      ("c58", {str(i): i for i in range(cli.GENERATOR_MAX_CONDUCTOR)})):
        with open(paths[name], "w") as fh:
            json.dump(obj, fh)
    serialize.dump_obj(serialize.series_to_obj(polylog(2, 8)), paths["li8"])
    return paths


def _unbalanced(s, b, minpoly, modulus):
    """framing._reduce without its balancing step: the slots keep widening."""
    while b > framing._PADDED_BITS and not -1 <= (hi := s >> (len(minpoly) - 1) * b) <= 0:
        s -= sum(p * hi << i * b for i, p in enumerate(minpoly) if p)
    return s % modulus


def _crit3(order: int):
    """The criterion-3 series over the disc-49 cubic."""
    cubic = make_field([-1, -2, 1, 1])
    return from_log_poly(cubic, [1, -cubic.gen(), 1], 2, order)


_N, _O, _G = cli.NORMALIZED_MAX_BITS // (8 * 4), cli.GENERATOR_MAX_ORDER, cli.GENERATOR_MAX_CONDUCTOR
_TOP = cli.FROM_LOG_MAX_BITS // 8  # over x**2 - x - 1 with Q = 1 + (1 + x)z + z**2/3: 8 bits an order
_CRT = ["gen-crt", "--field", "{q}", "--x", "{x}", "--s", "2", "--order"]
_AB = ["gen-abelian", "--coeffs", "{c58}", "--s", "2", "--order", "30", "--conductor"]
_LOG = ["from-log", "--field", "{qf}", "--coeffs", "{qp}", "--s", "2", "--order"]

# name -> (module, the refused request, the accepted one); a request is a
# callable or the argv of a verb
CAPS = {
    "MAX_WORK": (framing, lambda: frame_f(polylog(2, 226), 2),
                 lambda: frame_f(polylog(2, 225), 2)),
    "MAX_KAPPA_BITS": (framing, lambda: frame_f(polylog(2, 120), 10**1000),
                       lambda: frame_f(polylog(2, 200), 10**6)),
    "2 (|k| + 1) _walk_head": (None, lambda: frame_f(_crit3(28), -2),
                               lambda: frame_f(_crit3(8) * -(2**60 - 1), 3)),
    "NORMALIZED_MAX_BITS": (cli, ["verify", "--series", "{li8}", "--s", str(_N + 1)],
                            ["verify", "--series", "{li8}", "--s", str(_N)]),
    "GENERATOR_MAX_ORDER": (cli, _CRT + [str(_O + 1)], _CRT + [str(_O)]),
    "GENERATOR_MAX_CONDUCTOR": (cli, _AB + [str(_G + 1)], _AB + [str(_G)]),
    "FROM_LOG_MAX_BITS": (cli, _LOG + [str(_TOP + 1)], _LOG + [str(_TOP)]),
    "BINOMIAL_MAX_COST": (catalog, lambda: jk_check(100003, 5, 5),
                          lambda: jk_check(5, 100, 100)),
}


def _request(request, tmp_path, files):
    return request() if callable(request) else _verb(tmp_path, [a.format(**files) for a in request])


@pytest.mark.parametrize("name", sorted(CAPS))
def test_every_size_cap_refuses_with_one_class_and_one_message(tmp_path, monkeypatch, name):
    module, refused, accepted = CAPS[name]
    files = _files(tmp_path)
    if module is None:  # the widest slot of the packed walk: reached only by a planted fault
        monkeypatch.setattr(framing, "_reduce", _unbalanced)
    t0 = time.monotonic()
    with pytest.raises(TooLarge) as info:
        _request(refused, tmp_path, files)
    assert time.monotonic() - t0 <= 0.5
    assert isinstance(info.value, ValueError)
    cap = r"\d+" if module is None else str(getattr(module, name))
    assert re.fullmatch(rf".+ is above {re.escape(name)} = {cap}", str(info.value)), str(info.value)
    monkeypatch.undo()
    result = _request(accepted, tmp_path, files)  # runs: no refusal
    assert result in (0, 1) if isinstance(result, int) else result is not None
