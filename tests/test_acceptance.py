"""End-to-end acceptance checks for the shipped guarantees.

One test per criterion, each printing a single PASS line.  Every numeric
comparison is exact (Fraction or integer); runtime budgets use monotonic
clocks.  The CLI criteria drive the installed entry point in a subprocess
so they exercise the same path a user does.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb

from sfuncs.catalog import (
    CyclotomicSpec,
    abelian_generator,
    from_log_poly,
    jk_check,
    polylog,
)
from sfuncs.framing import Kappa, frame_elementary, frame_f, frame_multi
from sfuncs.mseries import MSeries
from sfuncs.numfield import _mul_fold, denominator_support, make_field, rationals
from sfuncs.padic import _apply_rows, _frobenius_rows, frobenius_lift
from sfuncs.serialize import dump_obj, series_to_obj
from sfuncs.series import Series, exp_series, log_series
from sfuncs.sfunc import check_sfunction, dwork_factor

from oracles import dwork_series_by_product

Q = rationals()
CUBIC = make_field([-1, -2, 1, 1])
QUAD = make_field([3, 0, 1])

# frozen multiplicity table, rows d = 1..7, columns f = 2..5
TABLE = {
    2: (-2, 1, Fraction(-2, 3), 1, -2, Fraction(13, 3), -10),
    3: (3, Fraction(3, 2), 3, Fraction(15, 2), 24, Fraction(171, 2), 339),
    4: (-4, 4, -8, 28, -124, 624, -3452),
    5: (5, 5, Fraction(50, 3), 75, 425, Fraction(8240, 3), 19605),
}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "sfuncs.cli", *args],
        capture_output=True, text=True,
    )


def test_criterion_1_polylog_table_exact():
    t0 = time.monotonic()
    r = run_cli("polylog-table", "--d", "1..7", "--f", "2..5", "--format", "csv")
    elapsed = time.monotonic() - t0
    assert r.returncode == 0, r.stderr
    rows = r.stdout.strip().splitlines()
    assert rows[0] == "d,f=2,f=3,f=4,f=5"
    seen = {}
    for line in rows[1:]:
        cells = line.split(",")
        d = int(cells[0])
        for f, cell in zip(range(2, 6), cells[1:]):
            seen[(d, f)] = Fraction(cell)
    want = {(d, f): Fraction(TABLE[f][d - 1])
            for f in range(2, 6) for d in range(1, 8)}
    assert seen == want
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    print(f"PASS 1: multiplicity table, 28 exact entries in {elapsed:.2f}s")


def test_criterion_2_framed_dilog_closed_form():
    lagrange = frame_elementary(polylog(2, 50))
    reverted = frame_elementary(polylog(2, 50), via_reversion=True)
    for k in range(1, 51):
        want = Fraction((-1) ** (k - 1) * comb(2 * k - 1, k - 1))
        assert lagrange.coeff(k) * k * k == want, k
        assert reverted.coeff(k) == lagrange.coeff(k), k
    print("PASS 2: framed dilogarithm matches the closed form for k <= 50")


def test_criterion_3_framing_preserves_checks():
    x = CUBIC.gen()
    seeds = [
        polylog(2, 48),
        from_log_poly(CUBIC, [1, -x, 1], 2, 48),
        abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 48),
    ]
    t0 = time.monotonic()
    for w in seeds:
        for f in range(-2, 4):
            rep = check_sfunction(frame_f(w, f), 2)
            assert rep.passed, (w.field.minpoly, f, rep.violations)
            assert rep.violations == []
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"framing sweep took {elapsed:.2f}s"
    print(f"PASS 3: 18 framings at order 48 all verify in {elapsed:.2f}s")


def _dilog_of_monomial(expvec, order):
    terms = {}
    m = 1
    while m * sum(expvec) <= order:
        terms[tuple(m * e for e in expvec)] = Fraction(1, m * m)
        m += 1
    return MSeries.from_dict(Q, 2, order, terms)


def test_criterion_4_matrix_framing_group_law():
    rng = random.Random(20240)
    order = 12
    gens = [
        Kappa(((1, 0), (0, 0))),
        Kappa(((0, 0), (0, 1))),
        Kappa(((0, 1), (1, 0))),
    ]
    zero = Kappa(((0, 0), (0, 0)))
    t0 = time.monotonic()
    for _ in range(2):
        w = MSeries.zero(Q, 2, order)
        for e in ((1, 0), (0, 1), (1, 1), (2, 1), (1, 2)):
            c = rng.randint(-3, 3) or 1
            w = w + _dilog_of_monomial(e, order) * Q.elem(c)
        assert frame_multi(w, zero) == w
        for ka in gens:
            step = frame_multi(w, ka)
            for kb in gens:
                assert frame_multi(step, kb) == frame_multi(w, ka + kb), (ka, kb)
    elapsed = time.monotonic() - t0
    print(
        f"PASS 4: two-variable framing composes additively at order 12"
        f" in {elapsed:.2f}s"
    )


def test_criterion_5_binomial_congruence_sweep():
    t0 = time.monotonic()
    for p in (5, 7, 11, 13):
        rep = jk_check(p, 3 * p, 5)
        assert rep.passed, p
        for rec in rep.records:
            assert rec.required == 3 * (rec.alpha + 1)
            assert rec.valuation >= rec.required
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"sweep took {elapsed:.2f}s"
    print(f"PASS 5: binomial congruences exhaustively hold in {elapsed:.2f}s")


def _integral_at_good_primes(field, elems) -> bool:
    return all(
        field.discriminant % p == 0
        for e in elems
        for p in denominator_support(e)
    )


def _three_way(v: Series) -> tuple[bool, bool, bool]:
    congruences = check_sfunction(v, 1).passed
    factor = _integral_at_good_primes(v.field, dwork_factor(v))
    e = exp_series(v)
    expanded = _integral_at_good_primes(
        v.field, [e.coeff(k) for k in range(1, v.order + 1)]
    )
    return congruences, factor, expanded


def test_criterion_6_product_factorization_equivalence():
    rng = random.Random(60)
    order = 24
    agreeing = 0
    for field in (Q, QUAD):
        deg = field.degree

        def rand_elem(span, den_choices):
            return field.elem([
                Fraction(rng.randint(-span, span), rng.choice(den_choices))
                for _ in range(deg)
            ])

        for _ in range(40):  # integral factor data: every face must say yes
            b = [rand_elem(4, [1]) for _ in range(order)]
            v = dwork_series_by_product(b, order)
            assert dwork_factor(v) == b
            assert _three_way(v) == (True, True, True)
            agreeing += 1
        for _ in range(20):  # integral expansion: log of a unit polynomial
            coeffs = [field.one()] + [rand_elem(3, [1]) for _ in range(order)]
            f = Series.from_coeffs(field, order, coeffs[1:]) + coeffs[0]
            v = log_series(f)
            assert _three_way(v) == (True, True, True)
            agreeing += 1
        for _ in range(40):  # arbitrary rational data: the three faces agree
            v = Series.from_coeffs(
                field, order, [rand_elem(5, [1, 2, 3, 5]) for _ in range(order)]
            )
            verdicts = _three_way(v)
            assert verdicts[0] == verdicts[1] == verdicts[2], verdicts
            agreeing += 1
    assert agreeing == 200
    for trial in range(20):  # single planted denominator is always caught
        field = (Q, QUAD)[trial % 2]
        b = [field.elem(rng.randint(-4, 4)) for _ in range(order)]
        d = rng.randrange(order)
        p = rng.choice([5, 7, 11, 13])
        b[d] = b[d] + Fraction(1, p)
        v = dwork_series_by_product(b, order)
        assert _three_way(v) == (False, False, False), (trial, d, p)
    print("PASS 6: factor, expansion and congruence verdicts agree, 220 trials")


def test_criterion_7_frobenius_action():
    def mul(a, b, field, mod):
        return tuple(c % mod for c in _mul_fold(a, b, field._reduction))

    def frob(field, p, n, a):
        return tuple(_apply_rows(_frobenius_rows(field, p, n), a, p**n))

    # (a) quadratic field with discriminant -12: the lift is +-x by p mod 3
    for p in [q for q in range(5, 100) if QUAD.discriminant % q and _is_prime(q)]:
        for n in (1, 2):
            want = (0, 1) if p % 3 == 1 else (0, p**n - 1)
            assert frobenius_lift(QUAD, p, n) == want, (p, n)

    # (b) cube root of 5: order-3 action at p=7, trivial action at p=13
    cbrt = make_field([-5, 0, 0, 1])
    assert frobenius_lift(cbrt, 7, 1) == (0, 4, 0)
    x = (0, 1, 0)
    x6 = x
    for _ in range(5):
        x6 = mul(x6, x, cbrt, 7)
    assert x6 == (4, 0, 0)
    a = (2, 1, 0)  # the class of x + 2
    assert frob(cbrt, 7, 1, a) != a
    assert frob(cbrt, 7, 1, frob(cbrt, 7, 1, frob(cbrt, 7, 1, a))) == a
    assert frobenius_lift(cbrt, 7, 2) == (0, 18, 0)
    assert frobenius_lift(cbrt, 13, 1) == x
    assert frob(cbrt, 13, 1, a) == a

    # (c) homomorphism and a**p congruence on random elements
    rng = random.Random(77)
    trials = 0
    plans = [(QUAD, 5), (QUAD, 7), (CUBIC, 3), (CUBIC, 5), (cbrt, 7), (cbrt, 13)]
    while trials < 500:
        field, p = plans[trials % len(plans)]
        n = (1, 2, 4)[trials % 3]
        mod = p**n
        a = tuple(rng.randrange(mod) for _ in range(field.degree))
        b = tuple(rng.randrange(mod) for _ in range(field.degree))
        fa, fb = frob(field, p, n, a), frob(field, p, n, b)
        total = tuple((u + v) % mod for u, v in zip(a, b))
        assert frob(field, p, n, total) == tuple((u + v) % mod for u, v in zip(fa, fb))
        assert frob(field, p, n, mul(a, b, field, mod)) == mul(fa, fb, field, mod)
        a_p = a
        for _ in range(p - 1):
            a_p = mul(a_p, a, field, mod)
        assert all((u - v) % p == 0 for u, v in zip(fa, a_p))
        trials += 1
    print("PASS 7: canonical lifts match known actions, 500 random trials")


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def _ord(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def test_criterion_8_minimal_perturbation_detection():
    order = 12
    x = CUBIC.gen()
    for w in (polylog(2, order), from_log_poly(CUBIC, [1, -x, 1], 2, order)):
        field = w.field
        assert check_sfunction(w, 2).passed
        for k in range(2, order + 1):
            for p in {q for q in range(2, k + 1) if k % q == 0 and _is_prime(q)}:
                if field.discriminant % p == 0:
                    continue
                alpha = _ord(k, p)
                bump = field.elem(Fraction(p ** (2 * alpha - 1), k * k))
                coeffs = [w.coeff(i) for i in range(1, order + 1)]
                coeffs[k - 1] = coeffs[k - 1] + bump
                rep = check_sfunction(Series.from_coeffs(field, order, coeffs), 2)
                spots = {(c.index, c.p) for c in rep.violations}
                assert (k, p) in spots, (field.minpoly, k, p)
                hit = next(c for c in rep.violations
                           if c.index == k and c.p == p)
                assert hit.valuation == 2 * alpha - 1
                assert hit.required == 2 * alpha
                if k == p**alpha and 2 * k > order:
                    assert spots == {(k, p)}, (field.minpoly, k, p, spots)
    print("PASS 8: one-below-threshold perturbations are pinpointed")


def test_criterion_9_file_verification_at_s3(tmp_path):
    li3 = tmp_path / "li3.json"
    dump_obj(series_to_obj(polylog(3, 40)), str(li3))
    assert run_cli("verify", "--series", str(li3), "--s", "3").returncode == 0

    (tmp_path / "q.json").write_text("[0, 1]\n")
    (tmp_path / "four.json").write_text("[4]\n")
    crt = tmp_path / "crt.json"
    r = run_cli("gen-crt", "--field", str(tmp_path / "q.json"),
                "--x", str(tmp_path / "four.json"),
                "--s", "3", "--order", "40", "--out", str(crt))
    assert r.returncode == 0, r.stderr
    assert run_cli("verify", "--series", str(crt), "--s", "3").returncode == 0

    ab = tmp_path / "abelian.json"
    dump_obj(series_to_obj(
        abelian_generator(CyclotomicSpec(5, {1: 1, 4: 1}, 2), 40)), str(ab))
    assert run_cli("verify", "--series", str(ab), "--s", "2").returncode == 0

    v = polylog(3, 40)
    coeffs = [v.coeff(k) for k in range(1, 41)]
    coeffs[7] = v.field.elem(Fraction(33, 512))  # a_8 = 33 instead of 1
    bad = tmp_path / "bad.json"
    dump_obj(series_to_obj(Series.from_coeffs(v.field, 40, coeffs)), str(bad))
    r = run_cli("verify", "--series", str(bad), "--s", "3")
    assert r.returncode == 1
    rep = json.loads(r.stdout)
    assert {"k": 8, "p": 2, "required": 9, "valuation": 5} in rep["violations"]
    print("PASS 9: file verification certifies and refutes at s = 3")
