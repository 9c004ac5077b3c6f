"""The Frobenius lift on integer coordinate rows mod p**n.

Rows are multiplied as the package multiplies them, numfield._mul_fold
followed by % p**n; xi = x**p mod p and P(xi) = 0 mod p**n are checked with
the schoolbook products and long division of oracles.product_mod_minpoly.
"""
from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from sfuncs import padic
from sfuncs.catalog import cyclotomic_field
from sfuncs.errors import BadPrime, LiftFailed, NotPrime
from sfuncs.intutil import PRIME_TEST_BOUND, is_prime, primes_up_to
from sfuncs.numfield import _mul_fold, _square_and_multiply, make_field, rationals
from sfuncs.padic import _apply_rows, _frobenius_rows, _lift_cell, frobenius_lift, valuation

from oracles import (cyclotomic_by_division, frobenius_by_galois, product_mod_minpoly,
                     psi_by_peeling)

QI3 = make_field([3, 0, 1])  # x^2 + 3,  disc -12
CBRT5 = make_field([-5, 0, 0, 1])  # x^3 - 5, disc -675
CUBIC = make_field([-1, -2, 1, 1])  # disc 49, Psi_7
NONAB = make_field([-1, -1, 0, 1])  # x^3 - x - 1, disc -23, not abelian


def mul(a, b, field, mod):
    return tuple(c % mod for c in _mul_fold(a, b, field._reduction))


def power(a, e, field, mod):
    acc = (1,) + (0,) * (field.degree - 1)
    for _ in range(e):
        acc = mul(acc, a, field, mod)
    return acc


def frob(field, p, n, a):
    """Frobenius on the row a mod p**n, through the kept lift's matrix."""
    return tuple(_apply_rows(_frobenius_rows(field, p, n), a, p**n))


def gen(field):
    return (0, 1) + (0,) * (field.degree - 2)


def test_ring_construction_guards():
    # frobenius_lift keeps the guards of the residue rings it replaced
    with pytest.raises(NotPrime):
        frobenius_lift(QI3, 6, 1)
    with pytest.raises(BadPrime):
        frobenius_lift(QI3, 3, 1)  # 3 | disc
    with pytest.raises(BadPrime):
        frobenius_lift(CUBIC, 7, 2)  # 7 | 49
    with pytest.raises(ValueError):
        frobenius_lift(QI3, 5, 0)


def test_valuation_rejects_composite_p():
    a = QI3.elem([Fraction(1, 2), 3])
    for p in (6, 1, 0, -5):
        with pytest.raises(NotPrime):
            valuation(a, p)
    assert valuation(a, 2) == -1


def test_psi_13_is_refused_where_is_prime_is_unproven():
    # psi_13 = PRIME_TEST_BOUND is a composite strong pseudoprime to all 13
    # witnesses, so is_prime calls it prime; valuation and frobenius_lift
    # refuse it as the checker does
    assert is_prime(PRIME_TEST_BOUND)
    for call in (lambda: valuation(QI3.one(), PRIME_TEST_BOUND),
                 lambda: frobenius_lift(QI3, PRIME_TEST_BOUND, 1),
                 lambda: frobenius_lift(rationals(), PRIME_TEST_BOUND, 1)):
        with pytest.raises(NotPrime, match="not a prime below"):
            call()


def test_valuation():
    assert valuation(QI3.elem([50, 10]), 5) == 1
    assert valuation(QI3.elem([Fraction(3, 25), 1]), 5) == -2
    assert valuation(QI3.elem(50), 5) == 2
    assert valuation(QI3.zero(), 5) == math.inf


def test_sign_pattern_quadratic():
    # over x^2+3 the lift sends x to x when p = 1 mod 3, to -x when p = 2 mod 3
    for p in primes_up_to(100):
        if QI3.discriminant % p == 0:
            continue
        for n in (1, 3):
            expect = (0, 1) if p % 3 == 1 else (0, p**n - 1)
            assert frobenius_lift(QI3, p, n) == expect, (p, n)


def test_cbrt5_lift_values():
    assert frobenius_lift(CBRT5, 7, 1) == (0, 4, 0)
    assert frobenius_lift(CBRT5, 7, 2) == (0, 18, 0)
    assert frobenius_lift(CBRT5, 13, 2) == (0, 1, 0)


def test_cbrt5_lift_matches_brute_force_mod_49():
    # unique root of x^3-5 mod 49 that reduces to 4x mod 7
    roots = []
    for d0 in range(7):
        for d1 in range(7):
            for d2 in range(7):
                cand = [7 * d0, 4 + 7 * d1, 7 * d2]
                cube = product_mod_minpoly(
                    product_mod_minpoly(cand, cand, CBRT5.minpoly), cand, CBRT5.minpoly
                )
                if all(c % 49 == 0 for c in [cube[0] - 5] + cube[1:]):
                    roots.append(tuple(cand))
    assert roots == [frobenius_lift(CBRT5, 7, 2)]


def test_frobenius_order_three_at_7():
    # x^3 - 5 stays irreducible mod 7, so the map has order 3
    g = gen(CBRT5)
    for n in (1, 2, 3):
        assert frob(CBRT5, 7, n, g) != g
        assert frob(CBRT5, 7, n, frob(CBRT5, 7, n, frob(CBRT5, 7, n, g))) == g
    # the quoted power residue: (cube root of 5)^6 = 4 mod 7
    assert power(g, 6, CBRT5, 7) == (4, 0, 0)


def test_frobenius_trivial_at_13():
    # 5 is a cube mod 13, the generator is fixed
    for n in (1, 2):
        assert frobenius_lift(CBRT5, 13, n) == gen(CBRT5)
        assert frob(CBRT5, 13, n, (3, 11, 7)) == (3, 11, 7)


# --- independent oracle: factor-degree pattern of P mod p over GF(p)


def _gf_trim(a):
    while a and a[-1] == 0:
        a = a[:-1]
    return a


def _gf_mod(a, m, p):
    a = [c % p for c in a]
    dm = len(m) - 1
    inv = pow(m[-1], -1, p)
    while len(a) - 1 >= dm and any(a):
        if a[-1] == 0:
            a = a[:-1]
            continue
        q = a[-1] * inv % p
        off = len(a) - 1 - dm
        for i, c in enumerate(m):
            a[off + i] = (a[off + i] - q * c) % p
        a = _gf_trim(a)
    return _gf_trim(a)


def _gf_mulmod(a, b, m, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _gf_mod(out, m, p)


def _gf_gcd(a, b, p):
    a, b = _gf_trim([c % p for c in a]), _gf_trim([c % p for c in b])
    while b:
        a, b = b, _gf_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _factor_degrees(minpoly, p):
    """Degrees of the irreducible factors of a squarefree minpoly mod p.

    Distinct-degree decomposition: gcd(x^(p^d) - x, remaining) collects the
    product of all irreducible factors of degree d.
    """
    m = _gf_trim([c % p for c in minpoly])
    remaining = list(m)
    degrees = []
    xq = [0, 1]  # x
    for d in range(1, len(m)):
        if len(remaining) - 1 == 0:
            break
        xq = _gf_powmod(xq, p, m, p)
        diff = list(xq) + [0, 0]
        diff[1] = (diff[1] - 1) % p
        g = _gf_gcd(diff, remaining, p)
        if len(g) - 1 > 0:
            degrees += [d] * ((len(g) - 1) // d)
            remaining = _gf_quotient(remaining, g, p)
    return sorted(degrees)


def _gf_powmod(a, e, m, p):
    result = [1]
    base = _gf_mod(list(a), m, p)
    while e:
        if e & 1:
            result = _gf_mulmod(result, base, m, p)
        base = _gf_mulmod(base, base, m, p)
        e >>= 1
    return result


def _gf_quotient(a, b, p):
    a = [c % p for c in a]
    out = [0] * (len(a) - len(b) + 1)
    inv = pow(b[-1], -1, p)
    for i in range(len(out) - 1, -1, -1):
        q = a[i + len(b) - 1] * inv % p
        out[i] = q
        for j, c in enumerate(b):
            a[i + j] = (a[i + j] - q * c) % p
    assert not any(a), "division was not exact"
    return out


@pytest.mark.parametrize(
    "field,p",
    [(QI3, 5), (QI3, 7), (CBRT5, 7), (CBRT5, 11), (CBRT5, 13),
     (CUBIC, 2), (CUBIC, 13), (make_field([1, 1, 1, 1, 1]), 3)],
)
def test_frobenius_order_matches_factor_degrees(field, p):
    order = math.lcm(*_factor_degrees(field.minpoly, p))
    g = cur = gen(field)
    seen = 0
    for r in range(1, order + 1):
        cur = frob(field, p, 2, cur)
        if cur == g:
            seen = r
            break
    assert seen == order


def test_homomorphism_and_power_law():
    rng = random.Random(7)
    for field, p in ((QI3, 5), (CBRT5, 7), (CUBIC, 3)):
        for n in (1, 2, 4):
            mod = p**n
            one = (1,) + (0,) * (field.degree - 1)
            for _ in range(25):
                a = tuple(rng.randrange(mod) for _ in range(field.degree))
                b = tuple(rng.randrange(mod) for _ in range(field.degree))
                total = tuple((x + y) % mod for x, y in zip(a, b))
                assert frob(field, p, n, total) == tuple(
                    (x + y) % mod for x, y in zip(frob(field, p, n, a), frob(field, p, n, b))
                )
                assert frob(field, p, n, mul(a, b, field, mod)) == mul(
                    frob(field, p, n, a), frob(field, p, n, b), field, mod
                )
                assert frob(field, p, n, one) == one
                # frob(a) - a^p is divisible by p
                diff = zip(frob(field, p, n, a), power(a, p, field, mod))
                assert all((x - y) % p == 0 for x, y in diff)


def test_residue_power_matches_repeated_product_to_nine():
    # the one square-and-multiply loop, on rows as the lift takes x**p mod p
    mod = 7**3
    u = (3, mod - 1, 4)

    def mul_rows(a, b):
        return mul(a, b, CBRT5, mod)

    for e in range(1, 10):
        assert _square_and_multiply(u, e, mul_rows) == power(u, e, CBRT5, mod)
    assert _square_and_multiply(u, 1, mul_rows) is u  # no multiplication at all


def test_frobenius_matrix_rows_are_powers_of_the_lift():
    rows = [tuple(c % 49 for c in row) for row in _frobenius_rows(CBRT5, 7, 2)]
    assert rows == [(1, 0, 0), (0, 18, 0), (0, 0, 18 * 18 % 49)]
    xi = frobenius_lift(CBRT5, 7, 2)
    for i, row in enumerate(rows):
        assert row == power(xi, i, CBRT5, 49)


def test_one_lift_per_field_and_prime_serves_lower_precisions(monkeypatch):
    # the lift kept at (NONAB, 5) is built at the largest precision asked
    # for; lower precisions reuse it, and reduced they equal the lift built
    # from x**p mod p at their own precision
    _lift_cell.cache_clear()
    high = _frobenius_rows(NONAB, 5, 9)
    kept = _lift_cell(NONAB, 5)
    n_kept, xi_kept = kept[0], kept[1]
    assert n_kept == 9 and kept[2] is high
    assert all(_frobenius_rows(NONAB, 5, n) is high for n in (1, 3, 9))
    assert all(frobenius_lift(NONAB, 5, n) == tuple(c % 5**n for c in xi_kept)
               for n in (1, 3, 9))
    assert _lift_cell(NONAB, 5) is kept and kept[1] is xi_kept  # nothing was rebuilt
    for n in (1, 3, 9):
        _lift_cell.cache_clear()
        exact = _frobenius_rows(NONAB, 5, n)
        assert [tuple(c % 5**n for c in row) for row in high] == list(exact)
    # more precision continues Newton from the kept xi and u = 1/P'(xi) up
    # to max(n, 2N): one step from 9 to 18, where x**p mod p would take
    # five, and no extended Euclid.  Each step takes the powers of xi once,
    # and the convergence check once more.
    _lift_cell.cache_clear()
    _frobenius_rows(NONAB, 5, 9)
    mods, powers = [], padic._powers

    def counted(xi, field, mod, count):
        mods.append(mod)
        return powers(xi, field, mod, count)

    monkeypatch.setattr(padic, "_powers", counted)
    monkeypatch.setattr(padic, "_poly_inverse", None)
    _frobenius_rows(NONAB, 5, 10)
    grown = _lift_cell(NONAB, 5)
    assert grown[0] == 18 and mods == [5**18, 5**18]
    # the kept u inverts P'(xi) = 3xi**2 - 1 to half the precision
    deriv = _apply_rows(grown[2], (-1, 0, 3), 5**18)
    assert padic._mul(grown[3], deriv, NONAB, 5**9) == (1, 0, 0)
    assert tuple(c % 5**9 for c in grown[1]) == xi_kept
    _frobenius_rows(NONAB, 5, 50)
    assert _lift_cell(NONAB, 5)[0] == 50
    # over Q no lift is built at all
    misses = _lift_cell.cache_info().misses
    assert _frobenius_rows(rationals(), 5, 40) == ((1,),)
    assert frobenius_lift(rationals(), 5, 40) == (0,)
    assert _lift_cell.cache_info().misses == misses


def test_lift_caches_are_bounded():
    # padic keeps one cache, the lift cell, and it is bounded
    caches = [obj for obj in vars(padic).values()
              if isinstance(obj, functools._lru_cache_wrapper)]
    assert caches == [_lift_cell]
    assert _lift_cell.cache_info().maxsize is not None


@pytest.mark.parametrize("field", [
    rationals(), make_field([1, 1, 1]), CUBIC, cyclotomic_field(7),
    cyclotomic_field(6), cyclotomic_field(10), cyclotomic_field(12),
    make_field(psi_by_peeling(9)), make_field(psi_by_peeling(11)), NONAB, QI3,
], ids=["Q", "x2+x+1", "disc49", "zeta7", "zeta6", "zeta10", "zeta12", "psi9", "psi11",
        "x3-x-1", "x2+3"])
def test_lift_is_the_root_over_x_to_the_p_in_any_order(field):
    # checked with oracle arithmetic: xi = x**p mod p and P(xi) = 0 mod p**n,
    # with precisions asked in shuffled order so the kept lift both grows
    # and serves lower precisions.  Over Phi_6 and Phi_10 the prime 2 is
    # good but divides n, and the lift there is not x**(p mod n)
    rng = random.Random(field.degree)
    for p in primes_up_to(13):
        if field.discriminant % p == 0:
            continue
        x_to_p = [int(c) % p for c in (field.gen() ** p).coords]
        precisions = list(range(1, 13))
        rng.shuffle(precisions)
        for n in precisions:
            xi = frobenius_lift(field, p, n)
            assert all(0 <= c < p**n for c in xi)
            assert [c % p for c in xi] == x_to_p, (p, n)
            value = [0] * field.degree
            for c in reversed(field.minpoly):
                value = product_mod_minpoly(value, xi, field.minpoly)
                value[0] += c
            assert all(c % p**n == 0 for c in value), (p, n)


def test_phi_n_and_psi_n_are_recognised_by_their_polynomial():
    for n in range(3, 61):
        assert cyclotomic_field(n)._abelian == (n, False)
        if len(psi := psi_by_peeling(n)) > 2:
            assert make_field(psi)._abelian == (n, True)
    # x^2 - 2 is Psi_8; the same fields presented otherwise, and fields of
    # the degrees of Phi_n or Psi_n that are not abelian, are not recognised
    assert make_field([-2, 0, 1])._abelian == (8, True)
    for field in (QI3, CBRT5, NONAB, make_field([1, 1, 3, 1, 1]), make_field([1, 0, 0, 0, 0, 1, 1])):
        assert field._abelian is None, field


@settings(max_examples=80, deadline=None)
@given(n=st.integers(3, 30), real=st.booleans(), prec=st.integers(1, 6), data=st.data())
def test_lift_over_phi_n_and_psi_n_is_sigma_p(n, real, prec, data):
    # the lift over Q(zeta_n) or Q(zeta_n)+ at a good p prime to n is the
    # Galois automorphism sigma_p, and so is the lift Newton builds on the
    # same field with the Galois rows bypassed
    poly = psi_by_peeling(n) if real else cyclotomic_by_division(n)
    assume(len(poly) > 2)
    field, newton = make_field(poly), make_field(poly)
    newton.__dict__["_abelian"] = None
    p = data.draw(st.sampled_from([p for p in primes_up_to(200) if n % p]))
    galois = frobenius_by_galois(n, p, prec, real)
    _lift_cell.cache_clear()
    assert frobenius_lift(field, p, prec) == galois
    assert _lift_cell(field, p)[0] == math.inf
    _lift_cell.cache_clear()
    assert frobenius_lift(newton, p, prec) == galois
    assert _lift_cell(newton, p)[0] == prec
    _lift_cell.cache_clear()


@pytest.mark.parametrize("field,p", [(cyclotomic_field(7), 13), (CUBIC, 5)],
                         ids=["zeta7", "psi7"])
def test_a_galois_lift_takes_no_newton_step(field, p, monkeypatch):
    # over Phi_7 and Psi_7 the cell holds exact integer rows at precision
    # inf: built once, in Z, with no power of xi mod p**n and no extended
    # Euclid at precision 50 or after
    _lift_cell.cache_clear()
    mods, powers = [], padic._powers

    def counted(xi, field, mod, count):
        mods.append(mod)
        return powers(xi, field, mod, count)

    monkeypatch.setattr(padic, "_powers", counted)
    monkeypatch.setattr(padic, "_poly_inverse", None)
    rows = _frobenius_rows(field, p, 50)
    assert _frobenius_rows(field, p, 80) is rows and _lift_cell(field, p)[0] == math.inf
    assert mods == [0]
    assert frobenius_lift(field, p, 50) == tuple(c % p**50 for c in rows[1])
    _lift_cell.cache_clear()


def test_bad_prime_rows_are_built_at_the_asked_precision():
    # x^3 - 5 ramifies at 5: x**5 = 5x**2 = 0 is a root mod 5, but there is
    # no lift mod 25
    rows = _frobenius_rows(CBRT5, 5, 1)
    assert rows == ((1, 0, 0), (0, 0, 0), (0, 0, 0))
    with pytest.raises(LiftFailed):
        _frobenius_rows(CBRT5, 5, 2)
    assert _frobenius_rows(CBRT5, 5, 1) == rows
    # 7 ramifies in Q(zeta_7) and Q(zeta_7)+: x**7 mod 7 and no lift past it,
    # though 7 mod 7 = 0 would name the identity
    for field, x_to_7 in ((cyclotomic_field(7), (1, 0, 0, 0, 0, 0)), (CUBIC, (2, 0, 0))):
        _lift_cell.cache_clear()
        assert _frobenius_rows(field, 7, 1)[1] == x_to_7
        with pytest.raises(LiftFailed):
            _frobenius_rows(field, 7, 2)
