from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import pytest

from sfuncs import padic
from sfuncs.catalog import cyclotomic_field
from sfuncs.errors import BadPrime, LiftFailed, NotPIntegral, NotPrime, RingMismatch
from sfuncs.intutil import primes_up_to
from sfuncs.numfield import make_field, rationals
from sfuncs.padic import (
    _frobenius_rows,
    _lift_cell,
    _ring_unchecked,
    frobenius_lift,
    make_residue_ring,
    reduce,
    residue_valuation,
    valuation,
)

QI3 = make_field([3, 0, 1])  # x^2 + 3,  disc -12
CBRT5 = make_field([-5, 0, 0, 1])  # x^3 - 5, disc -675
CUBIC = make_field([-1, -2, 1, 1])  # disc 49


def test_ring_construction_guards():
    with pytest.raises(NotPrime):
        make_residue_ring(QI3, 6, 1)
    with pytest.raises(BadPrime):
        make_residue_ring(QI3, 3, 1)  # 3 | disc
    with pytest.raises(BadPrime):
        make_residue_ring(CUBIC, 7, 2)  # 7 | 49
    with pytest.raises(ValueError):
        make_residue_ring(QI3, 5, 0)


def test_valuation_rejects_composite_p():
    a = QI3.elem([Fraction(1, 2), 3])
    for p in (6, 1, 0, -5):
        with pytest.raises(NotPrime):
            valuation(a, p)
    assert valuation(a, 2) == -1


def test_reduce_and_valuation():
    r = make_residue_ring(QI3, 5, 2)
    a = QI3.elem([Fraction(1, 2), 3])
    e = reduce(a, r)
    assert e.coords == (13, 3)  # 1/2 = 13 mod 25
    with pytest.raises(NotPIntegral):
        reduce(QI3.elem([Fraction(1, 5), 0]), r)
    with pytest.raises(RingMismatch):
        reduce(CUBIC.one(), r)

    assert valuation(QI3.elem([50, 10]), 5) == 1
    assert valuation(QI3.elem([Fraction(3, 25), 1]), 5) == -2
    assert valuation(QI3.zero(), 5) == math.inf
    assert residue_valuation(reduce(QI3.elem(50), make_residue_ring(QI3, 5, 3))) == 2
    # capped at the precision
    assert residue_valuation(reduce(QI3.elem(125), make_residue_ring(QI3, 5, 2))) == 2


def test_sign_pattern_quadratic():
    # over x^2+3 the lift sends x to x when p = 1 mod 3, to -x when p = 2 mod 3
    for p in primes_up_to(100):
        if QI3.discriminant % p == 0:
            continue
        for n in (1, 3):
            ring = make_residue_ring(QI3, p, n)
            xi = frobenius_lift(ring).xi
            expect = ring.gen() if p % 3 == 1 else -ring.gen()
            assert xi == expect, (p, n)


def test_cbrt5_lift_values():
    r1 = make_residue_ring(CBRT5, 7, 1)
    assert frobenius_lift(r1).xi == r1.gen() * 4
    r2 = make_residue_ring(CBRT5, 7, 2)
    assert frobenius_lift(r2).xi == r2.gen() * 18
    r13 = make_residue_ring(CBRT5, 13, 2)
    assert frobenius_lift(r13).xi == r13.gen()


def test_cbrt5_lift_matches_brute_force_mod_49():
    # unique root of x^3-5 mod 49 that reduces to 4x mod 7
    ring = make_residue_ring(CBRT5, 7, 2)
    base = ring.gen() * 4
    roots = []
    for d0 in range(7):
        for d1 in range(7):
            for d2 in range(7):
                cand = base + ring.elem([7 * d0, 7 * d1, 7 * d2])
                if (cand**3 - ring.from_int(5)).is_zero():
                    roots.append(cand)
    assert len(roots) == 1
    assert roots[0] == frobenius_lift(ring).xi


def test_frobenius_order_three_at_7():
    # x^3 - 5 stays irreducible mod 7, so the map has order 3
    for n in (1, 2, 3):
        ring = make_residue_ring(CBRT5, 7, n)
        frob = frobenius_lift(ring)
        g = ring.gen()
        assert frob(g) != g
        assert frob(frob(frob(g))) == g
    # the quoted power residue: (cube root of 5)^6 = 4 mod 7
    r1 = make_residue_ring(CBRT5, 7, 1)
    assert r1.gen() ** 6 == r1.from_int(4)


def test_frobenius_trivial_at_13():
    # 5 is a cube mod 13, the generator is fixed
    for n in (1, 2):
        ring = make_residue_ring(CBRT5, 13, n)
        frob = frobenius_lift(ring)
        assert frob.xi == ring.gen()
        a = ring.elem([3, 11, 7])
        assert frob(a) == a


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
    degs = _factor_degrees(field.minpoly, p)
    order = math.lcm(*degs)
    ring = make_residue_ring(field, p, 2)
    frob = frobenius_lift(ring)
    g = ring.gen()
    cur = g
    seen = 0
    for r in range(1, order + 1):
        cur = frob(cur)
        if cur == g:
            seen = r
            break
    assert seen == order


def test_homomorphism_and_power_law():
    rng = random.Random(7)
    for field, p in ((QI3, 5), (CBRT5, 7), (CUBIC, 3)):
        for n in (1, 2, 4):
            ring = make_residue_ring(field, p, n)
            frob = frobenius_lift(ring)
            for _ in range(25):
                a = ring.elem([rng.randrange(ring.modulus) for _ in range(field.degree)])
                b = ring.elem([rng.randrange(ring.modulus) for _ in range(field.degree)])
                assert frob(a + b) == frob(a) + frob(b)
                assert frob(a * b) == frob(a) * frob(b)
                assert frob(ring.one()) == ring.one()
                # reduction of frob(a) - a^p is divisible by p
                diff = frob(a) - a**p
                assert all(c % p == 0 for c in diff.coords)


def test_residue_power_matches_repeated_product_to_nine():
    r = make_residue_ring(CBRT5, 7, 3)
    u = r.elem([3, -1, 4])
    acc = r.one()
    for e in range(10):
        assert u**e == acc
        acc = acc * u
    assert u**1 is u  # no multiplication at all
    with pytest.raises(ValueError):
        u ** -1


def test_frobenius_matrix_rows_are_powers_of_the_lift():
    ring = make_residue_ring(CBRT5, 7, 2)
    frob = frobenius_lift(ring)
    assert frob.rows == ((1, 0, 0), (0, 18, 0), (0, 0, 18 * 18 % 49))
    for i, row in enumerate(frob.rows):
        assert ring.elem(row) == frob(ring.gen() ** i)


def test_one_lift_per_field_and_prime_serves_lower_precisions(monkeypatch):
    # the lift kept at (CUBIC, 5) is built at the largest precision asked
    # for; lower precisions reuse it, and reduced they equal the lift built
    # from x**p mod p at their own precision
    _lift_cell.cache_clear()
    high = _frobenius_rows(CUBIC, 5, 9)
    kept = _lift_cell(CUBIC, 5)[0]
    assert kept.ring.n == 9 and kept.rows is high
    assert all(_frobenius_rows(CUBIC, 5, n) is high for n in (1, 3, 9))
    assert all(frobenius_lift(make_residue_ring(CUBIC, 5, n)).xi.coords
               == tuple(c % 5**n for c in kept.xi.coords) for n in (1, 3, 9))
    assert _lift_cell(CUBIC, 5)[0] is kept  # nothing was rebuilt
    for n in (1, 3, 9):
        _lift_cell.cache_clear()
        exact = frobenius_lift(make_residue_ring(CUBIC, 5, n)).rows
        assert [tuple(c % 5**n for c in row) for row in high] == list(exact)
    # more precision continues Newton from the kept xi up to max(n, 2N):
    # one step from 9 to 18, where x**p mod p would take five
    _lift_cell.cache_clear()
    _frobenius_rows(CUBIC, 5, 9)
    steps, invert_unit = [], padic._invert_unit
    monkeypatch.setattr(
        padic, "_invert_unit", lambda a: steps.append(a) or invert_unit(a)
    )
    _frobenius_rows(CUBIC, 5, 10)
    grown = _lift_cell(CUBIC, 5)[0]
    assert grown.ring.n == 18 and len(steps) == 1
    assert tuple(c % 5**9 for c in grown.xi.coords) == kept.xi.coords
    _frobenius_rows(CUBIC, 5, 50)
    assert _lift_cell(CUBIC, 5)[0].ring.n == 50
    # over Q no lift is built at all
    misses = _lift_cell.cache_info().misses
    assert _frobenius_rows(rationals(), 5, 40) == ((1,),)
    assert _lift_cell.cache_info().misses == misses


def test_lift_caches_are_bounded():
    # padic keeps one cache, the lift cell, and it is bounded
    caches = [obj for obj in vars(padic).values()
              if isinstance(obj, functools._lru_cache_wrapper)]
    assert caches == [_lift_cell]
    assert _lift_cell.cache_info().maxsize is not None


@pytest.mark.parametrize("field", [
    rationals(), make_field([1, 1, 1]), CUBIC, cyclotomic_field(7),
], ids=["Q", "x2+x+1", "disc49", "zeta7"])
def test_lift_is_the_root_over_x_to_the_p_in_any_order(field):
    # checked on the ring alone: xi = x**p mod p and P(xi) = 0 mod p**n,
    # with precisions asked in shuffled order so the kept lift both grows
    # and serves lower precisions
    rng = random.Random(field.degree)
    for p in primes_up_to(13):
        if field.discriminant % p == 0:
            continue
        precisions = list(range(1, 13))
        rng.shuffle(precisions)
        base = make_residue_ring(field, p, 1)
        for n in precisions:
            ring = make_residue_ring(field, p, n)
            xi = frobenius_lift(ring).xi
            assert xi.ring == ring
            assert base.elem(xi.coords) == base.gen() ** p, (p, n)
            value = ring.from_int(0)
            for c in reversed(field.minpoly):
                value = value * xi + c
            assert value.is_zero(), (p, n)


def test_bad_prime_rows_are_built_at_the_asked_precision():
    # x^3 - 5 ramifies at 5: x**5 is a root mod 5, but there is no lift mod 25
    rows = _frobenius_rows(CBRT5, 5, 1)
    assert rows == frobenius_lift(_ring_unchecked(CBRT5, 5, 1)).rows
    with pytest.raises(LiftFailed):
        _frobenius_rows(CBRT5, 5, 2)
    assert _frobenius_rows(CBRT5, 5, 1) == rows


def test_elem_reads_fraction_coordinates_exactly():
    ring = make_residue_ring(make_field([3, 0, 1]), 5, 2)
    assert ring.elem([Fraction(1, 2), Fraction(7, 3)]).coords == (13, 19)
    assert ring.elem([-1, 27]).coords == (24, 2)
    with pytest.raises(NotPIntegral):
        ring.elem([Fraction(1, 5), 0])
    with pytest.raises(TypeError):
        ring.elem([0.5, 0])
