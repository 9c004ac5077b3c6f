"""The canonical lift of the p-th power Frobenius of K = Q[x]/(P) to
(Z/p**n)[x]/(P), on integer coordinate rows, and p-adic valuations.

The ring (Z/p**n)[x]/(P) is used as is, without factoring P mod p, so a
prime that splits is handled through the full product ring.  Its elements
are rows of d integers in [0, p**n), multiplied by numfield._mul_fold and
reduced mod p**n.  The lift is the unique root xi of P with xi = x**p mod p,
found by Newton iteration with doubling precision that keeps u = 1/P'(xi)
beside xi (von zur Gathen & Gerhard, Modern Computer Algebra, ch. 9).
Frobenius fixes Z/p**n and sends x to xi, so it acts on a row by the
matrix whose row i holds xi**i.

Over Phi_n or Psi_n (NumberField._abelian) at p prime to n the lift is the
Galois automorphism sigma_p, exact over Z: xi is x**a or the Dickson
polynomial D_a(x) = zeta**a + zeta**-a, a = p mod n, reduced mod P, with no
Newton step.  A good p dividing n keeps Newton: over Phi_6 the lift at 2 is
x**5 = 1 - x, not x**2 = x - 1.

frobenius_lift accepts only primes not dividing the field discriminant,
where P stays separable mod p and xi exists and is unique.  The checker and
generate_crt apply the matrix of the kept lift (_frobenius_rows) to integer
rows (_apply_rows).
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import BadPrime, LiftFailed
from .intutil import ord_p, require_prime
from .numfield import (FieldElem, NumberField, _derivative, _mul_fold, _poly_inverse,
                       _square_and_multiply)


def _mul(a, b, field: NumberField, mod: int) -> tuple[int, ...]:
    """The product of two rows, mod P and mod `mod`; mod 0 keeps it in Z."""
    prod = _mul_fold(a, b, field._reduction)
    return tuple(c % mod for c in prod) if mod else prod


def _powers(xi, field: NumberField, mod: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Rows of xi**0 .. xi**(count - 1) mod `mod` (in Z for mod 0)."""
    rows = [(1,) + (0,) * (field.degree - 1)]
    for _ in range(count - 1):
        rows.append(_mul(rows[-1], xi, field, mod))
    return tuple(rows)


@lru_cache(maxsize=4096)
def _lift_cell(field: NumberField, p: int) -> list:
    """[N, xi, rows, u]: the lift at (field, p) mod p**N, N the largest
    precision built so far, its matrix, and u = 1/P'(xi) mod p**(N/2), None
    until N first grows past 1; it starts from xi = x**p mod p.  Over Phi_n
    or Psi_n with p prime to n, xi is sigma_p(x) in Z and N is infinite."""
    x = (0, 1) + (0,) * (field.degree - 2)
    if (abelian := field._abelian) and abelian[0] % p:  # xi = x**a or D_a(x)
        real, prev, xi = abelian[1], (2,) + (0,) * (field.degree - 1), x
        for _ in range(p % abelian[0] - 1):  # x x**k, or D_(k+1) = x D_k - D_(k-1)
            prev, xi = xi, tuple(b - real * c for b, c in zip(_mul(x, xi, field, 0), prev))
        return [math.inf, xi, _powers(xi, field, 0, field.degree), None]
    xi = _square_and_multiply(x, p, lambda a, b: _mul(a, b, field, p))
    return [1, xi, _powers(xi, field, p, field.degree), None]


def _frobenius_rows(field: NumberField, p: int, n: int) -> tuple:
    """The matrix of the kept lift at (field, p) mod p**N, N >= n.

    When n exceeds N, Newton continues from the kept xi and u up to
    max(n, 2N): u mod p comes from one extended Euclid, then each doubling
    takes u <- u(2 - P'(xi)u) and xi <- xi - P(xi)u.  The lift mod p**N
    reduces to the unique one mod p**n.  At a p dividing the discriminant
    P'(xi) is never a unit, so past n = 1 this raises LiftFailed and the
    cell keeps its lift mod p.  Over Q no lift is built.
    """
    if field.degree == 1:
        return ((1,),)
    cell = _lift_cell(field, p)
    prec, xi, rows, u = cell
    if prec >= n:
        return rows
    d, minpoly, deriv = field.degree, field.minpoly, _derivative(field.minpoly)
    if u is None:
        u = _poly_inverse([c % p for c in _apply_rows(rows, deriv, p)],
                          [c % p for c in minpoly], lambda c: pow(c, -1, p), lambda c: c % p)
        if u is None:
            raise LiftFailed(f"non-unit encountered mod {p}")
    top = max(n, 2 * prec)
    while prec < top:
        prec = min(2 * prec, top)
        mod = p**prec
        pw = _powers(xi, field, mod, d + 1)
        e = _mul(_apply_rows(pw, deriv, mod), u, field, mod)
        u = _mul(u, (2 - e[0],) + tuple(-c for c in e[1:]), field, mod)
        step = _mul(_apply_rows(pw, minpoly, mod), u, field, mod)
        xi = tuple((a - b) % mod for a, b in zip(xi, step))
    pw = _powers(xi, field, mod, d + 1)
    if any(_apply_rows(pw, minpoly, mod)):
        raise LiftFailed(f"Newton iteration did not converge at p={p}, n={top}")
    cell[:] = [top, xi, pw[:d], u]
    return cell[2]


def frobenius_lift(field: NumberField, p: int, n: int) -> tuple[int, ...]:
    """Coordinates in [0, p**n) of the canonical Frobenius lift: the root xi
    of P with xi = x**p mod p, mod p**n.

    Over Phi_n or Psi_n it is sigma_p(x) when p does not divide n, which
    a good p may: see the module docstring for Phi_6 at 2.

    Raises ValueError for n < 1, NotPrime as intutil.require_prime does,
    and BadPrime when p divides the field discriminant.

    >>> from sfuncs.numfield import make_field
    >>> frobenius_lift(make_field([-5, 0, 0, 1]), 7, 2)
    (0, 18, 0)
    >>> frobenius_lift(make_field([1] * 7), 2, 3)  # over Phi_7, zeta**2
    (0, 0, 1, 0, 0, 0)
    >>> frobenius_lift(make_field([1, -1, 1]), 2, 4)  # over Phi_6, 1 - x
    (1, 15)
    """
    if n < 1:
        raise ValueError("precision exponent must be at least 1")
    require_prime(p)
    if field.discriminant % p == 0:
        raise BadPrime(f"{p} divides the field discriminant {field.discriminant}")
    if field.degree == 1:  # the root of x + c is -c
        return (-field.minpoly[0] % p**n,)
    return tuple(c % p**n for c in _frobenius_rows(field, p, n)[1])


def _apply_rows(rows, coords, mod: int) -> list[int]:
    """The sum of coords[i] * rows[i], mod `mod`: with the matrix of a lift,
    the coordinates of frob(a); with the rows of xi**i, coords(xi)."""
    return [sum(map(mul, coords, col)) % mod for col in zip(*rows)]


def valuation(a: FieldElem, p: int) -> int | float:
    """p-adic valuation of a field element: min over coordinate valuations.

    Zero maps to +infinity; negative values report denominator content.
    """
    require_prime(p)
    if a.is_zero():
        return math.inf
    t = ord_p(a.den, p) if a.den % p == 0 else 0
    return min(ord_p(n, p) for n in a.nums if n != 0) - t
