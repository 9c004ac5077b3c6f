"""The canonical lift of the p-th power Frobenius of K = Q[x]/(P) to
(Z/p**n)[x]/(P), on integer coordinate rows, and p-adic valuations.

The ring (Z/p**n)[x]/(P) is used as is, without factoring P mod p, so a
prime that splits is handled through the full product ring.  Its elements
are rows of d integers in [0, p**n), multiplied by numfield._mul_fold and
reduced mod p**n.  The lift is the unique root xi of P with xi = x**p mod p,
found by Newton iteration with doubling precision.  Frobenius fixes Z/p**n
and sends x to xi, so it acts on a row by the matrix whose row i holds xi**i.

frobenius_lift accepts only primes not dividing the field discriminant,
where P stays separable mod p and xi exists and is unique.  The checker and
generate_crt apply the matrix of the kept lift (_frobenius_rows) to integer
rows (_apply_rows).
"""
from __future__ import annotations

import math
from functools import lru_cache
from operator import mul

from .errors import BadPrime, LiftFailed, NotPrime
from .intutil import is_prime, ord_p
from .numfield import (FieldElem, NumberField, _derivative, _mul_fold, _poly_inverse,
                       _square_and_multiply)


def _mul(a, b, field: NumberField, mod: int) -> tuple[int, ...]:
    """The product of two rows, mod P and mod `mod`."""
    return tuple(c % mod for c in _mul_fold(a, b, field._reduction))


def _powers(xi, field: NumberField, mod: int, count: int) -> tuple[tuple[int, ...], ...]:
    """Rows of xi**0 .. xi**(count - 1) mod `mod`."""
    rows = [(1,) + (0,) * (field.degree - 1)]
    for _ in range(count - 1):
        rows.append(_mul(rows[-1], xi, field, mod))
    return tuple(rows)


def _invert_unit(a, field: NumberField, p: int, n: int) -> tuple[int, ...]:
    """Inverse of a unit mod p**n: inverse mod p by extended Euclid, then
    Hensel doubling."""
    inv = _poly_inverse([c % p for c in a], [c % p for c in field.minpoly],
                        lambda c: pow(c, -1, p), lambda c: c % p)
    if inv is None:
        raise LiftFailed(f"non-unit encountered mod {p}")
    mod = p**n
    for _ in range((n - 1).bit_length()):  # precision 1, 2, 4, ... >= n
        e = _mul(a, inv, field, mod)  # inv <- inv * (2 - a * inv)
        inv = _mul(inv, (2 - e[0],) + tuple(-c for c in e[1:]), field, mod)
    return tuple(inv)


@lru_cache(maxsize=4096)
def _lift_cell(field: NumberField, p: int) -> list:
    """[N, xi, rows]: the lift at (field, p) mod p**N, N the largest
    precision built so far, and its matrix; it starts from xi = x**p mod p."""
    x = (0, 1) + (0,) * (field.degree - 2)
    xi = _square_and_multiply(x, p, lambda a, b: _mul(a, b, field, p))
    return [1, xi, _powers(xi, field, p, field.degree)]


def _frobenius_rows(field: NumberField, p: int, n: int) -> tuple:
    """The matrix of the kept lift at (field, p) mod p**N, N >= n.

    When n exceeds N, Newton iteration xi <- xi - P(xi)/P'(xi) continues
    from the kept xi, doubling the precision up to max(n, 2N); the lift
    mod p**N reduces to the unique one mod p**n.  At a p dividing the
    discriminant P'(xi) is never a unit, so past n = 1 this raises LiftFailed
    and the cell keeps its lift mod p.  Over Q no lift is built.
    """
    if field.degree == 1:
        return ((1,),)
    cell = _lift_cell(field, p)
    prec, xi, rows = cell
    if prec >= n:
        return rows
    d, minpoly, deriv = field.degree, field.minpoly, _derivative(field.minpoly)
    top = max(n, 2 * prec)
    while prec < top:
        prec = min(2 * prec, top)
        mod = p**prec
        pw = _powers(xi, field, mod, d + 1)
        unit = _invert_unit(_apply_rows(pw, deriv, mod), field, p, prec)
        step = _mul(_apply_rows(pw, minpoly, mod), unit, field, mod)
        xi = tuple((a - b) % mod for a, b in zip(xi, step))
    pw = _powers(xi, field, mod, d + 1)
    if any(_apply_rows(pw, minpoly, mod)):
        raise LiftFailed(f"Newton iteration did not converge at p={p}, n={top}")
    cell[:] = [top, xi, pw[:d]]
    return cell[2]


def frobenius_lift(field: NumberField, p: int, n: int) -> tuple[int, ...]:
    """Coordinates in [0, p**n) of the canonical Frobenius lift: the root xi
    of P with xi = x**p mod p, mod p**n.

    Raises ValueError for n < 1, NotPrime for composite p and BadPrime when
    p divides the field discriminant.

    >>> from sfuncs.numfield import make_field
    >>> frobenius_lift(make_field([-5, 0, 0, 1]), 7, 2)
    (0, 18, 0)
    """
    if n < 1:
        raise ValueError("precision exponent must be at least 1")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
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
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return _valuation(a, p)


def _valuation(a: FieldElem, p: int) -> int | float:
    """valuation(a, p) for a p already known to be prime."""
    if a.is_zero():
        return math.inf
    t = ord_p(a.den, p) if a.den % p == 0 else 0
    return min(ord_p(n, p) for n in a.nums if n != 0) - t
