"""Truncated residue rings O/p**n for the ring of integers O of Q[x]/(P),
and the canonical lift of the p-th power Frobenius to them.

The ring (Z/p**n)[x]/(P) is used as is, without factoring P mod p, so a
prime that splits is handled through the full product ring.  The Frobenius
lift is the unique root xi of P with xi = x**p mod p, found by Newton
iteration with doubling precision; applying Frobenius evaluates coordinate
polynomials at xi and fixes Z/p**n pointwise.

make_residue_ring accepts only primes not dividing the field discriminant:
for those, P stays separable mod p and xi exists and is unique.  One lift
is kept per (field, p), at the largest precision asked for, and grown by
Newton from the kept xi; frobenius_lift reduces it to a ring's precision,
and the checker applies it to integer rows by its matrix (FrobeniusMap.rows).
ResidueElem remains for building lifts and the public API.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .errors import BadPrime, LiftFailed, NotPIntegral, NotPrime, RingMismatch
from .intutil import is_prime, ord_p
from .numfield import (
    FieldElem, NumberField, _derivative, _mul_fold, _poly_inverse, _square_and_multiply,
)


@dataclass(frozen=True)
class ResidueRing:
    """(Z/p**n)[x]/(P) with coordinates stored in [0, p**n)."""

    field: NumberField
    p: int
    n: int
    modulus: int

    def elem(self, coords) -> "ResidueElem":
        """Residues of int or Fraction coordinates; floats are refused."""
        m = self.modulus
        row = [c % m if isinstance(c, int) else self._ratio(c) for c in coords]
        return ResidueElem(self, tuple(row))

    def _ratio(self, c: Fraction) -> int:
        """c mod p**n for a Fraction c whose denominator is prime to p."""
        if not isinstance(c, Fraction):
            raise TypeError(f"residue coordinates must be exact, got {c!r}")
        if c.denominator % self.p == 0:
            raise NotPIntegral(f"coordinate {c} has {self.p} in its denominator")
        return c.numerator * pow(c.denominator, -1, self.modulus) % self.modulus

    def from_int(self, c: int) -> "ResidueElem":
        return self.elem([c] + [0] * (self.field.degree - 1))

    def one(self) -> "ResidueElem":
        return self.from_int(1)

    def gen(self) -> "ResidueElem":
        return self.elem(self.field.gen().nums)

    def __repr__(self) -> str:
        return f"ResidueRing(p={self.p}, n={self.n}, P={list(self.field.minpoly)})"


@dataclass(frozen=True)
class ResidueElem:
    ring: ResidueRing
    coords: tuple[int, ...]

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def _coerce(self, other) -> "ResidueElem | None":
        if isinstance(other, ResidueElem):
            if other.ring is not self.ring and other.ring != self.ring:
                raise RingMismatch("operands come from different residue rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other) -> "ResidueElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.ring.elem([a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __neg__(self) -> "ResidueElem":
        return self * -1

    def __sub__(self, other) -> "ResidueElem":
        o = self._coerce(other)
        return NotImplemented if o is None else self + (-o)

    def __rsub__(self, other) -> "ResidueElem":
        return (-self) + other

    def __mul__(self, other) -> "ResidueElem":
        if isinstance(other, int):
            return self.ring.elem([c * other for c in self.coords])
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        return ring.elem(_mul_fold(self.coords, o.coords, ring.field._reduction))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "ResidueElem":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        return _square_and_multiply(self, e) if e else self.ring.one()

    def __repr__(self) -> str:
        return f"ResidueElem({list(self.coords)} mod {self.ring.modulus})"


def _ring_unchecked(field: NumberField, p: int, n: int) -> ResidueRing:
    return ResidueRing(field=field, p=p, n=n, modulus=p**n)


def make_residue_ring(field: NumberField, p: int, n: int) -> ResidueRing:
    """Residue ring at a good prime p to precision p**n.

    Raises NotPrime for composite p and BadPrime when p divides the field
    discriminant.
    """
    if n < 1:
        raise ValueError("precision exponent must be at least 1")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if field.discriminant % p == 0:
        raise BadPrime(f"{p} divides the field discriminant {field.discriminant}")
    return _ring_unchecked(field, p, n)


def reduce(a: FieldElem, ring: ResidueRing) -> ResidueElem:
    """Image of a field element in the residue ring.

    Raises NotPIntegral when p divides a coordinate denominator.
    """
    if a.field != ring.field:
        raise RingMismatch("element does not belong to the ring's field")
    return ring.elem(a.coords)


def _eval_int_poly(coeffs, xi: ResidueElem) -> ResidueElem:
    """coeffs(xi), Horner with integer coefficients on the coordinates."""
    ring = xi.ring
    m, acc = ring.modulus, [0] * ring.field.degree
    for c in reversed(coeffs):
        acc = [v % m for v in _mul_fold(acc, xi.coords, ring.field._reduction)]
        acc[0] += c
    return ring.elem(acc)


def _invert_unit(a: ResidueElem) -> ResidueElem:
    """Inverse of a unit: inverse mod p by extended Euclid, then Hensel doubling."""
    ring, p = a.ring, a.ring.p
    inv_p = _poly_inverse(
        [c % p for c in a.coords],
        [c % p for c in ring.field.minpoly],
        lambda c: pow(c, -1, p),
        lambda c: c % p,
    )
    if inv_p is None:
        raise LiftFailed(f"non-unit encountered mod {p}")
    inv = ring.elem(inv_p)
    for _ in range((ring.n - 1).bit_length()):  # precision 1, 2, 4, ... >= n
        inv = inv * (2 - a * inv)
    return inv


@dataclass(frozen=True)
class FrobeniusMap:
    """Ring endomorphism sending the class of x to xi and fixing Z/p**n."""

    ring: ResidueRing
    xi: ResidueElem

    def __call__(self, a: ResidueElem) -> ResidueElem:
        return frobenius_apply(self, a)

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The matrix of the map: row i holds the coordinates of xi**i."""
        rows, pw = [], self.ring.one()
        for _ in range(self.ring.field.degree):
            rows.append(pw.coords)
            pw = pw * self.xi
        return tuple(rows)


@lru_cache(maxsize=4096)
def _lift_cell(field: NumberField, p: int) -> list:
    """[frob]: the lift at (field, p) to the largest precision built so far,
    starting from xi = x**p mod p."""
    xi = _ring_unchecked(field, p, 1).gen() ** p
    return [FrobeniusMap(ring=xi.ring, xi=xi)]


def _lift(field: NumberField, p: int, n: int) -> FrobeniusMap:
    """The kept lift at (field, p), mod p**N with N >= n.

    When n exceeds N, Newton iteration xi <- xi - P(xi)/P'(xi) continues
    from the kept xi, doubling the precision up to max(n, 2N); the lift
    mod p**N reduces to the unique one mod p**n.  At a p dividing the
    discriminant P'(xi) is never a unit, so past n = 1 this raises LiftFailed
    and the cell keeps its lift mod p.
    """
    cell = _lift_cell(field, p)
    frob = cell[0]
    if frob.ring.n >= n:
        return frob
    minpoly, deriv = field.minpoly, _derivative(field.minpoly)
    xi, prec, top = frob.xi, frob.ring.n, max(n, 2 * frob.ring.n)
    while prec < top:
        prec = min(2 * prec, top)
        xi = _ring_unchecked(field, p, prec).elem(xi.coords)
        xi = xi - _eval_int_poly(minpoly, xi) * _invert_unit(_eval_int_poly(deriv, xi))
    if not _eval_int_poly(minpoly, xi).is_zero():
        raise LiftFailed(f"Newton iteration did not converge at p={p}, n={top}")
    cell[0] = FrobeniusMap(ring=xi.ring, xi=xi)
    return cell[0]


def frobenius_lift(ring: ResidueRing) -> FrobeniusMap:
    """The canonical Frobenius on the ring: the root xi of P with xi = x**p mod p.

    The kept lift at (field, p), reduced to the ring's precision.
    """
    frob = _lift(ring.field, ring.p, ring.n)
    if frob.ring == ring:
        return frob
    return FrobeniusMap(ring=ring, xi=ring.elem(frob.xi.coords))


def _frobenius_rows(field: NumberField, p: int, n: int) -> tuple:
    """FrobeniusMap.rows mod p**N, N >= n, of the kept lift at (field, p).
    Over Q no lift is built."""
    return _lift(field, p, n).rows if field.degree > 1 else ((1,),)


def _apply_rows(rows, coords, mod: int) -> list[int]:
    """coords times the matrix rows, mod `mod`: the coordinates of frob(a)."""
    out = [0] * len(coords)
    for c, row in zip(coords, rows):
        if c:
            for j, r in enumerate(row):
                out[j] += c * r
    return [c % mod for c in out]


def frobenius_apply(frob: FrobeniusMap, a: ResidueElem) -> ResidueElem:
    """Evaluate the coordinate polynomial of a at xi."""
    if a.ring != frob.ring:
        raise RingMismatch("element does not belong to the map's ring")
    return _eval_int_poly(a.coords, frob.xi)


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


def residue_valuation(e: ResidueElem) -> int:
    """min over coordinates of ord_p, capped at the ring precision n."""
    return min((ord_p(c, e.ring.p) for c in e.coords if c), default=e.ring.n)
