"""Truncated residue rings O/p**n for the ring of integers O of Q[x]/(P),
and the canonical lift of the p-th power Frobenius to them.

The ring (Z/p**n)[x]/(P) is used as is, without factoring P mod p, so a
prime that splits is handled through the full product ring.  The Frobenius
lift is the unique root xi of P with xi = x**p mod p, found by Newton
iteration with doubling precision; applying Frobenius evaluates coordinate
polynomials at xi and fixes Z/p**n pointwise.

Only primes not dividing the field discriminant are accepted: for those,
P stays separable mod p and xi exists and is unique.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import BadPrime, LiftFailed, NotPIntegral, NotPrime, RingMismatch
from .intutil import is_prime, ord_p
from .numfield import (
    FieldElem, NumberField, _mul_fold, _poly_inverse, _square_and_multiply,
)


@dataclass(frozen=True)
class ResidueRing:
    """(Z/p**n)[x]/(P) with coordinates stored in [0, p**n)."""

    field: NumberField
    p: int
    n: int
    modulus: int

    def elem(self, coords) -> "ResidueElem":
        return ResidueElem(self, tuple(int(c) % self.modulus for c in coords))

    def from_int(self, c: int) -> "ResidueElem":
        return self.elem([c] + [0] * (self.field.degree - 1))

    def zero(self) -> "ResidueElem":
        return self.from_int(0)

    def one(self) -> "ResidueElem":
        return self.from_int(1)

    def gen(self) -> "ResidueElem":
        if self.field.degree == 1:
            return self.from_int(-self.field.minpoly[0])
        coords = [0] * self.field.degree
        coords[1] = 1
        return self.elem(coords)

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
            if other.ring != self.ring:
                raise RingMismatch("operands come from different residue rings")
            return other
        if isinstance(other, int):
            return self.ring.from_int(other)
        return None

    def __add__(self, other) -> "ResidueElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ring.modulus
        return ResidueElem(
            self.ring, tuple((a + b) % m for a, b in zip(self.coords, o.coords))
        )

    __radd__ = __add__

    def __neg__(self) -> "ResidueElem":
        m = self.ring.modulus
        return ResidueElem(self.ring, tuple(-c % m for c in self.coords))

    def __sub__(self, other) -> "ResidueElem":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        m = self.ring.modulus
        return ResidueElem(
            self.ring, tuple((a - b) % m for a, b in zip(self.coords, o.coords))
        )

    def __rsub__(self, other) -> "ResidueElem":
        return (-self) + other

    def __mul__(self, other) -> "ResidueElem":
        if isinstance(other, int):
            m = self.ring.modulus
            return ResidueElem(self.ring, tuple(c * other % m for c in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ring = self.ring
        m = ring.modulus
        nums = _mul_fold(self.coords, o.coords, ring.field._reduction)
        return ResidueElem(ring, tuple(c % m for c in nums))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "ResidueElem":
        if e < 0:
            raise ValueError("negative powers are not defined here")
        return _square_and_multiply(self, e) if e else self.ring.one()

    def __repr__(self) -> str:
        return f"ResidueElem({list(self.coords)} mod {self.ring.modulus})"


def _ring_unchecked(field: NumberField, p: int, n: int) -> ResidueRing:
    return ResidueRing(field=field, p=p, n=n, modulus=p**n)


@lru_cache(maxsize=None)
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
    p, m = ring.p, ring.modulus
    den, nums = a.den, a.nums
    t = ord_p(den, p) if den % p == 0 else 0
    if t:
        q = p**t
        if any(n % q for n in nums):
            raise NotPIntegral(f"element has {p} in a denominator")
        nums = tuple(n // q for n in nums)
        den //= q
    inv = pow(den % m, -1, m) if den % m != 1 else 1
    return ring.elem([n * inv for n in nums])


def _eval_int_poly(coeffs, xi: ResidueElem) -> ResidueElem:
    """coeffs(xi), Horner with integer coefficients."""
    acc = xi.ring.zero()
    for c in reversed(coeffs):
        acc = acc * xi + c
    return acc


def _invert_unit(a: ResidueElem) -> ResidueElem:
    """Inverse of a unit: inverse mod p by extended Euclid, then Hensel doubling."""
    ring = a.ring
    p, n = ring.p, ring.n
    inv_p = _poly_inverse(
        [c % p for c in a.coords],
        [c % p for c in ring.field.minpoly],
        lambda c: pow(c, -1, p),
        lambda c: c % p,
    )
    if inv_p is None:
        raise LiftFailed(f"non-unit encountered mod {p}")
    inv = ring.elem(inv_p)
    prec = 1
    while prec < n:
        inv = inv * (2 - a * inv)
        prec *= 2
    return inv


@lru_cache(maxsize=None)
def frobenius_lift(ring: ResidueRing) -> "FrobeniusMap":
    """The canonical Frobenius on the ring: the root xi of P with xi = x**p mod p.

    Newton iteration xi <- xi - P(xi)/P'(xi) from xi = x**p, with precision
    doubling 1, 2, 4, ... up to n.
    """
    field, p, n = ring.field, ring.p, ring.n
    minpoly = field.minpoly
    deriv = tuple(i * c for i, c in enumerate(minpoly) if i > 0)
    cur = _ring_unchecked(field, p, 1)
    xi = cur.gen() ** p
    prec = 1
    while prec < n:
        prec = min(2 * prec, n)
        cur = _ring_unchecked(field, p, prec)
        xi = cur.elem(xi.coords)
        fx = _eval_int_poly(minpoly, xi)
        dfx = _eval_int_poly(deriv, xi)
        xi = xi - fx * _invert_unit(dfx)
    xi = ring.elem(xi.coords)
    if not _eval_int_poly(minpoly, xi).is_zero():
        raise LiftFailed(f"Newton iteration did not converge at p={p}, n={n}")
    return FrobeniusMap(ring=ring, xi=xi)


@dataclass(frozen=True)
class FrobeniusMap:
    """Ring endomorphism sending the class of x to xi and fixing Z/p**n."""

    ring: ResidueRing
    xi: ResidueElem

    def __call__(self, a: ResidueElem) -> ResidueElem:
        return frobenius_apply(self, a)


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
    ring = e.ring
    best = ring.n
    for c in e.coords:
        if c:
            v = ord_p(c, ring.p)
            if v < best:
                best = v
    return best
