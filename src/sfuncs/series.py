"""Truncated formal power series with number field coefficients.

A Series keeps coefficients for z**1 .. z**order plus an explicit constant
term (usually zero here).  Binary operations truncate to the smaller order,
and the result records that order; nothing is ever padded silently.

A Series is the dense view of a one-variable mseries.MSeries.  Every
operation with an MSeries twin goes through MSeries.from_univariate and
to_univariate: +, -, negation and products, delta (delta_i in one
variable), exp_series, log_series and power.  So the MSeries operators
check fields and truncate, and NumberField.coerce is the one coercion of a
coefficient.  dint, compose, revert, shift_up and shift_down are
one-variable only.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import BadConstantTerm, NotInvertible
from .mseries import Coeff, MSeries, delta_i, exp_m, log_m, power_m
from .numfield import FieldElem, NumberField, _Frozen


class Series(_Frozen):
    """const + coeffs[0] z + ... + coeffs[order-1] z**order over field."""

    field: NumberField
    order: int
    const: FieldElem
    coeffs: tuple[FieldElem, ...]

    def __init__(self, field, order, const, coeffs) -> None:
        if order < 0:
            raise ValueError("order must be nonnegative")
        if len(coeffs) != order:
            raise ValueError("coefficient count must equal the order")
        super().__init__(field, order, const, coeffs)

    @classmethod
    def from_coeffs(
        cls,
        field: NumberField,
        order: int,
        coeffs: Sequence[Coeff] = (),
        const: Coeff = 0,
    ) -> "Series":
        """Series from the coefficients of z**1..z**order (short lists are padded)."""
        if order < 0:
            raise ValueError("order must be nonnegative")
        elems = [field.coerce(c) for c in coeffs]
        if len(elems) > order:
            raise ValueError("more coefficients than the stated order")
        elems += [field.zero()] * (order - len(elems))
        return cls(field, order, field.coerce(const), tuple(elems))

    @classmethod
    def zero(cls, field: NumberField, order: int) -> "Series":
        return cls.from_coeffs(field, order)

    @classmethod
    def var(cls, field: NumberField, order: int) -> "Series":
        """The series z."""
        return cls.from_coeffs(field, order, [1])

    def coeff(self, k: int) -> FieldElem:
        """Coefficient of z**k, with k = 0 giving the constant term."""
        if k == 0:
            return self.const
        if 1 <= k <= self.order:
            return self.coeffs[k - 1]
        raise ValueError(f"index {k} is outside the truncation order {self.order}")

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return Series(self.field, order, self.const, self.coeffs[:order])

    def _binary(self, op, other) -> "Series":
        """op on self and a Series or a scalar, as one-variable MSeries."""
        if isinstance(other, Series):
            other = MSeries.from_univariate(other)
        elif not isinstance(other, (int, Fraction, FieldElem)):
            return NotImplemented
        return _as_mseries(op, self, other)

    def __add__(self, other) -> "Series":
        return self._binary(MSeries.__add__, other)

    __radd__ = __add__

    def __neg__(self) -> "Series":
        return _as_mseries(MSeries.__neg__, self)

    def __sub__(self, other) -> "Series":
        return self._binary(MSeries.__sub__, other)

    def __rsub__(self, other) -> "Series":
        return self._binary(MSeries.__rsub__, other)

    def __mul__(self, other) -> "Series":
        return self._binary(MSeries.__mul__, other)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Series":
        return power(self, e)

    def is_zero(self) -> bool:
        return self.const.is_zero() and all(c.is_zero() for c in self.coeffs)

    def __repr__(self) -> str:
        parts = [] if self.const.is_zero() else [f"({self.const})"]
        for k, c in enumerate(self.coeffs, start=1):
            if not c.is_zero():
                parts.append(f"({c})*z^{k}")
        body = " + ".join(parts) if parts else "0"
        return f"Series[{body} + O(z^{self.order + 1})]"


def _as_mseries(op, v: Series, *args) -> Series:
    """op(v, *args) on v as a one-variable MSeries, viewed back as a Series."""
    return op(MSeries.from_univariate(v), *args).to_univariate()


def delta(v: Series) -> Series:
    """z d/dz: multiply the k-th coefficient by k.  Drops the constant term."""
    return _as_mseries(delta_i, v, 0)


def dint(v: Series) -> Series:
    """Right inverse of delta: divide the k-th coefficient by k.

    The constant term must vanish.
    """
    if not v.const.is_zero():
        raise BadConstantTerm("dint needs a vanishing constant term")
    return Series(
        v.field,
        v.order,
        v.const,
        tuple(c / k for k, c in enumerate(v.coeffs, start=1)),
    )


def exp_series(v: Series) -> Series:
    """exp of a series with zero constant term: exp_m in one variable."""
    return _as_mseries(exp_m, v)


def log_series(y: Series) -> Series:
    """log of a series with constant term 1, inverse of exp_series: log_m in
    one variable."""
    return _as_mseries(log_m, y)


def compose(outer: Series, inner: Series) -> Series:
    """outer(inner(z)); an inner series with a nonzero constant term raises
    BadConstantTerm.

    Exact to the smaller of the two truncation orders: Horner's rule on
    one-variable MSeries, whose product truncates to that order.
    """
    u = MSeries.from_univariate(inner)
    MSeries.from_univariate(outer)._check(u)
    if not inner.const.is_zero():
        raise BadConstantTerm("inner series must have zero constant term")
    n = min(outer.order, inner.order)
    acc = MSeries.from_dict(outer.field, 1, n, {(0,): outer.coeff(n)})
    for k in range(n - 1, -1, -1):
        acc = acc * u + outer.coeff(k)
    return acc.to_univariate()


def power(y: Series, e: int) -> Series:
    """Integer power of a series: power_m in one variable, so for negative e
    a constant term that is not a unit raises NotInvertible."""
    return _as_mseries(power_m, y, e)


def revert(f: Series) -> Series:
    """Compositional inverse g with f(g(z)) = g(f(z)) = z to the truncation.

    A nonzero constant term raises BadConstantTerm; order 0, or a linear
    coefficient that is not a unit, NotInvertible.  The k-th coefficient is
    the Lagrange extraction (1/k)[z**(k-1)] (z/f)**k.
    """
    if not f.const.is_zero():
        raise BadConstantTerm("reversion needs a vanishing constant term")
    if f.order < 1:
        raise NotInvertible("reversion needs at least one coefficient")
    field, n = f.field, f.order
    w = power(shift_down(f), -1)  # z/f, whose constant term f_1 invert refuses unless a unit
    g = []
    wk = w
    for k in range(1, n + 1):
        g.append(wk.coeff(k - 1) / k)
        if k < n:
            wk = wk * w
    return Series(field, n, field.zero(), tuple(g))


def shift_up(v: Series) -> Series:
    """Multiply by z: order grows by one, nothing is lost."""
    return Series(v.field, v.order + 1, v.field.zero(), (v.const,) + v.coeffs)


def shift_down(v: Series) -> Series:
    """Divide by z a series with zero constant term: order shrinks by one."""
    if not v.const.is_zero():
        raise BadConstantTerm("shift_down needs a vanishing constant term")
    if v.order < 1:
        raise ValueError("nothing left to shift")
    return Series(v.field, v.order - 1, v.coeffs[0], v.coeffs[1:])
