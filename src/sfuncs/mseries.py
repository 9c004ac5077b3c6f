"""Multivariate truncated series: total-degree truncation, sparse storage.

Terms are kept as a sorted tuple of (exponent vector, coefficient) pairs so
instances are canonical, hashable and cheap to compare.  Binary operations
truncate to the smaller total-degree order.  The zero exponent vector (a
constant term) is representable; verification code insists it vanishes.

This module holds the one graded core of the package.  A series is split
into its grades, the homogeneous parts of each total degree, and exp_m,
log_m and the inverse behind power_m run the Brent-Kung recurrences on
them.  The Euler operator E = sum_i z_i d/dz_i multiplies the degree-j part
by j and is a derivation, so y = exp(v) satisfies E y = (E v) y, that is
k*y_k = sum_j (j*v_j)*y_(k-j); log solves the same relation for v_k, and
the inverse w of y solves sum_j y_j*w_(k-j) = 0 for k > 0.  Each sum over
j is one _sum_of_products, and each costs about one full product instead
of a sum of order-many powers.  A Series is the dense view of nvars = 1:
its arithmetic, delta, exp, log and power go through from_univariate and
to_univariate.
"""
from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from operator import add, itemgetter
from typing import Mapping, Sequence, Union

from .errors import BadConstantTerm, DimensionMismatch, FieldMismatch
from .numfield import _INT, FieldElem, NumberField, _Frozen, _square_and_multiply, _sum_rows, invert

Coeff = Union[int, Fraction, FieldElem]
ExpVec = tuple[int, ...]


class MSeries(_Frozen):
    """Nonzero terms (exponent vector, coefficient) sorted by vector, to total degree order."""

    field: NumberField
    nvars: int
    order: int
    terms: tuple[tuple[ExpVec, FieldElem], ...]

    @classmethod
    def from_dict(
        cls,
        field: NumberField,
        nvars: int,
        order: int,
        coeffs: Mapping[ExpVec, Coeff],
    ) -> "MSeries":
        """Build from an exponent-vector map; zeros and out-of-range terms drop."""
        if nvars < 1:
            raise DimensionMismatch("need at least one variable")
        if order < 0:
            raise ValueError("order must be nonnegative")
        terms = []
        for key, val in coeffs.items():
            key = tuple(key)
            if not {*map(type, key)} <= _INT:  # a float or a bool is not truncated
                raise TypeError(f"exponent vector {key!r} has an entry that is not an int")
            if len(key) != nvars:
                raise DimensionMismatch(
                    f"exponent vector {key} does not have {nvars} entries"
                )
            if any(k < 0 for k in key):
                raise ValueError(f"negative exponent in {key}")
            if sum(key) > order:
                continue
            elem = field.coerce(val)
            if not elem.is_zero():
                terms.append((key, elem))
        terms.sort(key=lambda t: t[0])
        return cls(field, nvars, order, tuple(terms))

    @classmethod
    def zero(cls, field: NumberField, nvars: int, order: int) -> "MSeries":
        return cls.from_dict(field, nvars, order, {})

    @classmethod
    def var(cls, field: NumberField, nvars: int, order: int, i: int) -> "MSeries":
        """The coordinate series z_i (zero-based index)."""
        key = tuple(1 if j == i else 0 for j in range(nvars))
        return cls.from_dict(field, nvars, order, {key: 1})

    @cached_property
    def as_dict(self) -> dict[ExpVec, FieldElem]:
        return dict(self.terms)

    def coeff(self, key: Sequence[int]) -> FieldElem:
        key = tuple(key)
        if not {*map(type, key)} <= _INT:  # a float or a bool is not truncated
            raise TypeError(f"exponent vector {key!r} has an entry that is not an int")
        if sum(key) > self.order:
            raise ValueError(f"{key} is outside the truncation order {self.order}")
        return self.as_dict.get(key, self.field.zero())

    @property
    def constant_term(self) -> FieldElem:
        head = self.terms[:1]  # the keys are sorted: the zero key comes first
        return head[0][1] if head and not any(head[0][0]) else self.field.zero()

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "MSeries") -> None:
        if other.field != self.field:
            raise FieldMismatch("series over different fields")
        if other.nvars != self.nvars:
            raise DimensionMismatch("series in different variable counts")

    def __add__(self, other) -> "MSeries":
        if isinstance(other, (int, Fraction, FieldElem)):
            other = MSeries.from_dict(
                self.field, self.nvars, self.order, {(0,) * self.nvars: other}
            )
        if not isinstance(other, MSeries):
            return NotImplemented
        self._check(other)
        order = min(self.order, other.order)
        acc: dict[ExpVec, FieldElem] = dict(
            (k, c) for k, c in self.terms if sum(k) <= order
        )
        for k, c in other.terms:
            if sum(k) <= order:
                acc[k] = acc[k] + c if k in acc else c
        # keys and values come from checked series: no from_dict
        terms = tuple(sorted(t for t in acc.items() if t[1]))
        return MSeries(self.field, self.nvars, order, terms)

    __radd__ = __add__

    def __neg__(self) -> "MSeries":
        return MSeries(
            self.field,
            self.nvars,
            self.order,
            tuple((k, -c) for k, c in self.terms),
        )

    def __sub__(self, other) -> "MSeries":
        if isinstance(other, (MSeries, int, Fraction, FieldElem)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "MSeries":
        return (-self) + other

    def __mul__(self, other) -> "MSeries":
        """Product by a scalar, or by a series truncated to the smaller order
        (the one-pair case of _sum_of_products)."""
        if isinstance(other, (int, Fraction, FieldElem)):
            # FieldElem.__mul__ scales by an int or a Fraction without a
            # field product; coerce checks an element's field, terms or not
            if isinstance(other, FieldElem):
                self.field.coerce(other)
            terms = tuple(t for t in [(k, v * other) for k, v in self.terms] if t[1])
            return MSeries(self.field, self.nvars, self.order, terms)
        if not isinstance(other, MSeries):
            return NotImplemented
        return _sum_of_products([(self, other)])

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "MSeries":
        return power_m(self, e)

    def to_univariate(self) -> "Series":
        """View a one-variable MSeries as a Series."""
        from .series import Series

        if self.nvars != 1:
            raise DimensionMismatch("only one-variable series convert")
        coeffs = [self.field.zero()] * (self.order + 1)
        for (k,), c in self.terms:
            coeffs[k] = c
        return Series(self.field, self.order, coeffs[0], tuple(coeffs[1:]))

    @classmethod
    def from_univariate(cls, v: "Series") -> "MSeries":
        terms = enumerate((v.const, *v.coeffs))
        return cls(v.field, 1, v.order, tuple(((k,), c) for k, c in terms if c))

    def __repr__(self) -> str:
        parts = [f"({c})*z^{list(k)}" for k, c in self.terms]
        body = " + ".join(parts) if parts else "0"
        return f"MSeries[{body}; order {self.order}]"


def delta_i(v: MSeries, i: int) -> MSeries:
    """Logarithmic derivative z_i d/dz_i: scale each term by its i-th exponent."""
    if not 0 <= i < v.nvars:
        raise DimensionMismatch(f"variable index {i} out of range")
    # the terms of a checked series, scaled by a nonzero int: no from_dict
    terms = tuple((k, c * k[i]) for k, c in v.terms if k[i])
    return MSeries(v.field, v.nvars, v.order, terms)


def _sum_of_products(pairs: list[tuple[MSeries, MSeries]], scale: int = 1) -> MSeries:
    """The sum of x*y over the (x, y) pairs, divided by the integer scale and
    truncated to the smallest order of the operands; pairs is not empty.

    For each pair, y's terms are sorted by total degree once, and each term
    k1 of x meets the prefix of degree <= order - |k1|, cut with bisect.
    The (nums, den, nums, den, 1) rows of each output key are gathered
    across all the pairs and go to numfield._sum_rows once, which aligns
    them to one lcm, folds and normalizes once per key.
    """
    first = pairs[0][0]
    field, order = first.field, min(min(x.order, y.order) for x, y in pairs)
    rows: dict[ExpVec, list] = {}
    for x, y in pairs:
        # the grades _dot passes share first's field object: check only others
        for v in (x, y):
            if v.field is not field or v.nvars != first.nvars:
                first._check(v)
        seconds = sorted(((sum(k), k, c.nums, c.den) for k, c in y.terms),
                         key=itemgetter(0))
        degrees = [t[0] for t in seconds]
        for k1, c1 in x.terms:
            a, ad = c1.nums, c1.den
            for _, k2, b, bd in seconds[:bisect_right(degrees, order - sum(k1))]:
                rows.setdefault(tuple(map(add, k1, k2)), []).append((a, ad, b, bd, 1))
    terms = []
    for key in sorted(rows):
        nums, den = _sum_rows(field, rows[key], scale)
        if any(nums):
            terms.append((key, FieldElem._normalized(field, nums, den)))
    return MSeries(field, first.nvars, order, tuple(terms))


def _one(v: MSeries) -> MSeries:
    return MSeries.from_dict(v.field, v.nvars, v.order, {(0,) * v.nvars: 1})


def _grades(v: MSeries) -> list[MSeries]:
    """Homogeneous parts of v, by total degree 0..order."""
    parts: list[list] = [[] for _ in range(v.order + 1)]
    for term in v.terms:
        parts[sum(term[0])].append(term)
    return [MSeries(v.field, v.nvars, v.order, tuple(p)) for p in parts]


def _from_grades(v: MSeries, grades: list[MSeries]) -> MSeries:
    """Reassemble homogeneous parts, with v's field, variables and order."""
    terms = sorted((t for g in grades for t in g.terms), key=lambda t: t[0])
    return MSeries(v.field, v.nvars, v.order, tuple(terms))


# Graded recurrences on the grades g[0..n] of a series (Brent & Kung 1978;
# see the module docstring).


def _dot(a: list[MSeries], nz: list[int], b: list[MSeries], k: int, scale: int = 1) -> MSeries:
    """sum_{j=1..k} a_j * b_(k-j) / scale, where nz lists the j >= 1 with a_j
    nonzero in order: one _sum_of_products over the nonzero pairs, whose
    count, not k, is the cost of a step."""
    pairs = [(a[j], b[k - j]) for j in nz[:bisect_right(nz, k)] if b[k - j].terms]
    return _sum_of_products(pairs, scale) if pairs else a[0] * 0


def _nonzero(a: list[MSeries]) -> list[int]:
    return [j for j in range(1, len(a)) if a[j].terms]


def _exp_grades(v: list[MSeries], one: MSeries) -> list[MSeries]:
    """Grades of exp(v), v_0 = 0: k*y_k = sum_{j=1..k} (j*v_j)*y_(k-j), y_0 = one."""
    dv = [g * j for j, g in enumerate(v)]
    nz, y = _nonzero(dv), [one]
    for k in range(1, len(v)):
        y.append(_dot(dv, nz, y, k, k))
    return y


def _log_grades(y: list[MSeries]) -> list[MSeries]:
    """Grades of log(y), y_0 = 1: k*v_k = k*y_k - sum_{j=1..k-1} y_j*((k-j)*v_(k-j))."""
    v, dv, nz = [y[0] * 0], [y[0] * 0], _nonzero(y)
    for k in range(1, len(y)):
        v.append(y[k] + _dot(y, nz, dv, k, -k))
        dv.append(v[k] * k)
    return v


def _inverse_grades(y: list[MSeries], one: MSeries, c: FieldElem) -> list[MSeries]:
    """Grades of 1/y, where c inverts the constant term of y_0:
    w_0 = c*one, w_k = -c * sum_{j=1..k} y_j*w_(k-j)."""
    w, nz = [one * c], _nonzero(y)
    for k in range(1, len(y)):
        w.append(_dot(y, nz, w, k) * -c)
    return w


def power_m(y: MSeries, e: int) -> MSeries:
    """Integer power; for negative e, invert raises NotInvertible when the
    constant term is not a unit."""
    one = _one(y)
    if e == 0:
        return one
    if e < 0:
        c = invert(y.constant_term)
        y, e = _from_grades(y, _inverse_grades(_grades(y), one, c)), -e
    return _square_and_multiply(y, e)


def exp_m(v: MSeries) -> MSeries:
    """exp of a series with zero constant term, by the graded recurrence
    k*y_k = sum_j (j*v_j)*y_(k-j) on homogeneous parts (E y = (E v) y)."""
    if not v.constant_term.is_zero():
        raise BadConstantTerm("exp needs a vanishing constant term")
    return _from_grades(v, _exp_grades(_grades(v), _one(v)))


def log_m(y: MSeries) -> MSeries:
    """log of a series with constant term 1: E y = (E v) y on homogeneous
    parts solved for v_k, k*v_k = k*y_k - sum_{j<k} (j*v_j)*y_(k-j)."""
    if y.constant_term != y.field.one():
        raise BadConstantTerm("log needs constant term 1")
    return _from_grades(y, _log_grades(_grades(y)))
