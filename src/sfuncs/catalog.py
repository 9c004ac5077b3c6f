"""Constructors and reproducible tables built on the checker.

Generators: cyclotomic (abelian) coefficient sequences a_k = sum_i c_i zeta^(ik)
with an optional exact descent into a subfield, series with prescribed
delta^(s-1) V = -log Q(z), and the framed-polylog multiplicity table, Moebius
inversion of the closed form k [z^k] log Y_f = (-1)^((f+1)k) binom(fk, k); the
framing engine's frame_f(Li2, -f) is its test oracle.  Also the binomial
congruence checker binom(pkf, pk) = binom(kf, k) mod p^(3(ord_p(k)+1)), p > 3.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, NamedTuple

from .errors import (BadConductor, BadConstantTerm, DescentFailed, FieldMismatch, SmallPrime,
                     _refuse_above)
from .intutil import _int_to_str, divisors, moebius, ord_p, require_prime
from .numfield import (
    FieldElem, NumberField, _cyclotomic, _exact, _Frozen, make_field, rationals,
)
from .series import Series, log_series


@lru_cache(maxsize=4096)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial, low to high.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(7)
    (1, 1, 1, 1, 1, 1, 1)
    """
    if n < 1:
        raise BadConductor(f"conductor must be at least 1, got {n}")
    return _cyclotomic(n)


@lru_cache(maxsize=4096)
def cyclotomic_field(n: int) -> NumberField:
    """The field presented by the n-th cyclotomic polynomial."""
    return make_field(cyclotomic_polynomial(n))


def polylog(s: int, order: int, field: NumberField | None = None) -> Series:
    """The truncated polylogarithm sum z**k / k**s.

    >>> polylog(2, 3).coeff(3) == Fraction(1, 9)
    True
    """
    f = rationals() if field is None else field
    return Series.from_coeffs(
        f, order, [Fraction(1, k**s) for k in range(1, order + 1)]
    )


class CyclotomicSpec(_Frozen):
    """A root-of-unity combination: conductor N, coefficients c_i, exponent s.

    The generated normalized coefficients are a_k = sum_i c_i zeta^(ik) with
    zeta the class of y in the quotient by the N-th cyclotomic polynomial.
    """

    conductor: int
    coeffs: tuple[tuple[int, Fraction], ...]
    s: int

    def __init__(self, conductor: int, coeffs, s: int) -> None:
        if conductor < 1:
            raise BadConductor(f"conductor must be at least 1, got {conductor}")
        if s < 1:
            raise ValueError("s must be a positive integer")
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        norm: dict[int, Fraction] = {}  # a repeated index sums its coefficients
        for i, c in items:
            if type(i) is not int:  # a float or a bool is not truncated
                raise TypeError(f"coefficient index {i!r} is not an int")
            c = _exact(c)
            if not 0 <= i < conductor:
                raise BadConductor(f"coefficient index {i} outside [0, {conductor})")
            norm[i] = norm.get(i, 0) + c
        super().__init__(conductor, tuple(sorted((i, c) for i, c in norm.items() if c)), s)


def _solve_rational(
    subfield: NumberField, columns: list[FieldElem], rhss: list[FieldElem]
) -> list[FieldElem | None]:
    """For each rhs, the element of subfield whose coordinates x solve
    sum_j x_j * columns[j] = rhs exactly, or None when there is none.

    One fraction-free Gauss-Jordan elimination (Bareiss's exact division by
    the previous pivot) on integer rows, with every rhs as a right-hand side;
    x_j is then the entry of row j over the last pivot.  Dependent columns
    raise DescentFailed."""
    rows, cols = len(columns[0].nums), len(columns)
    dc = math.lcm(*(e.den for e in columns))
    db = math.lcm(*(e.den for e in rhss))
    aug = [[e.nums[i] * (dc // e.den) for e in columns] + [e.nums[i] * (db // e.den) for e in rhss]
           for i in range(rows)]
    prev = 1
    for c in range(cols):
        pr = next((i for i in range(c, rows) if aug[i][c]), None)
        if pr is None:
            raise DescentFailed("powers of the supplied element are linearly dependent")
        aug[c], aug[pr] = aug[pr], aug[c]
        top = aug[c]
        pivot = top[c]
        for i in range(rows):
            if i != c:
                f = aug[i][c]
                aug[i] = [(pivot * a - f * b) // prev for a, b in zip(aug[i], top)]
        prev = pivot
    return [None if any(row[t] for row in aug[cols:])
            else FieldElem(subfield, tuple(aug[j][t] * dc for j in range(cols)), prev * db)
            for t in range(cols, cols + len(rhss))]


def abelian_generator(
    spec: CyclotomicSpec,
    order: int,
    subfield: NumberField | None = None,
    x_expr: FieldElem | None = None,
) -> Series:
    """Series with normalized coefficients a_k = sum_i c_i zeta^(ik).

    The stored coefficient at z**k is a_k / k**s over the cyclotomic field.
    With subfield and x_expr given, every a_k is re-expressed exactly in the
    power basis of x_expr and the series is returned over the subfield;
    DescentFailed when some coefficient lies outside that span or only one
    of the two is given, FieldMismatch when x_expr is not an element of the
    cyclotomic field.
    """
    n = spec.conductor
    field = cyclotomic_field(n)
    zpow = [field.one()]
    for _ in range(n - 1):
        zpow.append(zpow[-1] * field.gen())
    raw = {}  # a_k depends on k mod n only: one sum per residue, at its first index k
    for k in range(1, min(n, order) + 1):
        a = field.zero()
        for i, c in spec.coeffs:
            a = a + zpow[(i * k) % n] * c
        raw[k % n] = a
    if (subfield is None) != (x_expr is None):
        raise DescentFailed("descent needs both the subfield and the generator's expression")
    if subfield is not None:
        if x_expr.field != field:
            raise FieldMismatch("generator expression lives in the wrong field")
        mp = subfield.minpoly
        val = field.elem(mp[-1])
        for c in reversed(mp[:-1]):
            val = val * x_expr + c
        if not val.is_zero():
            raise DescentFailed("supplied element is not a root of the subfield polynomial")
        cols = [field.one()]
        for _ in range(subfield.degree - 1):
            cols.append(cols[-1] * x_expr)
        # in the order of the first index k of each residue r
        for r, sol in zip(raw, _solve_rational(subfield, cols, list(raw.values()))):
            if sol is None:
                raise DescentFailed(f"coefficient at index {r or n} lies outside the subfield")
            raw[r] = sol
        field = subfield
    return Series.from_coeffs(field, order, [raw[k % n] / k**spec.s for k in range(1, order + 1)])


def from_log_poly(field: NumberField, q_poly, s: int, order: int) -> Series:
    """The series V with delta^(s-1) V = -log Q(z) for a polynomial Q, Q(0)=1.

    q_poly lists the coefficients of Q from degree 0 up; entries may be ints,
    Fractions, or elements of the field.  The k-th coefficient of -log Q is
    divided by k**(s-1) once, which is dint applied s - 1 times.
    """
    if s < 1:
        raise ValueError("s must be a positive integer")
    qc = [field.coerce(c) for c in q_poly]
    if not qc or qc[0] != field.one():
        raise BadConstantTerm("polynomial must have constant coefficient 1")
    v = -log_series(Series.from_coeffs(field, order, qc[1:order + 1], 1))
    return Series(field, order, v.const,
                  tuple(c / k ** (s - 1) for k, c in enumerate(v.coeffs, start=1)))


class FramedPolylogTable(NamedTuple):
    """Exact table of framed-polylog multiplicities N_d^(f).

    nonintegral lists the (d, f) cells with f != 0 where 6*N/f is not an
    integer; the pattern 6*N/f in Z is observed on all computed data but is
    recorded as a measurement, never enforced.
    """

    d_values: tuple[int, ...]
    f_values: tuple[int, ...]
    cells: tuple[tuple[Fraction, ...], ...]  # rows follow d_values
    nonintegral: tuple[tuple[int, int], ...]

    def entry(self, d: int, f: int) -> Fraction:
        return self.cells[self.d_values.index(d)][self.f_values.index(f)]

    def to_obj(self) -> dict:
        return {
            "d": list(self.d_values),
            "f": list(self.f_values),
            "entries": [[_fraction_to_str(x) for x in row] for row in self.cells],
            "six_over_f_integral": not self.nonintegral,
            "nonintegral_cells": [list(c) for c in self.nonintegral],
        }

    def to_csv(self) -> str:
        lines = ["d," + ",".join(f"f={_int_to_str(f)}" for f in self.f_values)]
        for d, row in zip(self.d_values, self.cells):
            lines.append(f"{d}," + ",".join(map(_fraction_to_str, row)))
        return "\n".join(lines) + "\n"


def _fraction_to_str(x: Fraction) -> str:
    """str(x) for a fraction of any size: "n" or "n/d"."""
    num = _int_to_str(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_to_str(x.denominator)}"


def _framed_log_h(f: int, k: int) -> int:
    """k [z^k] log Y_f = (-1)**((f+1)k) binom(fk, k), with the generalized
    binomial binom(n, k) = (-1)**k binom(k-n-1, k) for n < 0."""
    n = f * k
    c = math.comb(n, k) if n >= 0 else (-1) ** k * math.comb(k - n - 1, k)
    return -c if (f + 1) * k % 2 else c


def _span(values) -> tuple[int, int, int]:
    """(count, min, max) of a nonempty range or tuple; a range's from its ends
    and step, without building it (len() overflows past sys.maxsize)."""
    if isinstance(values, range):
        a, b = values[0], values[-1]
        return (b - a) // values.step + 1, min(a, b), max(a, b)
    return len(values), min(values), max(values)


def polylog_frame_table(f_range, d_range) -> FramedPolylogTable:
    """Table of N_d^(f) for d in d_range, f in f_range.

    For each f the coefficients g_k of dint(dint(log Y_f)) decompose as
    k**3 * g_k = sum_{d|k} N_d * d**3, and Moebius inversion extracts N_d;
    k**3 * g_k is the integer _framed_log_h(f, k), so only cells divide.
    An empty range (a table that checks nothing) or a d < 1 raises ValueError,
    and a table whose _binomials_cost is above BINOMIAL_MAX_COST TooLarge,
    before any binomial: d 1..200 at f -10..10 runs, d 1..4000 at f 5 not.
    A range is read from its ends and step, and built only once the cost
    is accepted.
    """
    d_range, f_range = (r if isinstance(r, range) else tuple(r) for r in (d_range, f_range))
    if not d_range or _span(d_range)[1] < 1:
        raise ValueError("d range must contain positive integers")
    if not f_range:
        raise ValueError("f range is empty")
    (_, _, dmax), (f_count, f_lo, f_hi) = _span(d_range), _span(f_range)
    cost = _binomials_cost(f_count, dmax, max(-f_lo, f_hi).bit_length() + 1)
    _refuse_above(cost, BINOMIAL_MAX_COST, "BINOMIAL_MAX_COST",
                  "table to d = {} at {} f values, of estimated cost {},", dmax, f_count, cost)
    d_values, f_values = tuple(d_range), tuple(f_range)
    mu = [0] + [moebius(k) for k in range(1, dmax + 1)]
    divs = {d: divisors(d) for d in d_values}
    sums = {}  # d**3 * N_d^(f)
    for f in f_values:
        h = [0] + [_framed_log_h(f, k) for k in range(1, dmax + 1)]
        for d in d_values:
            sums[d, f] = sum(mu[d // e] * h[e] for e in divs[d])
    cells = tuple(tuple(Fraction(sums[d, f], d**3) for f in f_values) for d in d_values)
    bad = tuple((d, f) for d in d_values for f in f_values
                if f and 6 * sums[d, f] % (f * d**3))
    return FramedPolylogTable(d_values, f_values, cells, bad)


class JKRecord(NamedTuple):
    """One binomial congruence instance at (k, f)."""

    k: int
    f: int
    alpha: int
    required: int
    valuation: float  # ord_p of the difference; math.inf when it vanishes
    ok: bool


class JKReport(NamedTuple):
    """The binomial congruence sweep at the prime p, one record per (k, f)."""

    p: int
    records: tuple[JKRecord, ...]

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)

    def to_obj(self) -> dict:
        return {
            "p": self.p,
            "pass": self.passed,
            "records": [
                {
                    "k": r.k,
                    "f": r.f,
                    "alpha": r.alpha,
                    "required": r.required,
                    "valuation": "inf" if r.valuation == math.inf else r.valuation,
                    "ok": r.ok,
                }
                for r in self.records
            ],
        }


# Bound on _binomials_cost: on a 2-core x86-64 host, CPython 3.11, a unit took
# 3.5e-12 to 1.6e-11 s in jk_check and 5.7e-13 to 1.9e-11 s in
# polylog_frame_table; the largest runs accepted took 0.4 to 1.3 s.
BINOMIAL_MAX_COST = 7 * 10**10


def _binomials_cost(count: int, k_max: int, bits: int) -> int:
    """Estimated cost in squared bits of count runs of binomials at k = 1..k_max,
    the k-th of about k*bits bits: 2**19 per binomial plus (k*bits)**2."""
    return count * k_max * (2**19 + (k_max + 1) * (2 * k_max + 1) * bits * bits // 6)


def _jk_cost(p: int, k_max: int, f_max: int) -> int:
    """_binomials_cost of a sweep: f_max runs to k_max, binom(pkf, pk) of about
    p*k*(bit_length(f_max) + 1) bits."""
    return _binomials_cost(f_max, k_max, p * (f_max.bit_length() + 1))


def jk_check(p: int, k_max: int, f_max: int) -> JKReport:
    """Verify binom(pkf, pk) = binom(kf, k) mod p^(3(ord_p(k)+1)) for p > 3;
    k_max or f_max below 1 (an empty sweep, which would pass) raises ValueError.

    A sweep whose _jk_cost, about p**2 k_max**3 f_max, is above
    BINOMIAL_MAX_COST raises TooLarge, before any binomial is computed: (7, 21, 5),
    (13, 39, 5) and (5, 100, 100) run, (100003, 1, 2) and (10007, 5, 5) are
    refused.

    >>> jk_check(5, 1, 2).records[-1].valuation
    3
    """
    if k_max < 1 or f_max < 1:
        raise ValueError(f"need k_max >= 1 and f_max >= 1, got {k_max} and {f_max}")
    cost = _jk_cost(p, k_max, f_max)
    _refuse_above(cost, BINOMIAL_MAX_COST, "BINOMIAL_MAX_COST",
                  "sweep p = {}, k_max = {}, f_max = {}, of estimated cost {},",
                  p, k_max, f_max, cost)
    require_prime(p)
    if p <= 3:
        raise SmallPrime("the congruence needs p > 3")
    records = []
    for k in range(1, k_max + 1):
        alpha = ord_p(k, p)
        required = 3 * (alpha + 1)
        for f in range(1, f_max + 1):
            diff = math.comb(p * k * f, p * k) - math.comb(k * f, k)
            val = math.inf if diff == 0 else ord_p(diff, p)
            records.append(
                JKRecord(k, f, alpha, required, val, val >= required)
            )
    return JKReport(p, tuple(records))
