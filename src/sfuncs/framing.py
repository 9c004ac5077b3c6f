"""Framing transformations of s-function data.

frame_multi frames a series in n variables by a symmetric integer matrix
kappa: y_i = z_i / phi_i(z), phi_i = sigma_i exp(sum_p kappa_ip delta_p W),
sigma_i = (-1)**kappa_ii, and B = W - 1/2 sum_jk kappa_jk delta_j W delta_k W
is rewritten in y.  With S_jk = delta_j delta_k W, Lagrange-Good inversion
(Good 1960) reads the output coefficients off, with nothing inverted or
composed:

    [y**k] B(z(y)) = sigma**k [z**k] B det(I - kappa S) exp(<kappa k, delta W>).

Framings compose additively in kappa.  frame_multi is the one framing engine:

* frame_f(w, f) is its 1x1 case kappa = (f).  It substitutes z_f = z (-Y)**f
  with Y = exp(-delta W) and returns W - (f/2) (delta W)**2 in the new
  coordinate, c_k = sigma**k [z**k] B (1 - f delta**2 W) exp(k f delta W);
  f = 0 is the identity.
* The elementary framing, in zt = -z * Y, is -frame_f(., 1), with output
  coefficients atil_k / k**2, atil_k = (-1)**(k-1) * [z**k] Y**(-k).
  frame_elementary(w, via_reversion=True) reaches the same series by full
  reversion of zt followed by W~ = dint(-log Y~), an independent path; both
  must agree exactly.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from math import comb, factorial, gcd, lcm, perm
from operator import le, mul, sub

from .errors import (
    ConstantTermNonzero,
    DimensionMismatch,
    FramingTooLarge,
    NotSymmetric,
)
from .mseries import MSeries, _sum_of_products, delta_i, power_m
from .numfield import FieldElem, _sum_rows
from .series import (
    Series,
    delta,
    dint,
    exp_series,
    log_series,
    revert,
    shift_down,
    shift_up,
)


@dataclass(frozen=True)
class Kappa:
    """Symmetric integer framing matrix.  An entry that is not an int, a
    float or a bool included, raises TypeError: nothing is truncated."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = tuple(tuple(row) for row in self.entries)
        for c in (c for row in rows for c in row):
            if isinstance(c, bool) or not isinstance(c, int):
                raise TypeError(f"framing matrix entry {c!r} is not an int")
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("framing matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric(
                        f"entries ({i},{j}) and ({j},{i}) differ"
                    )
        object.__setattr__(self, "entries", rows)

    @property
    def n(self) -> int:
        return len(self.entries)

    def sigma(self, i: int) -> int:
        """Coordinate sign (-1)**kappa_ii."""
        return -1 if self.entries[i][i] % 2 else 1

    def __add__(self, other: "Kappa") -> "Kappa":
        if not isinstance(other, Kappa):
            return NotImplemented
        if other.n != self.n:
            raise DimensionMismatch("framing matrices of different size")
        return Kappa(
            tuple(
                tuple(a + b for a, b in zip(r1, r2))
                for r1, r2 in zip(self.entries, other.entries)
            )
        )

    @classmethod
    def parse(cls, text: str) -> "Kappa":
        """Rows separated by ';', entries by ','.  '1,0;0,1' is diag(1,1)."""
        rows = []
        for row in text.strip().split(";"):
            rows.append(tuple(int(c) for c in row.split(",")))
        return cls(tuple(rows))


def _require_no_constant(w) -> None:
    const = w.const if isinstance(w, Series) else w.constant_term
    if not const.is_zero():
        raise ConstantTermNonzero("framing input must have zero constant term")


def frame_elementary(w: Series, via_reversion: bool = False) -> Series:
    """Elementary framing: output coefficients atil_k / k**2 in zt = -z Y.

    The default is -frame_f(w, 1); via_reversion selects the independent
    computation through revert.
    """
    _require_no_constant(w)
    if not via_reversion:
        return -frame_f(w, 1)
    y = exp_series(-delta(w))
    zt = -shift_up(y)  # -z*Y, exact to order w.order + 1
    g = revert(zt)
    ytil = -shift_down(g)  # g = -zt * Ytil(zt)
    return dint(-log_series(ytil))


def frame_f(w: Series, f: int) -> Series:
    """Integer framing: (W - (f/2)(delta W)**2) in the coordinate z_f = z(-Y)**f.

    This is frame_multi with the 1x1 matrix kappa = (f): with
    B = W - (f/2)(delta W)**2 and sigma = (-1)**f, the output coefficients are
    c_k = sigma**k [z**k] B (1 - f delta**2 W) exp(k f delta W).  A W with
    a term at every degree is refused with FramingTooLarge above order 225
    over Q (frame_multi's MAX_WORK; lower over a larger field).

    >>> from sfuncs.catalog import polylog
    >>> w = polylog(2, 6)
    >>> frame_f(w, 1) == -frame_elementary(w, via_reversion=True)
    True
    >>> [frame_f(w, 1).coeff(k) * k * k for k in range(1, 7)]
    [-1, 3, -10, 35, -126, 462]
    """
    return frame_multi(MSeries.from_univariate(w), Kappa(((f,),))).to_univariate()


# Most work units one frame_multi call may cost.  Per field dimension, a
# pair (m <= k) of the walk costs 10 units, a term of W probed for it 4, and
# a pair of terms in a series product while D is built 1; the weights and
# the cap come from timings (see the frame_multi docstring).
MAX_WORK = 8_000_000

# Over Q, frame_multi walks on integers over one fixed denominator when
# order * log2(Dw) is below this many bits (see its docstring).
_FIXED_BITS = 2000


def frame_multi(w: MSeries, kappa: Kappa) -> MSeries:
    """Framing of a multivariate series by a symmetric integer matrix kappa.

    With y, sigma, B and S as in the module docstring, Lagrange-Good inversion
    gives the output coefficients, 0 < |k| <= order, as

        c_k = sigma**k [z**k] D exp(<kappa k, delta W>),  D = B det(I - kappa S).

    A z_i absent from W has delta_i W = 0, so D and the exp do not involve
    it and k_i = 0: k ranges over the simplex 0 < |k| <= order in the n
    variables that appear in W only, and det(I - kappa S) is taken over
    them.  With u = kappa delta W, B = W - 1/2 sum_i delta_i W u_i and
    (kappa S)_ij = delta_j u_i, so D costs n series products (one
    mseries._sum_of_products for B) and one elimination.  u, delta_i W and
    the entries of I - kappa S are built from the checked terms of W,
    without MSeries.from_dict, and each series product sums integer rows.
    For each k the exp runs on the box {m <= k}.  The terms j of W (as
    |j| W_j with the vector kappa j) and of D are integer rows sorted by
    (|j|, j), built once.  The terms j <= m of W, with their keys m - j,
    depend on m only: they are listed once per call, the first time a box
    reaches m (_Below), so no term with some j_i > m_i is probed.  For each k the weights
    <k, kappa j> are one list, and a term of W enters the exp recurrence
    at m with its weight.  The output coefficient sums D_j E_m over
    j + m = k, read from the shorter of D and the exp table, and the one
    FieldElem._normalized built per k is the output coefficient.

    The exp table has two representations; only the sum per m and the
    output sum differ between them:

    * rows: E_m is a normalized numfield._sum_rows result, with one lcm of
      the row denominators, one division per row and one gcd per entry.
    * fixed denominator, over Q: with Dw the lcm of the denominators of the
      |j| W_j and A_j = Dw |j| W_j, the walk keeps the integers
      N_m = |m|! Dw**|m| E_m, and |m| E_m = sum_j <k, kappa j> |j| W_j E_(m-j)
      reads N_m = sum_j <k, kappa j> A_j (|m|-1)!/(|m|-|j|)! Dw**(|j|-1) N_(m-j):
      integer multipliers, with no lcm, division or gcd in the walk.  c_k is
      one integer over lcm(denominators of D) |k|! Dw**|k|, with one gcd.
      The falling factorials are taken with math.perm as they are read, so
      no table of them is built.

    The path is chosen before the walk from the field degree, Dw and the
    order: the fixed one when the degree is 1, some term of W has
    kappa j != 0 and order * log2(Dw) is below _FIXED_BITS = 2000 (always
    when Dw = 1), else rows.  With no term in the exp there is no walk.  The fixed integers
    carry Dw**|m|, so past the bound they outgrow the reduced rows.
    Measured fixed/rows time ratios (medians of 7 to 60 interleaved runs):
    frame_f(Li2, 2), where Dw = lcm(1..order), 0.82-0.96 up to order 36
    (1,728 bits), 1.05 at 38 (2,014 bits), 1.54 at 44 (2,816) and 2.2 at 56
    (4,368); frame_f(Li3, 2) 0.93 at order 28 (2,044 bits) and 1.14 at 32
    (3,040); the criterion-4 W (dilogarithms of monomials) 0.73-0.86 at
    orders 11 to 28 (165 to 1,036 bits).

    The work is counted in units (see MAX_WORK and _walk_cost): the walk is
    charged before it starts, and each series product while D is built
    before it is made.  Past MAX_WORK = 8,000,000 units FramingTooLarge is
    raised.  Timed on a 2-core x86-64 KVM guest with CPython 3.11.7 (the
    median of 3 runs), a unit took 0.09-0.37 us on most inputs, but the
    unit weights ignore the size of the numbers: the most expensive input
    under the cap is frame_f of W = z/3 with f = 1 at order 1067, on the
    rows path (Dw = 3, 2,134 bits): 32 s, 30 s above 2 s (8.0 M units);
    W = z, on the fixed path, takes 1.2 s there (28 s on rows).  frame_f
    of Li2 with f = 2 at order 224, on the rows path, takes 2.6 s (7.9 M
    units, 20 MB peak resident size of the whole process, 16 MB before
    the call; order 226 is refused before any work).  On the fixed path
    over Q: W = z1 + z2 with kappa = I takes 0.47 s at order 48 (4.9 M
    units; 1.6 s on rows) and 0.85 s at 54 (7.6 M; 2.3 s on rows), and
    order 55 (8.2 M) is refused; frame_f of W_k = 1/k with f = 2 (Dw = 1)
    1.4 s at order 200 (5.6 M; 3.7 s on rows); a dense two-variable W (every key, coefficient 1) with kappa all
    ones 0.17 s at order 19 (2.0 M) and 0.41 s at 24 (6.7 M), and order 25
    (8.1 M) is refused; W = z1 + ... + z16 with kappa all ones 0.25 s at
    order 3 (1.9 M), and order 4 is refused in the elimination.  Over the
    disc-49 cubic, frame_f(w, 3) of w = from_log_poly(F, [1, -g, 1], 2, N)
    takes 2.2 s at N = 144 (6.5 M), on the rows path.

    >>> from sfuncs.numfield import rationals
    >>> w = MSeries.from_dict(rationals(), 2, 2, {(1, 0): 1, (0, 1): 1})
    >>> [(k, str(c)) for k, c in frame_multi(w, Kappa.parse("1,1;1,0")).terms]
    [((0, 1), '1'), ((1, 0), '-1'), ((1, 1), '-1'), ((2, 0), '1/2')]
    >>> a, b = Kappa.parse("1,0;0,0"), Kappa.parse("0,1;1,-2")
    >>> frame_multi(frame_multi(w, a), b) == frame_multi(w, a + b)
    True
    """
    _require_no_constant(w)
    if kappa.n != w.nvars:
        raise DimensionMismatch(
            f"framing matrix is {kappa.n}x{kappa.n}, series has {w.nvars} variables"
        )
    n, field, kap = w.nvars, w.field, kappa.entries
    # delta_i W = 0 for a z_i absent from W, so every key below has k_i = 0
    live = sorted({i for j, _ in w.terms for i, ji in enumerate(j) if ji})
    # <kappa k, j> = <k, kappa j>: a term j of W with kappa j = 0 is in
    # neither u = kappa delta W nor the exp
    kterms = [(j, c, kj) for j, c in w.terms
              if any(kj := [sum(map(mul, row, j)) for row in kap])]
    wrows = sorted(((j, sum(j), (jw := c * sum(j)).nums, jw.den, kj)
                    for j, c, kj in kterms), key=_by_degree)
    budget = _Budget(field, w.order, len(live))
    budget.spend(_walk_cost(field, w.order, len(live), [t[1] for t in wrows]))
    # u_i = sum_p kappa_ip delta_p W, so B = W - 1/2 sum_i delta_i W u_i and
    # (kappa S)_ij = delta_j u_i; the terms below come from w, already checked
    u = {i: MSeries(field, n, w.order,
                    tuple((j, c * kj[i]) for j, c, kj in kterms if kj[i]))
         for i in live}
    pairs = [(delta_i(w, i), u[i]) for i in live if u[i].terms]
    body = w - budget.sum_of_products(pairs, 2) if pairs else w
    # a column of I - kappa S outside live is a unit vector, so the
    # determinant is the one of the live rows and columns
    d = budget.mul(body, _unit_det(
        [[_unit_minus_delta(u[i], j, i == j) for j in live] for i in live], budget
    )) if live else body
    # over Q on one fixed denominator (see the docstring): N_m = |m|! Dw**|m| E_m;
    # with no term in the exp there is no walk, and rows cost nothing
    dw = lcm(*(ad for _, _, _, ad, _ in wrows))
    fixed = bool(wrows) and field.degree == 1 and w.order * (dw - 1).bit_length() < _FIXED_BITS
    drows = [(j, sum(j), (c.nums, c.den)) for j, c in sorted(d.terms, key=_by_degree)]
    if fixed:
        dd = lcm(*(ad for *_, (_, ad) in drows))
        wrows = [(j, sj, a[0] * (dw // ad) * dw ** (sj - 1), 1, kj)
                 for j, sj, a, ad, kj in wrows]
        drows = [(j, sj, (a[0] * (dd // ad) * dw ** sj, sj)) for j, sj, (a, ad) in drows]
    dmap = {j: dj for j, _, dj in drows}
    ddeg = [sj for _, sj, _ in drows]
    odd = [i for i in range(n) if kappa.sigma(i) < 0]
    unit = 1 if fixed else ((1,) + (0,) * (field.degree - 1), 1)
    below = _Below(wrows, fixed)
    out = []
    for k in _simplex(n, live, w.order):
        sk = sum(k)
        dots = [sum(map(mul, k, kj)) for *_, kj in wrows]
        # |m| E_m = sum_j |j| <kappa k, j> W_j E_(m-j) on the box below k
        e = {(0,) * n: unit}
        walk = any(dots[t] for *_, t in below[k][1])
        for m in product(*(range(ki + 1) for ki in k)) if walk else ():
            sm, terms = below[m]
            if 0 < sm < sk:
                if fixed:
                    c = sum([dot * a * prev for mj, a, _, t in terms
                             if (dot := dots[t]) and (prev := e.get(mj))])
                else:
                    c = _sum_rows(field, [(a, ad, *prev, dot) for mj, a, ad, t in terms
                                          if (dot := dots[t]) and (prev := e.get(mj))], sm)
                if c and (fixed or any(c[0])):
                    e[m] = c
        # the pairs D_j E_m with j + m = k, read from the shorter of e and D
        if len(e) < bisect_right(ddeg, sk):
            pairs = [(dj, em) for m, em in e.items()
                     if (dj := dmap.get(tuple(map(sub, k, m))))]
        else:
            pairs = _pairs_at(e, drows, k, sk)
        sign = (-1) ** sum(k[i] for i in odd)
        if fixed:
            num = sign * sum(a * perm(sk, sj) * em for (a, sj), em in pairs)
            g = gcd(num, den := dd * factorial(sk) * dw ** sk)
            c = ((num // g,), den // g)
        else:
            c = _sum_rows(field, [(*dj, *em, 1) for dj, em in pairs], sign)
        if c and any(c[0]):
            out.append((k, FieldElem._normalized(field, *c)))
    # sorted: _simplex yields the keys in increasing order
    return MSeries(field, n, w.order, tuple(out))


class _Below(dict):
    """m -> (|m|, the rows (m - j, a, a_den, t) of the terms
    t = (j, |j|, a, a_den, _) of wrows with j <= m), listed the first time
    m is read.  The list depends on m only, not on the output key k, so
    frame_multi's walk builds no key m - j and probes no j with some
    j_i > m_i.  wrows is sorted by |j|, and the scan stops at the first
    |j| > |m|.  On the fixed-denominator path the integer a is listed
    times (|m| - 1)! / (|m| - |j|)!."""

    def __init__(self, wrows: list, fixed: bool) -> None:
        super().__init__()
        self.wrows, self.fixed = wrows, fixed

    def __missing__(self, m: tuple) -> tuple:
        sm, terms = sum(m), []
        for t, (j, sj, a, ad, _) in enumerate(self.wrows):
            if sj > sm:
                break
            if all(map(le, j, m)):
                if self.fixed:
                    a *= perm(sm - 1, sj - 1)
                terms.append((tuple(map(sub, m, j)), a, ad, t))
        self[m] = (sm, terms)
        return sm, terms


def _unit_minus_delta(v: MSeries, j: int, unit: bool) -> MSeries:
    """1 - delta_j v when unit, else -delta_j v, for v without constant
    term: the constant key sorts first, and the other terms keep v's order."""
    terms = tuple((k, c * -k[j]) for k, c in v.terms if k[j])
    if unit:
        terms = (((0,) * v.nvars, v.field.one()),) + terms
    return MSeries(v.field, v.nvars, v.order, terms)


def _walk_cost(field, order: int, n: int, degrees: list[int]) -> int:
    """Work units of frame_multi's walk, known before it: the field degree
    times the sum, over the pairs (m <= k) with |k| <= order in the n
    variables of W, of 10 for the pair (a visit to m and at most one term of
    D) and 4 for each of the given sorted degrees (of the terms of W with
    kappa j != 0) that is at most |m| (a probe of e).  With one variable and
    a term at every degree this is 10 C(order + 2, 2) + 4 C(order + 2, 3)."""
    if not n:
        return 0
    if not degrees:  # the exp is 1: no box is walked, one term of D per key
        return field.degree * 10 * comb(order + n, n)
    pairs = comb(order + 2 * n, 2 * n)
    if pairs > MAX_WORK:
        return pairs  # a lower bound, and already above the cap
    return field.degree * sum(
        comb(s + n - 1, n - 1) * comb(order - s + n, n) * (10 + 4 * bisect_right(degrees, s))
        for s in range(order + 1)
    )


def _by_degree(term):
    return sum(term[0]), term[0]


def _pairs_at(e: dict, drows: list, k: tuple, sk: int) -> list:
    """The pairs (D entry, e[k - j]) of the rows (j, |j|, D entry) of D,
    sorted by |j|, for which k - j is a key of e; the walk stops at the
    first |j| > |k| = sk."""
    pairs = []
    for j, sj, dj in drows:
        if sj > sk:
            break
        if prev := e.get(tuple(map(sub, k, j))):
            pairs.append((dj, prev))
    return pairs


def _simplex(n: int, live: list[int], order: int):
    """The keys k in n variables with 0 < |k| <= order and k_i = 0 for every
    i not in live, one at a time and in increasing order: an odometer on
    the live coordinates."""
    k, total = [0] * n, 0
    while True:
        for i in reversed(live):
            if total < order:
                k[i] += 1
                total += 1
                yield tuple(k)
                break
            total -= k[i]
            k[i] = 0
        else:
            return


class _Budget:
    """The work units left to one frame_multi call, out of MAX_WORK: the
    walk is charged before it starts, and each series product of the
    set-up before it is made.  Spending past MAX_WORK raises
    FramingTooLarge."""

    def __init__(self, field, order: int, n: int) -> None:
        self.left, self.degree, self.order, self.n = MAX_WORK, field.degree, order, n

    def spend(self, units: int) -> None:
        self.left -= units
        if self.left < 0:
            raise FramingTooLarge(
                f"framing at order {self.order} in {self.n} variables is above "
                f"{MAX_WORK} work units"
            )

    def sum_of_products(self, pairs: list, scale: int = 1) -> MSeries:
        """The sum of a*b over the (a, b) pairs, divided by scale, charged
        one unit per pair of terms and field dimension of each product."""
        self.spend(sum(self.degree * len(a.terms) * len(b.terms) for a, b in pairs))
        return _sum_of_products(pairs, scale)

    def mul(self, a: MSeries, b: MSeries) -> MSeries:
        return self.sum_of_products([(a, b)])

    def inverse(self, a: MSeries) -> MSeries:
        """1 / a, charged as a product of a by a series with every monomial
        of degree <= order in the variables of a."""
        v = sum(1 for i in range(a.nvars) if any(j[i] for j, _ in a.terms))
        self.spend(self.degree * len(a.terms) * comb(a.order + v, v))
        return power_m(a, -1)


def _unit_det(rows: list[list[MSeries]], budget: _Budget) -> MSeries:
    """Determinant by elimination, overwriting rows, each product charged to
    budget.  Every pivot must have constant term 1, as when the diagonal has
    constant term 1 and the rest 0."""
    det = None
    for c, pivot in enumerate(rows):
        det = pivot[c] if det is None else budget.mul(det, pivot[c])
        below = [r for r in rows[c + 1:] if r[c].terms]
        inv = budget.inverse(pivot[c]) if below else None
        for r in below:
            f = budget.mul(r[c], inv)
            for j in range(c + 1, len(rows)):
                r[j] = r[j] - budget.mul(f, pivot[j])
    return det
