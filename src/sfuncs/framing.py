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

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from operator import le, mul, sub

from .errors import ConstantTermNonzero, DimensionMismatch, NotSymmetric
from .mseries import MSeries, delta_i, power_m
from .numfield import FieldElem, NumberField, _sum_products
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
    """Symmetric integer framing matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        rows = tuple(tuple(int(c) for c in row) for row in self.entries)
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
    c_k = sigma**k [z**k] B (1 - f delta**2 W) exp(k f delta W).

    >>> from sfuncs.catalog import polylog
    >>> w = polylog(2, 6)
    >>> frame_f(w, 1) == -frame_elementary(w, via_reversion=True)
    True
    >>> [frame_f(w, 1).coeff(k) * k * k for k in range(1, 7)]
    [-1, 3, -10, 35, -126, 462]
    """
    return frame_multi(MSeries.from_univariate(w), Kappa(((f,),))).to_univariate()


def frame_multi(w: MSeries, kappa: Kappa) -> MSeries:
    """Framing of a multivariate series by a symmetric integer matrix kappa.

    With y, sigma, B and S as in the module docstring, Lagrange-Good inversion
    gives the output coefficients, 0 < |k| <= order, as

        c_k = sigma**k [z**k] D exp(<kappa k, delta W>),  D = B det(I - kappa S).

    D is built once.  A z_i absent from W has delta_i W = 0, so D and the exp
    do not involve it and k_i = 0: k, and the box {m <= k} on which the exp
    runs for each k, range over the variables that appear in W only.

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
    dw = [delta_i(w, i) for i in range(n)]
    body, s = w, {}
    for j in range(n):
        for k in range(j, n):
            if kap[j][k]:
                body = body - dw[j] * dw[k] * Fraction(kap[j][k], 1 if j < k else 2)
            s[j, k] = s[k, j] = delta_i(dw[k], j)
    one = MSeries.from_dict(field, n, w.order, {(0,) * n: 1})
    d = body * _unit_det([
        [sum((s[p, j] * -kap[i][p] for p in range(n) if kap[i][p]), one * int(i == j))
         for j in range(n)]
        for i in range(n)
    ])
    # <kappa k, j> = <k, kappa j>: keep |j| W_j and the vector kappa j per term
    wterms = [
        (j, c * sum(j), [sum(map(mul, row, j)) for row in kap]) for j, c in w.terms
    ]
    # delta_i W = 0 for a z_i absent from W, so every key below has k_i = 0
    live = {i for j, _ in w.terms for i, ji in enumerate(j) if ji}
    out = {}
    for k in product(*(range(w.order + 1) if i in live else (0,) for i in range(n))):
        if not 0 < sum(k) <= w.order:
            continue
        ts = [(j, a * dot) for j, a, kj in wterms
              if all(map(le, j, k)) and (dot := sum(map(mul, k, kj)))]
        # |m| E_m = sum_j |j| <kappa k, j> W_j E_(m-j) on the box below k
        e = {(0,) * n: field.one()}
        for m in product(*(range(ki + 1) for ki in k)):
            if 0 < sum(m) < sum(k) and (c := _convolve_at(field, e, ts, m, sum(m))):
                e[m] = c
        sign = (-1) ** sum(ki for i, ki in enumerate(k) if kappa.sigma(i) < 0)
        if c := _convolve_at(field, e, d.terms, k, sign):
            out[k] = c
    return MSeries.from_dict(field, n, w.order, out)


def _unit_det(rows: list[list[MSeries]]) -> MSeries:
    """Determinant by elimination, overwriting rows.  Every pivot must have
    constant term 1, as when the diagonal has constant term 1 and the rest 0."""
    det = None
    for c, pivot in enumerate(rows):
        det = pivot[c] if det is None else det * pivot[c]
        inv = power_m(pivot[c], -1) if c + 1 < len(rows) else None
        for r in rows[c + 1:]:
            f = r[c] * inv
            for j in range(c + 1, len(rows)):
                r[j] = r[j] - f * pivot[j]
    return det


def _convolve_at(
    field: NumberField, e: dict, terms, k: tuple, scale: int
) -> FieldElem | None:
    """sum c * e[k - j] over the pairs (j, c) of terms, divided by scale;
    None when no k - j is a key of e."""
    pairs = []
    for j, c in terms:
        prev = e.get(tuple(map(sub, k, j)))
        if prev is not None:
            pairs.append((c, prev))
    return _sum_products(field, pairs, scale)
