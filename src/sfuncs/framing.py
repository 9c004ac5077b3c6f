"""Framing transformations of s-function data.

frame_multi frames a series in n variables by a symmetric integer matrix
kappa: y_i = z_i / phi_i(z), phi_i = sigma_i exp(u_i), u = kappa delta W,
sigma_i = (-1)**kappa_ii, and B = W - 1/2 sum_jk kappa_jk delta_j W delta_k W
is rewritten in y.  With S_jk = delta_j delta_k W, EW = sum_i delta_i W, 1
the all-ones vector and e = exp(<kappa k, delta W>), one formula gives the
output coefficients at every n, with nothing inverted or composed:

    c_k = sigma**k / |k|**2 [z**k] D e,  D = (S 1)^T adj(J) 1,  J = I - kappa S.

1. J = d log y / d log z.  As kappa is symmetric, delta_z B = J^T delta W,
   so delta_(y,i) B = delta_i W and |k| c_k = [y**k] EW(z(y)).
2. Lagrange-Good inversion (Good 1960): [y**k] G = sigma**k [z**k] G det(J) e.
3. The cofactors of a Jacobian satisfy sum_j delta_j cof(J)_pj = 0 (Piola),
   and delta_j e = e (k - J^T k)_j, so [z**k] delta_j H = k_j [z**k] H gives
   k_p [z**k] G det(J) e = [z**k] e sum_j delta_j G cof(J)_pj.  Summed over
   p with G = EW, delta_j EW = (S 1)_j: |k|**2 c_k = sigma**k [z**k] D e.
4. D = -det [[J, 1], [(S 1)^T, 0]].  Subtracting row i0 from the others
   and expanding along the last column gives D = det M: M has the rows
   J_i - J_i0, i != i0, then (delta_j EW)_j, with the column i0 last.

Framings compose additively in kappa.  frame_multi is the one framing engine:

* frame_f(w, f) is its 1x1 case kappa = (f), M = (delta**2 W): it returns
  W - (f/2) (delta W)**2 in z_f = z (-Y)**f, Y = exp(-delta W), so
  c_k = sigma**k / k**2 [z**k] delta**2 W exp(k f delta W); f = 0 is the
  identity.
* The elementary framing, in zt = -z * Y, is -frame_f(., 1), with output
  coefficients atil_k / k**2, atil_k = (-1)**(k-1) * [z**k] Y**(-k).
  frame_elementary(w, via_reversion=True) reaches the same series by full
  reversion of zt followed by W~ = dint(-log Y~), an independent path; both
  must agree exactly.

frame_multi reads W once, as the rows g |j| W_j, g = gcd(j), listed by the
positions of one index per call (_Index).  For a 2-function, the class the paper
frames, these are integral, and so is the exp table: frame_multi walks it on
integer coordinates with one exact division per entry.  Exactness does not rest
on this: where a division leaves a remainder, the walk goes on on rational rows.
"""
from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, partial, reduce
from itertools import chain, repeat
from math import comb, factorial, gcd, isqrt, lcm, perm
from operator import add, itemgetter, mul

from .errors import BadConstantTerm, DimensionMismatch, NotSymmetric, _refuse_above
from .intutil import _int
from .mseries import MSeries, _sum_of_products, power_m
from .numfield import FieldElem, _Frozen, _normalize, _sum_rows
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


class Kappa(_Frozen):
    """Symmetric integer framing matrix.  An entry that is not an int, a
    float or a bool included, raises TypeError: nothing is truncated."""

    entries: tuple[tuple[int, ...], ...]

    def __init__(self, entries: tuple[tuple[int, ...], ...]) -> None:
        n = len(entries)
        rows = tuple(tuple(row) for row in entries)
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
        super().__init__(rows)

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
        """Rows separated by ';', entries by ',', each read by intutil._int as
        an integer of a file is.  '1,0;0,1' is diag(1,1)."""
        return cls(tuple(tuple(_int(c) for c in row.split(",")) for row in text.split(";")))


def _require_no_constant(w) -> None:
    const = w.const if isinstance(w, Series) else w.constant_term
    if not const.is_zero():
        raise BadConstantTerm("framing input must have zero constant term")


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

    This is frame_multi with the 1x1 matrix kappa = (f), sigma = (-1)**f
    and c_k = sigma**k / k**2 [z**k] delta**2 W exp(k f delta W) (see the
    module docstring), for a 2-function and a small f every k at once.  A W
    with a term at every degree is refused with TooLarge above order 225
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
# pair (m <= k) of the walk costs 10 units, a term of W probed for it 4, and,
# with two or more live variables, a pair of terms in a series product while
# D is built 1; the weights and the cap come from timings (see frame_multi).
MAX_WORK = 8_000_000

# Most degree * order**2 * floor(log2 max|kappa_ij|) for a frame_multi walk: an
# entry at |m| gains |m| log2|kappa| bits, and time grows as its square.
MAX_KAPPA_BITS = 1_500_000

# Over Q, frame_multi walks on integers over one fixed denominator when
# order * log2(Dw) is below this many bits (see its docstring).
_FIXED_BITS = 2000

# Over a field of degree >= 2 the integral walk (and _powers) multiplies a packed
# entry by one integer dot * _pack(a) and reduces with one % at slot widths up to
# this many bits, else by the coordinates dot * a_i, shifted by i slots, and in
# linear steps first (a measured crossover; see the README).
_PADDED_BITS = 256


def frame_multi(w: MSeries, kappa: Kappa) -> MSeries:
    """Framing of a multivariate series by a symmetric integer matrix kappa.

    With sigma, S, J, D and e as in the module docstring, the output
    coefficients, 0 < |k| <= order, are

        c_k = sigma**k / |k|**2 [z**k] D exp(<kappa k, delta W>),  D = det M.

    A z_i absent from W has delta_i W = 0, so D and the exp do not involve
    it and k_i = 0: k ranges over the simplex 0 < |k| <= order in the n
    variables that appear in W only, and J and M are taken over them.  With
    i0 the first of these, the entries of M, (J_i - J_i0)_j = [i = j] -
    [i0 = j] - sum_m m_j ((kappa m)_i - (kappa m)_i0) W_m z**m and
    delta_j EW = sum_m |m| m_j W_m z**m, are built from the terms of W on
    integer coordinates.  So with one variable M = (delta**2 W), its only
    entry, costs no product, with two D = ad - bc costs two and no inverse
    (_unit_det); a W with no term is its own framing.
    For each k the exp runs on the box {m <= k} (_exp_table).  W is read
    once, as the rows a_j = g |j| W_j, g = gcd(j), over their reduced
    denominators, whose lcm is Dw, with the weight rows kappa j/g, as
    <k, kappa j> |j| W_j = <k, kappa j/g> a_j, sorted by (|j|, j).  One index
    (_Index) numbers the simplex |m| <= order so that m - j comes before m,
    and lists per position m the positions m - j of W's terms j <= m, per key
    k those of D's (over their lcm dd), built once from the side of the terms:
    no tuple key in the walk.  The weights <k, kappa j/g> come from one column
    table.  c_k sums D_j E_(k - j) over that one list: one _normalized per k.

    The exp table has three representations; only the sum per m and the
    output sum differ between them:

    * rows: E_m is a normalized numfield._sum_rows result, with one lcm of
      the row denominators, one division per row and one gcd per entry.
    * fixed denominator, over Q: with A_j = Dw a_j, the walk keeps the
      integers N_m = |m|! Dw**|m| E_m, and reads
      N_m = sum_j <k, kappa j/g> A_j (|m|-1)!/(|m|-|j|)! Dw**(|j|-1) N_(m-j):
      integer multipliers, with no lcm, division or gcd in the walk.  c_k is
      one integer over dd |k|! Dw**|k|, with one gcd.  The falling
      factorials are folded into the index's terms, once per call.
    * integral, when Dw = 1: for a 2-function g**2 W_j, so a_j, is integral
      (away from bad primes), and the entries of
      E = prod_i Y_i**(-(kappa k)_i), Y_i = exp(-delta_i W), are integral
      by Dwork's lemma.  E_m is kept on integer coordinates, with one exact
      division by |m| and no lcm, gcd or normalization.  Over Q the sum per m
      is one integer sum.  Over a field of degree d >= 2 E_m and the sum per m
      are integers E_m(2**b) and S(2**b), in signed slots of b bits (Kronecker
      substitution).  As S = Q P + R over Z, P monic, S(2**b) mod P(2**b),
      balanced, is R(2**b): the folded coordinates (_reduce).  A divmod by |m|
      and a mask pass the quotient if its slots v_i lie in [-2**t, 2**t);
      balanced digits are unique, so |m| then divided every coordinate
      (_quotient).  Else the d slots are read: a remainder, or an entry that
      doubles b (TooLarge past 2 (|k| + 1) _walk_head bits, which a
      correct walk never needs) and repacks the table.  The slots keep
      b - t = _walk_head bits: _head, bits(1 + rho) for the fold and
      bits(|k|) + 1 for |m| v_i.
      Up to b = _PADDED_BITS a term is one product dot * _pack(a) * E, above
      it d products dot * a_i * E shifted by i slots, as is the output sum, D
      rows times entries, reduced at a width that holds it.  A nonzero
      remainder means that the table of this k is not integral (a bad prime, a
      W that is not a 2-function, or Z[alpha] != O_K): the walk of that k goes
      on from there on rows, in the same walk, from the entries before it.

    The path is chosen once per call from the field degree, Dw and the
    order, with no walk for no term in the exp: integral when Dw = 1, over
    every field; else fixed when the degree is 1 and order * log2(Dw) is
    below _FIXED_BITS = 2000, as past it the fixed integers, which carry
    Dw**|m|, outgrow the reduced rows; else rows.  Each key is walked once:
    the failing key continues on rows from its remainder.  Over Q, once a
    key's first remainder, at degree m_r, left most of its degrees on rows
    (2 m_r <= |k|), the rest of the call walks fixed, which needs no integral
    table (W = z1 + z2, W_k = 1/k); after a later one, as in Li2 with c_211
    raised by 1/211**2, the integral walk keeps the next keys.

    One live variable i on the integral path frames every k at once
    (_one_variable): with D = delta**2 W, f = kappa_ii and phi = exp(f delta W),
    delta phi**k = k f D phi**k, so c_k = sigma**k phi**k[k] / (f k**2).  phi is
    walked once, with the weights of k = 1; the r = ceil(sqrt(order)) baby steps
    phi**i and the giant steps phi**(r j) are truncated products of packed
    entries (_powers), and k = r j + i is one dot product, phi**k[k] =
    sum_l phi**(r j)[l] phi**i[k - l], where the walk per key takes order**3 / 6
    steps.  A remainder in phi (not a 2-function), f = 0, and entries with
    4 degree order (bits(f) + bits(max|a|))**4 >= _FIXED_BITS**2, the measured
    crossover past which big products cost more than the walk (see the
    README), take the walk per key, which reads the same index.

    The work is counted in units (see MAX_WORK and _walk_cost), those of the
    walk per key whatever the path, charged before it starts, and with two or
    more variables each series product while D is built before it is made.
    Past MAX_WORK = 8,000,000 units TooLarge is raised.  On a 2-core x86-64 KVM
    guest with CPython 3.11.7 (CPU time, medians of 3 runs) the dearest input
    under the cap is frame_f of W = z/5 with f = 1 at order 1067, on the rows
    path (1067 log2 5 = 2,477 bits): 22 s (8.0 M units).  Under MAX_KAPPA_BITS
    it is the disc-49 cubic series at order 155 framed with f = 2**20 + 1:
    1.8 s; Li2 with f = 10**1000 at order 120 ran 50 s.  The README lists the
    scaling inputs per path.

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
    if not w.terms:  # no variable: nothing to frame
        return w
    n, field, kap = w.nvars, w.field, kappa.entries
    # delta_i W = 0 for a z_i absent from W, so every key below has k_i = 0
    live = sorted({i for j, _ in w.terms for i, ji in enumerate(j) if ji})
    # <kappa k, j> = <k, kappa j>: a term j of W with kappa j = 0 is in
    # neither J nor the exp
    kterms = [(j, c, kj) for j, c in w.terms
              if any(kj := [sum(map(mul, row, j)) for row in kap])]
    # the one table of W: a_j = g |j| W_j, g = gcd(j), with the weights kappa j / g
    wrows = sorted(((j, sj, *_times(c, g * sj), [x // g for x in kj])
                    for j, c, kj in kterms for sj, g in [(sum(j), gcd(*j))]), key=itemgetter(1, 0))
    kbits = field.degree * w.order**2 * (max(map(abs, sum(kap, ()))).bit_length() - 1)
    _refuse_above(kbits if wrows else 0, MAX_KAPPA_BITS, "MAX_KAPPA_BITS",
                  "framing at order {} with {} kappa bits", w.order, kbits)
    budget = _Budget(field, w.order, len(live))
    budget.spend(_walk_cost(field, w.order, len(live), [t[1] for t in wrows]))
    # the paths (see the docstring), with no walk for no term in the exp;
    # Dw**order < 2**_FIXED_BITS is taken only when it has at most _FIXED_BITS + order bits
    dw = lcm(*(ad for _, _, _, ad, _ in wrows))
    fixed = (bool(wrows) and field.degree == 1 and w.order * (dw.bit_length() - 1) < _FIXED_BITS
             and (dw ** w.order).bit_length() <= _FIXED_BITS)
    path = "integral" if wrows and dw == 1 else "fixed" if fixed else "rows"
    index = _Index(wrows, n, live, w.order)
    if fixed:  # W's rows A_j = Dw a_j for the fixed walk
        index.afix = [a[0] * (dw // ad) * dw ** (sj - 1) for _, sj, a, ad, _ in wrows]
    if path == "integral" and len(live) == 1 and (out := _one_variable(
            field, w.order, live[0], n, kap[live[0]][live[0]], index)) is not None:
        return MSeries(field, n, w.order, tuple(out))  # every k at once
    # D = det M (see the docstring): the rows J_i - J_i0, then (delta_j EW)_j,
    # with the column i0 = live[0] last; the terms come from w, already checked
    cols = live[1:] + live[:1]
    rows = [[_scaled(w, [(j, c, j[q] * (kj[cols[-1]] - kj[i])) for j, c, kj in kterms],
                     (i == q) - (q == cols[-1])) for q in cols] for i in cols[:-1]]
    rows.append([_scaled(w, [(j, c, sum(j) * j[q]) for j, c in w.terms]) for q in cols])
    dterms, deg = [(j, c.nums, c.den) for j, c in _unit_det(rows, budget).terms], field.degree
    dd = lcm(*(den for *_, den in dterms))
    # D's terms j <= k by key k; where E = 1 (every key when no term is in the exp) j = k alone
    dms, dps, dus = index._below([j for j, *_ in dterms]) if wrows else ([], [], [])
    dat = {index.where[sum(map(mul, j, index.strides))]: u for u, (j, *_) in enumerate(dterms)}
    # D over dd; scaled by Dw**|j| for the fixed walk
    dv = [(tuple(x * (dd // den) for x in nums), dd) for _, nums, den in dterms]
    dbits = max((abs(x) for dn, _ in dv for x in dn), default=0).bit_length()
    d1 = [dn[0] for dn, _ in dv]
    if fixed:
        dfix = [(dn[0] * dw ** sum(j), sum(j)) for (dn, _), (j, *_) in zip(dv, dterms)]
    odd = [i for i in range(n) if kappa.sigma(i) < 0]
    # the weights <k, kappa j/g>: k_i times the columns i of the kappa j/g, summed
    wcols, out, hi = [(i, col) for i in live if any(col := [kj[i] for *_, kj in wrows])], [], 0
    for pk, k in enumerate(index.keys[1:], 1):
        maps, sk = [map(k[i].__mul__, col) for i, col in wcols if k[i]], sum(k)
        dots = list(reduce(partial(map, add), maps)) if maps else [0] * len(wrows)
        e, how = _exp_table(field, k, sk, dots, index, path)
        if how != path and fixed and 2 * index.turn <= sk:
            path = "fixed"  # its remainder came by half its degree: the rest of the call walks fixed
        # the pairs D_j E_(k - j) over D's terms j <= k
        lo, hi = hi, bisect_right(dms, pk, hi)
        ps, us = (dps[lo:hi], dus[lo:hi]) if len(e) > 1 else ((0,), (dat[pk],)) if pk in dat else ((), ())
        sign = (-1) ** sum(map(k.__getitem__, odd)) * sk * sk
        if how == "rows":
            c = _sum_rows(field, [(*dv[u], *em, 1) for p, u in zip(ps, us) if (em := e[p])], sign)
        elif how == "fixed":
            c = _normalize((sum(a * perm(sk, sj) * em for p, u in zip(ps, us)
                                if (em := e[p]) for a, sj in [dfix[u]]),),
                           sign * dd * factorial(sk) * dw ** sk)
        elif deg == 1:  # integral: one integer over dd
            c = _normalize((sum(map(mul, map(d1.__getitem__, us), map(e.__getitem__, ps))),), sign * dd)
        else:  # packed: D rows times the entries, at a width bo >= b that holds the sum
            pairs = [(dv[u][0], em) for p, u in zip(ps, us) if (em := e[p])]
            b, t = index.width, max(0, index.width - _walk_head(field, index.abits, dots, sk))
            bo = max(b, t + dbits + (len(pairs) * deg).bit_length() + field._fold_bits + 2)
            pairs = [(dn, _pack(_unpack(em, b, deg), bo)) for dn, em in pairs] if bo > b else pairs
            s = sum(sum([dn[i] * em for dn, em in pairs]) << i * bo for i in range(deg))
            s = _reduce(s, bo, field.minpoly, _pack(field.minpoly, bo))
            c = _normalize(_unpack(s, bo, deg), sign * dd)
        if c and any(c[0]):
            out.append((k, FieldElem._normalized(field, *c)))
    # sorted: _simplex yields the keys in increasing order
    return MSeries(field, n, w.order, tuple(out))


def _one_variable(field, order: int, live: int, n: int, f: int, index: "_Index") -> list | None:
    """frame_multi's output terms for one live variable on the integral path,
    every k at once, or None for the walk per key, which reads the same
    index (see frame_multi)."""
    d, top, r = field.degree, order + 1, isqrt(order - 1) + 1
    # the measured crossover: every k at once loses past 4 d order (bits(f) + bits(a))**4 ~ _FIXED_BITS**2
    if not f or 4 * d * order * (f.bit_length() + index.abits) ** 4 >= _FIXED_BITS ** 2:
        return None
    index.stop = True
    phi, how = _exp_table(field, tuple(top if i == live else 0 for i in range(n)), top,
                          [f] * len(index.wrows), index, "integral")  # phi, m <= order
    index.stop = False
    if how != "integral":
        return None
    h, b = (d * top).bit_length() + field._fold_bits + 3, index.width
    powers = list(_powers(field, phi, b, *_coords(phi, b, d), h, r - 1))
    babies = [([[0] * order + [1]] + [[0] * top] * (d - 1), 1)] + [_coords(*p, d) for p in powers[:-1]]
    (g, bg), tb = powers[-1], max(t for _, t in babies)
    ys, t = _coords(g, bg, d)
    giants = [([1] + [0] * order, tb + h + 1)] + list(_powers(field, g, bg, ys, max(t, tb), h, order // r - 1))
    out = []
    for k in range(1, top):  # k = r j + i: phi**k[k] = sum_l phi**(r j)[l] phi**i[k - l]
        (g, bg), (ys, _) = giants[k // r], babies[k % r]
        s = _reduce(_dot(g, ys, bg, k), bg, field.minpoly, _pack(field.minpoly, bg))
        if any((c := _normalize(_unpack(s, bg, d), (-1) ** (f * k % 2) * k * k * f))[0]):
            out.append((index.keys[k], FieldElem._normalized(field, *c)))
    return out


def _powers(field, x: list, b: int, ys: list, ty: int, h: int, count: int):
    """x * y**s, s = 0..count, truncated, each at a slot width b (doubled where needed)
    that keeps it below 2**(b - ty - h): x packed at b, y by its reversed coordinate
    lists ys, both below 2**ty."""
    d = field.degree
    while b < 2 * ty + h:
        x, b = [_pack(_unpack(q, b, d), 2 * b) for q in x], 2 * b
    yield x, b
    for s in range(count):
        if not s or yb != b:  # y packed at b: one product per term up to _PADDED_BITS
            (modulus, bias, keep), y, yb = _slots(field, b, b - ty - h), [_pack(c, b) for c in zip(*ys)], b
        x = [_reduce(sum(map(mul, x, y[-1 - m:])) if b <= _PADDED_BITS else _dot(x, ys, b, m),
                     b, field.minpoly, modulus) for m in range(len(x))]
        if any((q + bias) & keep for q in x):
            x, b = [_pack(_unpack(q, b, d), 2 * b) for q in x], 2 * b
        yield x, b


def _dot(x: list, ys: list, b: int, m: int) -> int:
    """[z**m] x y, unreduced: x packed at width b, y by its reversed coordinate lists ys."""
    return sum(sum(map(mul, x, y[len(y) - 1 - m:])) << a * b for a, y in enumerate(ys))


def _coords(x: list, b: int, d: int) -> tuple[list, int]:
    """The d coordinate lists of a series packed at width b, each reversed, and their bits."""
    ys = [list(c)[::-1] for c in zip(*(_unpack(q, b, d) for q in x))]
    return ys, max(map(abs, chain(*ys))).bit_length()


def _exp_table(field, k: tuple, sk: int, dots: list, below: "_Index", path: str):
    """frame_multi's exp table of the key k, E_m by the position m of below
    on the box {m <= k} (0 where E_m = 0; E_0 alone where E = 1), with the
    weights dots of the terms in below, and the path it ended on.  The
    entries are rows or, on the fixed and integral paths, ints: over a field
    of degree >= 2 each packed at the slot width below.width (see
    frame_multi).  These two share the integer sum per m; the integral walk
    divides it by |m|.  At the first remainder, at m, the integral walk ends
    there with below.stop, returning the entries before m, else turns the
    entries before m into rows over 1 and goes on from m on rows: it ends on
    "rows", with |m| in below.turn."""
    d, rows, integral, b = field.degree, path == "rows", path == "integral", below.width
    deg, ps, ts, ra, one = below.deg, below.ps, below.ts, below.ra, ((1,) + (0,) * (d - 1), 1) if rows else 1
    # the terms j <= k: those of k's position, or every term past the simplex (phi's key)
    pk = below.where.get(sum(map(mul, k, below.strides)))
    if not any(map(dots.__getitem__, range(len(dots)) if pk is None else ts[pk])):
        return [one], path  # E = 1
    box = below.box(k, sk)
    e = [one] + [0] * (box[-1] if box else 0)
    if integral and d == 1:
        mults = list(map(mul, dots, below.a0))
    elif integral:
        head = _walk_head(field, below.abits, dots, sk)
        while b <= head:
            b *= 2
        mults, slots = below.multipliers(dots, b), _slots(field, b, b - head)
    elif not rows:  # fixed: one integer sum per m, no division
        getd, gete, fixed = dots.__getitem__, e.__getitem__, below.fixed
        for m in box:
            e[m] = sum(map(mul, map(mul, map(getd, ts[m]), fixed[m]), map(gete, ps[m])))
        return e, path
    gete, getx = e.__getitem__, integral and mults.__getitem__
    for m in box:
        sm, pm, tm = deg[m], ps[m], ts[m]
        if integral and d == 1:
            c, r = divmod(sum(map(mul, map(getx, tm), map(gete, pm))), sm)
            if not r:
                e[m] = c
                continue
        elif integral:
            if b <= _PADDED_BITS:
                s = sum(map(mul, map(getx, tm), map(gete, pm)))
            else:
                pairs = [(x, prev) for q, t in zip(pm, tm) if (x := mults[t]) and (prev := e[q])]
                s = sum(sum([x[i] * q for x, q in pairs]) << i * b for i in range(d))
            q = _quotient(f := _reduce(s, b, field.minpoly, slots[0]), sm, *slots[1:])
            if q is None and not any(x % sm for x in _unpack(f, b, d)):  # no remainder: widen
                c, b0 = [x // sm for x in _unpack(f, b, d)], b  # f's slots: the folded coordinates
                while max(map(abs, c)).bit_length() > b - head:
                    # a correct walk keeps E_m within B**|m| < 2**(|m| head) in every coordinate,
                    # B = (1 + rho) d sum_t |dot_t| max|a_t| (see _head): so b < 2 (|k| + 1) head
                    _refuse_above(b := 2 * b, 2 * (sk + 1) * head, "2 (|k| + 1) _walk_head",
                                  "an exp table slot of {} bits at |m| = {}", b, sm)
                e = [x and _pack(_unpack(x, b0, d), b) for x in e]  # the entries before m
                mults, slots, q = below.multipliers(dots, b), _slots(field, b, b - head), _pack(c, b)
                gete, getx = e.__getitem__, mults.__getitem__
            if q is not None:
                e[m] = q
                continue
        if integral and below.stop:
            return e[:m], "rows"
        if integral:  # the first remainder: the entries before m as rows over 1, then m on rows
            e = [x and (_unpack(x, b, d) if d > 1 else (x,), 1) for x in e]
            rows, integral, below.turn = True, False, sm
        c = _sum_rows(field, [(*ra[t], *prev, dot) for q, t in zip(pm, tm)
                              if (dot := dots[t]) and (prev := e[q])], sm)
        if c and any(c[0]):
            e[m] = c
    below.width = b
    return e, "rows" if rows else path


def _head(abits: int, dots: list, d: int) -> int:
    """The bits a packed slot keeps above the entries of the exp table.  Slot
    s of the sum per m, sum_t dot_t sum_(i+l=s) a_ti E_l over the T terms
    with dot_t != 0, has |slot| < T max|dot| d 2**abits 2**ebits when every
    |a_ti| < 2**abits and |E_l| <= 2**ebits.  With T < 2**bits(T) and
    max|dot| d < 2**bits(max|dot| d), a slot of ebits + _head bits holds it
    with its sign, one bit to spare; _walk_head adds bits(1 + rho) + bits(|k|) + 1."""
    return abits + (max(map(abs, dots)) * d).bit_length() + sum(map(bool, dots)).bit_length() + 2


def _walk_head(field, abits: int, dots: list, sk: int) -> int:
    return _head(abits, dots, field.degree) + field._fold_bits + sk.bit_length() + 1


def _slots(field, b: int, t: int) -> tuple[int, int, int]:
    """P(2**b), B_t (2**t in each of d slots of b bits), ~K_t (K_t: their low t + 1 bits)."""
    d = field.degree
    return _pack(field.minpoly, b), _pack([1 << t] * d, b), ~_pack([(2 << t) - 1] * d, b)


def _reduce(s: int, b: int, minpoly: tuple, modulus: int) -> int:
    """s mod P(2**b) = modulus, balanced (see frame_multi); above _PADDED_BITS in linear steps."""
    while b > _PADDED_BITS and not -1 <= (hi := s >> (len(minpoly) - 1) * b) <= 0:
        s -= sum(p * hi << i * b for i, p in enumerate(minpoly) if p)
    f = s % modulus
    return f - modulus if f > modulus >> 1 else f


def _quotient(f: int, sm: int, bias: int, keep: int) -> int | None:
    """f / sm if sm | f and its d slots lie in [-2**t, 2**t), else None (see frame_multi)."""
    q, r = divmod(f, sm)
    return None if r or (q + bias) & keep else q


def _pack(c, b: int) -> int:
    """The coordinates c as one integer sum_i c_i 2**(i b), in signed slots of b bits."""
    return sum(x << i * b for i, x in enumerate(c))


def _unpack(s: int, b: int, n: int) -> list:
    """The n signed slots c_i of s = sum_i c_i 2**(i b), |c_i| < 2**(b - 1)."""
    out, half, mask = [], 1 << (b - 1), (1 << b) - 1
    for _ in range(n - 1):
        out.append(x := ((s + half) & mask) - half)  # a negative slot borrows from the next
        s = (s - x) >> b
    return out + [s]


class _Index:
    """The positions of one frame_multi call: the keys m of the simplex |m| <= order
    of the live variables, m = 0 first, in the order of _simplex, so that m - j
    comes before m.  Per position m, ps[m] and ts[m] list the positions m - j and
    the terms t = (j, |j|, a, a_den, _) of wrows with j <= m, built from the side
    of the terms (_below; frame_multi lists D's terms per key the same way).  A
    key's box {m <= k} is a run of positions per value of its live coordinates
    but the last.  On the fixed path each A_t is listed times (|m| - 1)! /
    (|m| - |j|)! (fixed).  No walk builds a key m - j or probes a term not below m.

    It also keeps what the walks of one call share: the widest slot width a
    packed table reached (width), the rows a packed at each width (packs) and the
    degree of the last first remainder of an integral walk (turn), where stop ends it."""

    def __init__(self, wrows: list, n: int, live: list, order: int) -> None:
        self.wrows, self.width, self.packs, self.turn, self.stop = wrows, 64, {}, 0, False
        self.live, self.order, self.a0 = live, order, [a[0] for _, _, a, _, _ in wrows]
        self.ra = [(a, ad) for _, _, a, ad, _ in wrows]  # the rows path's (a, a_den)
        self.strides = [(order + 1) ** live.index(i) if i in live else 0 for i in range(n)]
        self.keys = [(0,) * n, *_simplex(n, live, order)]
        self.deg, self.grid = list(map(sum, self.keys)), [sum(map(mul, m, self.strides)) for m in self.keys]
        self.where = {g: p for p, g in enumerate(self.grid)}
        self.low = sorted(range(len(self.keys)), key=self.deg.__getitem__)
        ms, rs, ts = self._below([j for j, *_ in wrows])
        self.ps, self.ts, lo = [()] * len(self.keys), [()] * len(self.keys), 0
        while lo < len(ms):
            hi = bisect_right(ms, m := ms[lo], lo)
            self.ps[m], self.ts[m], lo = rs[lo:hi], ts[lo:hi], hi

    def _below(self, js: list) -> list:
        """The lists (m, position of m - j, index of j) over the js and positions m
        with j <= m, sorted by m: each j with every r, |r| <= order - |j|."""
        ms, rs, ts, nl = [], [], [], len(self.live)
        for t, j in enumerate(js):
            rs += (r := self.low[:comb(self.order - sum(j) + nl, nl)])
            ms += map(self.where.__getitem__, map(sum(map(mul, j, self.strides)).__add__,
                                                  map(self.grid.__getitem__, r)))
            ts += repeat(t, len(r))
        at = sorted(range(len(ms)), key=ms.__getitem__)
        return [list(map(x.__getitem__, at)) for x in (ms, rs, ts)]

    def box(self, k: tuple, sk: int) -> list:
        """The positions of m <= k with 0 < |m| < sk, in increasing order: a run
        for each grid g and degree s of the live coordinates but the last."""
        *head, last = self.live
        top, out, pre = sk - 1, [], [(0, 0)]
        for i in (i for i in head if k[i]):
            pre = [(g + x * self.strides[i], s + x) for g, s in pre for x in range(min(k[i], top - s) + 1)]
        for g, s in pre:
            p = self.where[g]
            out += range(p + (not s), p + min(k[last], top - s) + 1)
        return out

    @cached_property
    def abits(self) -> int:
        """The bit size of the largest coordinate of the integer rows a."""
        return max(abs(x) for _, _, a, _, _ in self.wrows for x in a).bit_length()

    @cached_property
    def fixed(self) -> list:
        """Per position m, A_t (|m| - 1)! / (|m| - |j|)! for its terms t, A = afix (set by frame_multi)."""
        return [[self.afix[t] * perm(sm - 1, self.wrows[t][1] - 1) for t in ts] for sm, ts in zip(self.deg, self.ts)]

    def multipliers(self, dots: list, b: int) -> list:
        """Per term, what the packed sum of the integral walk multiplies an
        entry by: at slot width b <= _PADDED_BITS the integer dot * _pack(a, b),
        above it the coordinates dot * a_i; 0 where dot = 0."""
        if b > _PADDED_BITS:
            return [dot and [dot * x for x in a] for dot, (_, _, a, _, _) in zip(dots, self.wrows)]
        if b not in self.packs:
            self.packs[b] = [_pack(a, b) for _, _, a, _, _ in self.wrows]
        return [dot and dot * x for dot, x in zip(dots, self.packs[b])]


def _times(c: FieldElem, x: int) -> tuple[tuple[int, ...], int]:
    """x c, x a nonzero int, as a normalized row and denominator: one gcd."""
    g = gcd(x, c.den)
    return tuple(a * (x // g) for a in c.nums), c.den // g


def _scaled(w: MSeries, triples: list, const: int = 0) -> MSeries:
    """const + sum x c z**j over the triples (j, c, x), with c z**j the terms
    of w in its order and x ints: one gcd per term, no field product."""
    terms = [(j, FieldElem._normalized(w.field, *_times(c, x))) for j, c, x in triples if x]
    if const:  # the constant key sorts first
        terms.insert(0, ((0,) * w.nvars, w.field.one() * const))
    return MSeries(w.field, w.nvars, w.order, tuple(terms))


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
    TooLarge."""

    def __init__(self, field, order: int, n: int) -> None:
        self.left, self.degree, self.order, self.n = MAX_WORK, field.degree, order, n

    def spend(self, units: int) -> None:
        self.left -= units
        _refuse_above(MAX_WORK - self.left, MAX_WORK, "MAX_WORK",
                      "framing at order {} in {} variables", self.order, self.n)

    def sum_of_products(self, pairs: list) -> MSeries:
        """The sum of a*b over the (a, b) pairs, charged one unit per pair of
        terms and field dimension of each product."""
        self.spend(sum(self.degree * len(a.terms) * len(b.terms) for a, b in pairs))
        return _sum_of_products(pairs)

    def mul(self, a: MSeries, b: MSeries) -> MSeries:
        return self.sum_of_products([(a, b)])

    def inverse(self, a: MSeries) -> MSeries:
        """1 / a, charged as a product of a by a series with every monomial
        of degree <= order in the variables of a."""
        v = sum(1 for i in range(a.nvars) if any(j[i] for j, _ in a.terms))
        self.spend(self.degree * len(a.terms) * comb(a.order + v, v))
        return power_m(a, -1)


def _unit_det(rows: list[list[MSeries]], budget: _Budget) -> MSeries:
    """Determinant by elimination down to the last two rows, cross-multiplied
    (ad - bc), overwriting rows, each product charged to budget; one row
    is its one entry.  The pivots, in the rows before the last two, must
    have constant term 1 (see frame_multi)."""
    det = None
    for c, pivot in enumerate(rows[:-2]):
        det = pivot[c] if det is None else budget.mul(det, pivot[c])
        below = [r for r in rows[c + 1:] if r[c].terms]
        inv = budget.inverse(pivot[c]) if below else None
        for r in below:
            f = budget.mul(r[c], inv)
            for j in range(c + 1, len(rows)):
                r[j] = r[j] - budget.mul(f, pivot[j])
    if len(rows) > 1:
        (a, b), (c, d) = rows[-2][-2:], rows[-1][-2:]
        rows[-1][-1] = budget.sum_of_products([(a, d), (-b, c)])
    return rows[-1][-1] if det is None else budget.mul(det, rows[-1][-1])
