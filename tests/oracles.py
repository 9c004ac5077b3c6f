"""Slow reference paths that the fast paths in ``src/sfuncs`` are checked against.

Each function here computes, by an older and independent route, an object the
package computes faster: framings by inverting the coordinate map and
substituting into the body or by the Lagrange-Good determinant
B det(I - kappa S), the framed-polylog column through the framing
engine, Series sums and products coefficient by coefficient on dense
lists, exp/log/inverse by sums of powers, reversion by fixed-point
iteration, one congruence on Fraction coordinates read mod p**n, with
Frobenius as the coordinate polynomial evaluated at the lift, the congruence
check in one and in several variables by a dense scan of every index, the
resultant as the
determinant of the Sylvester matrix, a sum of field products on Fraction
coordinates, each reduced mod P by long division, the multivariate
series product as a dict convolution of such sums, the series
-sum_d log(1 - b_d z**d), which dwork_factor takes apart, as -log of the
product of its factors, factoring by trial division to 2**20 and Floyd's
rho, a valuation by one division per unit, an exact linear solve on
Fractions for each right-hand side, the Frobenius lift over Phi_n and Psi_n
as the Galois automorphism sigma_p in closed form, reading and writing a stored
element and building a scalar element through one Fraction per coordinate, and
rebuilding an element through the checked FieldElem constructor.  None of this
is part of the package; tests import it as ``from oracles import ...``.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence

from sfuncs.catalog import polylog
from sfuncs.errors import (
    BadConstantTerm,
    DimensionMismatch,
    FieldMismatch,
    SfuncError,
)
from sfuncs.framing import frame_f
from sfuncs.intutil import _int_to_str, is_prime, prime_factors
from sfuncs.mseries import MSeries, delta_i, exp_m, power_m
from sfuncs.numfield import FieldElem, NumberField, denominator_support, invert
from sfuncs.padic import frobenius_lift, valuation
from sfuncs.serialize import BadFile
from sfuncs.series import Series, compose, delta, exp_series, log_series, revert, shift_up
from sfuncs.sfunc import Check, SReport


class BadLinearPart(SfuncError):
    """Coordinate map component i must be (+-1) * z_i * (unit series)."""


# --- substitution and coordinate-map inversion in several variables


def substitute(v: MSeries, args: Sequence[MSeries]) -> MSeries:
    """v evaluated at z_i = args[i]; every argument needs zero constant term."""
    if len(args) != v.nvars:
        raise DimensionMismatch(
            f"need {v.nvars} substitution arguments, got {len(args)}"
        )
    order = v.order
    for arg in args:
        if arg.field != v.field:
            raise FieldMismatch("series over different fields")
        if not arg.constant_term.is_zero():
            raise BadConstantTerm("substitution argument has a constant term")
        order = min(order, arg.order)
    nvars_out = args[0].nvars
    # powers of each argument, up to the largest exponent that appears
    maxexp = [max((k[i] for k, _ in v.terms), default=0) for i in range(v.nvars)]
    one = MSeries.from_dict(v.field, nvars_out, order, {(0,) * nvars_out: 1})
    pows = []
    for i, arg in enumerate(args):
        row = [one]
        for _ in range(maxexp[i]):
            row.append(row[-1] * arg)
        pows.append(row)
    acc = MSeries.zero(v.field, nvars_out, order)
    for k, c in v.terms:
        if sum(k) > order:
            continue
        term = None
        for i, e in enumerate(k):
            if e:
                term = pows[i][e] if term is None else term * pows[i][e]
        acc = acc + (c if term is None else term * c)
    return acc


def mul_monomial(v: MSeries, expvec: Sequence[int], scalar=1) -> MSeries:
    """v * scalar * z**expvec, truncated to v's order."""
    c = scalar if isinstance(scalar, FieldElem) else v.field.elem(scalar)
    acc = {}
    for k, val in v.terms:
        key = tuple(a + int(b) for a, b in zip(k, expvec))
        if sum(key) <= v.order:
            acc[key] = val * c
    return MSeries.from_dict(v.field, v.nvars, v.order, acc)


def invert_map(maps: Sequence[MSeries]) -> tuple[MSeries, ...]:
    """Inverse of the coordinate change z -> (maps_i(z)).

    Each component must be sigma_i * z_i * (series with constant term 1),
    sigma_i = +-1.  The inverse is found by the graded fixed point
    G_i = sigma_i * y_i / u_i(G), which gains one exact total degree per pass.
    """
    n = len(maps)
    if n == 0:
        raise DimensionMismatch("empty coordinate map")
    field = maps[0].field
    order = min(m.order for m in maps)
    one = field.one()
    units: list[tuple[int, tuple[int, ...], MSeries]] = []
    for i, comp in enumerate(maps):
        if comp.nvars != n:
            raise DimensionMismatch(
                f"component {i} is in {comp.nvars} variables, expected {n}"
            )
        ei = tuple(1 if j == i else 0 for j in range(n))
        lin = comp.as_dict.get(ei)
        if lin is None or (lin != one and lin != -one):
            raise BadLinearPart(f"component {i} must have coefficient +-1 at z_{i}")
        sigma = 1 if lin == one else -1
        shifted = {}
        for k, c in comp.terms:
            if k[i] < 1:
                raise BadLinearPart(
                    f"component {i} contains a term not divisible by z_{i}"
                )
            shifted[tuple(a - b for a, b in zip(k, ei))] = c * sigma
        units.append((sigma, ei, MSeries.from_dict(field, n, order, shifted)))
    g = [MSeries.var(field, n, order, i) * units[i][0] for i in range(n)]
    # pass at working order w trusts degrees < w, so early passes stay small
    for w in range(2, order + 1):
        gw = [MSeries.from_dict(field, n, w, dict(c.as_dict)) for c in g]
        g = [
            mul_monomial(power_m(substitute(u, gw), -1), ei, sigma)
            for sigma, ei, u in units
        ]
    return tuple(g)


# --- framings by inversion and substitution


def frame_f_by_reversion(w: Series, f: int) -> Series:
    """frame_f(w, f): revert z_f = z (-Y)**f, substitute into W - (f/2)(delta W)**2."""
    y = exp_series(-delta(w))
    minus_y_f = -(y**f) if f % 2 else y**f  # (-Y)**f; power() wants constant 1
    back = revert(shift_up(minus_y_f))
    dw = delta(w)
    return compose(w - dw * dw * Fraction(f, 2), back)


def frame_multi_by_inversion(w: MSeries, kappa) -> MSeries:
    """frame_multi(w, kappa): build the coordinate map, invert it, substitute."""
    n = w.nvars
    d = [delta_i(w, i) for i in range(n)]
    comps = []
    for i in range(n):
        expo = MSeries.zero(w.field, n, w.order)
        for k in range(n):
            if kappa.entries[i][k]:
                expo = expo + d[k] * (-kappa.entries[i][k])
        ei = tuple(1 if j == i else 0 for j in range(n))
        comps.append(mul_monomial(exp_m(expo), ei, kappa.sigma(i)))
    back = invert_map(comps)
    body = w
    for j in range(n):
        for k in range(n):
            if kappa.entries[j][k]:
                body = body - d[j] * d[k] * Fraction(kappa.entries[j][k], 2)
    return substitute(body, back)


def frame_multi_by_determinant(w: MSeries, kappa) -> MSeries:
    """frame_multi(w, kappa) by Lagrange-Good inversion in its first form,
    c_k = sigma**k [z**k] B det(I - kappa S) exp(<kappa k, delta W>) with
    B = W - 1/2 sum_i delta_i W u_i, u = kappa delta W and
    (kappa S)_ij = delta_j u_i, on plain MSeries arithmetic: the determinant
    over all n variables by cofactor expansion, and one exp_m per key k.
    A column j of I - kappa S with z_j absent from W is the unit vector e_j,
    so the determinant is the framing's own."""
    n, order, field = w.nvars, w.order, w.field
    d = [delta_i(w, i) for i in range(n)]
    zero = MSeries.zero(field, n, order)
    u = [sum((d[p] * kappa.entries[i][p] for p in range(n)), zero) for i in range(n)]
    body = w - sum((d[i] * u[i] for i in range(n)), zero) * Fraction(1, 2)
    one = MSeries.from_dict(field, n, order, {(0,) * n: 1})
    jac = [[(one if i == j else zero) - delta_i(u[i], j) for j in range(n)] for i in range(n)]
    dterms = (body * _det_by_cofactors(jac)).as_dict
    out = {}
    for k in itertools.product(range(order + 1), repeat=n):
        if not 0 < sum(k) <= order:
            continue
        e = exp_m(sum((u[i] * k[i] for i in range(n)), zero)).as_dict
        c = sum((dj * e[m] for j, dj in dterms.items()
                 if all(a <= b for a, b in zip(j, k))
                 and (m := tuple(b - a for a, b in zip(j, k))) in e), field.zero())
        out[k] = -c if sum(k[i] for i in range(n) if kappa.sigma(i) < 0) % 2 else c
    return MSeries.from_dict(field, n, order, out)


def _det_by_cofactors(rows: list[list[MSeries]]) -> MSeries:
    """The determinant of a square matrix of series, by expansion along the
    first row."""
    if len(rows) == 1:
        return rows[0][0]
    acc = None
    for c, entry in enumerate(rows[0]):
        minor = _det_by_cofactors([r[:c] + r[c + 1:] for r in rows[1:]])
        term = entry * minor if c % 2 == 0 else -(entry * minor)
        acc = term if acc is None else acc + term
    return acc


def framed_log_column_by_framing(f: int, dmax: int) -> list[Fraction]:
    """[z^k] log Y_f = catalog._framed_log_h(f, k) / k for k <= dmax, through
    the framing engine: log Y_f = -f delta frame_f(Li2, -f).

    Y_f solves z = (-1)**f * w * Y_f(w) under w = z / (z-1)**f, the coordinate
    of frame_f(Li2, -f), so log Y_f = f log(1-z) = -f delta Li2 in z; framing
    keeps delta W (delta in w of the framed series is delta W at z(w)).
    """
    col = delta(frame_f(polylog(2, dmax), -f)) * -f
    return [c.coords[0] for c in col.coeffs]


# --- exp, log and inverse as sums of powers; reversion by fixed point


def _one_m(v: MSeries) -> MSeries:
    return MSeries.from_dict(v.field, v.nvars, v.order, {(0,) * v.nvars: 1})


def exp_by_powers(v: MSeries) -> MSeries:
    """exp_m(v) as the sum of v**r / r!."""
    acc = cur = _one_m(v)
    fact = 1
    for r in range(1, v.order + 1):
        cur = cur * v
        if cur.is_zero():
            break
        fact *= r
        acc = acc + cur * Fraction(1, fact)
    return acc


def log_by_powers(y: MSeries) -> MSeries:
    """log_m(y) as the sum of (-1)**(r+1) t**r / r with t = y - 1."""
    t = y - y.field.one()
    acc = MSeries.zero(y.field, y.nvars, y.order)
    cur = None
    for r in range(1, y.order + 1):
        cur = t if cur is None else cur * t
        if cur.is_zero():
            break
        acc = acc + cur * Fraction((-1) ** (r + 1), r)
    return acc


def inverse_by_powers(y: MSeries) -> MSeries:
    """power_m(y, -1) as 1/(c(1+s)) = (1/c) sum (-s)**r, s the zero-constant
    part of y/c."""
    c = invert(y.constant_term)
    neg_s = (y.constant_term - y) * c
    acc = cur = _one_m(y)
    for _ in range(y.order):
        cur = cur * neg_s
        if cur.is_zero():
            break
        acc = acc + cur
    return acc * c


def series_arith_by_coefficients(op: str, a, b=None) -> Series:
    """a + b, a - b, a * b or -a (op "+", "-", "*" or "neg") on Series and
    scalars (int, Fraction or FieldElem), one coefficient at a time on dense
    lists: a scalar is a constant series of unbounded order, and the result
    has the smaller order of the Series operands."""
    series = [x for x in (a, b) if isinstance(x, Series)]
    field, n = series[0].field, min(x.order for x in series)

    def dense(x) -> list[FieldElem]:
        if isinstance(x, Series):
            return [x.const, *x.coeffs[:n]]
        return [x if isinstance(x, FieldElem) else field.elem(x)] + [field.zero()] * n

    ca = dense(a)
    if op == "neg":
        out = [-c for c in ca]
    else:
        cb = dense(b)
        if op == "+":
            out = [x + y for x, y in zip(ca, cb)]
        elif op == "-":
            out = [x - y for x, y in zip(ca, cb)]
        else:
            out = [field.zero()] * (n + 1)
            for i, x in enumerate(ca):
                for j, y in enumerate(cb[:n + 1 - i]):
                    out[i + j] = out[i + j] + x * y
    return Series(field, n, out[0], tuple(out[1:]))


def revert_by_fixed_point(f: Series) -> Series:
    """revert(f) by iterating g <- (z - tail(f) o g) / f1."""
    n = f.order
    f1 = f.coeff(1)
    z = Series.var(f.field, n)
    tail = f - z * f1
    g = z
    for _ in range(n):
        g = (z - compose(tail, g)) * invert(f1)
    return g


# --- one congruence on Fraction coordinates, and the one-variable check by a
# dense scan


def residues_mod(x: FieldElem, mod: int) -> list[int]:
    """The coordinates num/den of a p-integral x as num * den**-1 mod `mod`."""
    return [c.numerator * pow(c.denominator, -1, mod) % mod for c in x.coords]


def frobenius_residues(field, x, p, n, lift=frobenius_lift) -> list[int]:
    """Coordinates in [0, p**n) of Frob_p(x) for a p-integral x: the
    coordinate polynomial, read mod p**n, evaluated at lift(field, p, n) by
    Horner, with schoolbook products reduced mod P by long division."""
    mod = p**n
    xi = list(lift(field, p, n))
    image = [0] * field.degree
    for c in reversed(residues_mod(x, mod)):
        image = [v % mod for v in product_mod_minpoly(image, xi, field.minpoly)]
        image[0] += c
    return [v % mod for v in image]


def congruence_by_fractions(field, prev, cur, index, p, required,
                            lift=frobenius_lift) -> Check:
    """One pair of sfunc._prime_pass on Fraction coordinates: both elements
    are shifted by a common p**m that clears p from every denominator, read
    mod p**n with n = required + m, and compared as Frob_p(prev) - cur by the
    minimum ord_p over the coordinates, capped at n and shifted back by m."""
    m = max(ord_p_by_division(c.denominator, p) for x in (prev, cur) for c in x.coords)
    n = required + m
    mod = p**n
    prev, cur = prev * p**m, cur * p**m
    image = frobenius_residues(field, prev, p, n, lift)
    diff = [(a - b) % mod for a, b in zip(image, residues_mod(cur, mod))]
    achieved = min((ord_p_by_division(c, p) for c in diff if c), default=n) - m
    return Check(index, p, required, achieved, achieved >= required, "congruence")


def check_uni_by_dense_scan(v: Series, s: int) -> SReport:
    """check_sfunction(v, s) for a Series, without extra primes, by scanning
    every index k <= order: each good p | k goes through
    congruence_by_fractions, also where a_(k/p) and a_k both vanish, and a
    bad p | k is skipped where they do not."""
    if not v.const.is_zero():
        raise BadConstantTerm("s-function data must have zero constant term")
    field = v.field
    disc = abs(field.discriminant)
    n = v.order
    a = [field.zero()] + [v.coeff(k) * k**s for k in range(1, n + 1)]
    checks: list[Check] = []
    skipped: set[int] = set()
    for k in range(1, n + 1):
        for q in sorted(denominator_support(a[k])):
            if disc % q == 0:
                skipped.add(q)
            elif k % q != 0:
                checks.append(
                    Check(k, q, 0, valuation(a[k], q), False, "integrality")
                )
        for p in prime_factors(k):
            if disc % p != 0:
                checks.append(
                    congruence_by_fractions(
                        field, a[k // p], a[k], k, p, s * ord_p_by_division(k, p)
                    )
                )
            elif not (a[k].is_zero() and a[k // p].is_zero()):
                skipped.add(p)
    checks.sort(key=lambda c: (c.index, c.p))
    return SReport(s, n, tuple(checks), tuple(sorted(skipped)))


def check_multi_by_dense_scan(v: MSeries, s: int) -> SReport:
    """check_sfunction(v, s) for an MSeries, without extra primes, by scanning
    every key k of degree 1..order: with g = gcd(k) and a_k = g**s c_k, each
    good p | g goes through congruence_by_fractions against a_(k/p), also
    where both coefficients vanish, and a bad p | g is skipped where they
    do not."""
    if not v.constant_term.is_zero():
        raise BadConstantTerm("s-function data must have zero constant term")
    field, n = v.field, v.order
    disc = abs(field.discriminant)
    keys = [k for k in itertools.product(range(n + 1), repeat=v.nvars) if 0 < sum(k) <= n]
    a = {k: v.coeff(k) * math.gcd(*k) ** s for k in keys}
    checks: list[Check] = []
    skipped: set[int] = set()
    for k in keys:
        g = math.gcd(*k)
        for q in sorted(denominator_support(a[k])):
            if disc % q == 0:
                skipped.add(q)
            elif g % q != 0:
                checks.append(Check(k, q, 0, valuation(a[k], q), False, "integrality"))
        for p in prime_factors(g):
            down = tuple(e // p for e in k)
            if disc % p != 0:
                checks.append(congruence_by_fractions(
                    field, a[down], a[k], k, p, s * ord_p_by_division(g, p)))
            elif not (a[k].is_zero() and a[down].is_zero()):
                skipped.add(p)
    checks.sort(key=lambda c: (c.index, c.p))
    return SReport(s, n, tuple(checks), tuple(sorted(skipped)))


# --- a series from its Dwork factor coefficients


def dwork_series_by_product(b: Sequence[FieldElem], order: int) -> Series:
    """-sum_d log(1 - b_d z**d) to the order, the series sfunc.dwork_factor
    factors: the product prod_d (1 - b_d z**d) on a dense coefficient list,
    then one -log_series, where dwork_factor solves a divisor recurrence."""
    field = b[0].field
    prod = [field.one()] + [field.zero()] * order  # constant term first
    for d, bd in enumerate(b[:order], start=1):
        for k in range(order, d - 1, -1):
            prod[k] = prod[k] - bd * prod[k - d]
    return -log_series(Series.from_coeffs(field, order, prod[1:], prod[0]))


# --- the resultant by fraction-free elimination


def resultant_by_sylvester(p: Sequence[int], q: Sequence[int]) -> int:
    """numfield._resultant of two integer polynomials (coefficients low to
    high), computed as the determinant of the Sylvester matrix by fraction-free
    (Bareiss) elimination, so the result is an exact integer.
    """
    m, n = len(p) - 1, len(q) - 1
    size = m + n
    if size == 0:
        return 1
    rows: list[list[int]] = []
    for i in range(n):
        row = [0] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = c
        rows.append(row)
    for i in range(m):
        row = [0] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = c
        rows.append(row)
    sign = 1
    prev = 1
    for k in range(size - 1):
        if rows[k][k] == 0:
            for r in range(k + 1, size):
                if rows[r][k] != 0:
                    rows[k], rows[r] = rows[r], rows[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = rows[k][k]
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                rows[i][j] = (rows[i][j] * pivot - rows[i][k] * rows[k][j]) // prev
            rows[i][k] = 0
        prev = pivot
    return sign * rows[size - 1][size - 1]


# --- a sum of field products on Fraction coordinates


def sum_products_by_fractions(
    field: NumberField,
    pairs: Iterable[tuple[FieldElem, FieldElem]],
    scale: int = 1,
    weights: Sequence[int] | None = None,
) -> FieldElem | None:
    """A sum of products as numfield._sum_rows makes it, on Fraction
    coordinates: each x*y is multiplied out as a polynomial in x, reduced mod
    P by long division, multiplied by its pair's weight (1 without weights)
    and added to the sum, which is divided by scale at the end; None when
    there are no pairs.
    """
    pairs = list(pairs)
    if not pairs:
        return None
    if weights is None:
        weights = [1] * len(pairs)
    total = [Fraction(0)] * field.degree
    for (x, y), wt in zip(pairs, weights, strict=True):
        prod = product_mod_minpoly(x.coords, y.coords, field.minpoly)
        total = [s + wt * c for s, c in zip(total, prod)]
    return field.elem([c / scale for c in total])


def cyclotomic_by_division(n: int) -> list[int]:
    """Phi_n, low to high: x**n - 1 divided by Phi_d for each proper divisor
    d of n, by long division."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _long_divide(num, cyclotomic_by_division(d))
            assert not any(rem)
    return num


def psi_by_peeling(n: int) -> list[int]:
    """Psi_n, the minimal polynomial of zeta_n + 1/zeta_n, low to high, for
    n >= 3: the c_j with Phi_n = sum_j c_j x**(m-j) (x**2 + 1)**j, deg Phi_n
    = 2m, read off from the top term down."""
    phi = cyclotomic_by_division(n)
    m = (len(phi) - 1) // 2
    out = [0] * (m + 1)
    for j in range(m, -1, -1):
        out[j] = c = phi[m + j]
        for i in range(j + 1):
            phi[m - j + 2 * i] -= c * math.comb(j, i)
    assert not any(phi)
    return out


def frobenius_by_galois(n: int, p: int, prec: int, real: bool = False) -> tuple[int, ...]:
    """Coordinates in [0, p**prec) of sigma_p(x) for a prime p not dividing
    n: over Phi_n, x = zeta goes to x**a, a = p mod n; over Psi_n (real),
    x = zeta + 1/zeta goes to zeta**a + zeta**-a, the Dickson polynomial
    D_a(x) = sum over k <= a/2 of (-1)**k a/(a - k) C(a - k, k) x**(a - 2k).
    Either is reduced by long division by the minimal polynomial."""
    assert n % p, "sigma_p is the Frobenius lift only at p prime to n"
    a = p % n
    poly = psi_by_peeling(n) if real else cyclotomic_by_division(n)
    image = [0] * a + [1]
    if real:
        image = [0] * (a + 1)
        for k in range(a // 2 + 1):
            image[a - 2 * k] = (-1) ** k * a * math.comb(a - k, k) // (a - k)
    rem = _long_divide(image, poly)[1]
    return tuple(c % p**prec for c in rem + [0] * (len(poly) - 1 - len(rem)))


def _long_divide(num: Sequence[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials by a monic den."""
    num, d = list(num), len(den) - 1
    quot = [0] * max(len(num) - d, 0)
    for top in range(len(num) - 1, d - 1, -1):
        quot[top - d] = c = num[top]
        for i, b in enumerate(den):
            num[top - d + i] -= c * b
    return quot, num[:d]


def product_mod_minpoly(x: Sequence, y: Sequence, p: Sequence[int]) -> list:
    """x * y for coordinate lists of length d, multiplied out as polynomials
    in x and reduced mod the monic P (coefficients p) by long division."""
    d = len(p) - 1
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for top in range(2 * d - 2, d - 1, -1):
        # x**d = -(p[0] + p[1] x + ... + p[d-1] x**(d-1)) mod P, P monic
        c, prod[top] = prod[top], 0
        for t in range(d):
            prod[top - d + t] -= c * p[t]
    return prod[:d]


def same_as_checked(c: FieldElem) -> bool:
    """c, built without __post_init__ (FieldElem._normalized), is the element
    the checked constructor builds from its data: the same tuple of nums,
    den and hash, and == holds both ways."""
    checked = FieldElem(c.field, c.nums, c.den)
    return (type(c.nums) is tuple and c.nums == checked.nums and c.den == checked.den
            and hash(c) == hash(checked) and c == checked and checked == c)


def mseries_mul_by_fractions(a: MSeries, b: MSeries) -> MSeries:
    """MSeries.__mul__ as a dict convolution over every pair of terms: the
    pairs of each output key of total degree <= min(a.order, b.order) are
    summed by sum_products_by_fractions, on Fraction coordinates, each
    product reduced mod P by long division."""
    order = min(a.order, b.order)
    pairs: dict[tuple[int, ...], list] = {}
    for k1, c1 in a.terms:
        for k2, c2 in b.terms:
            key = tuple(x + y for x, y in zip(k1, k2))
            if sum(key) <= order:
                pairs.setdefault(key, []).append((c1, c2))
    coeffs = {k: sum_products_by_fractions(a.field, kp) for k, kp in pairs.items()}
    return MSeries.from_dict(a.field, a.nvars, order, coeffs)


# --- factoring by trial division to 2**20 and Floyd's rho, valuations one
# division at a time


def ord_p_by_division(n: int, p: int) -> int:
    """intutil.ord_p by dividing n by p once per unit of the valuation."""
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _floyd_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n: Floyd's cycle search,
    one gcd per step."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"failed to factor {n}")


def prime_factors_by_floyd(n: int) -> dict[int, int]:
    """intutil.prime_factors by trial division with a 2,4 wheel up to
    min(sqrt(n), 2**20), then Floyd's rho on what is left."""
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, step = 7, 4
    while f * f <= n and f < 1 << 20:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m < f * f or is_prime(m):  # m has no prime factor below f
            out[m] = out.get(m, 0) + 1
            continue
        d = _floyd_rho(m)
        stack.append(d)
        stack.append(m // d)
    return dict(sorted(out.items()))


# --- a stored element read through one Fraction per coordinate


def _int_by_halves(x) -> int:
    """int(x) of an int, or of a decimal string by the one rule at every
    length: surrounding spaces, an optional sign, then the digits 0-9 only.
    Past int()'s digit limit the digits are split in halves down to 600."""
    if not isinstance(x, str):
        return int(x)
    text = x.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not digits or any(ch not in "0123456789" for ch in digits):
        raise ValueError(f"not a decimal integer: {x!r}")
    if len(digits) <= 600:
        return int(text)
    k = len(digits) // 2
    n = _int_by_halves(digits[:-k]) * 10**k + _int_by_halves(digits[-k:])
    return -n if text[0] == "-" else n


def _rational_by_fraction(x) -> Fraction:
    if isinstance(x, (list, tuple)):
        if len(x) != 2:
            raise BadFile(f"rational pair must have two entries, got {x!r}")
        return Fraction(_int_by_halves(x[0]), _int_by_halves(x[1]))
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        return Fraction(_int_by_halves(num), _int_by_halves(den) if slash else 1)
    if isinstance(x, int):
        return Fraction(x)
    raise BadFile(f"cannot read {x!r} as a rational")


def elem_from_obj_by_fractions(field: NumberField, obj) -> FieldElem:
    """serialize.elem_from_obj with one Fraction per coordinate, handed to
    NumberField.elem."""
    if isinstance(obj, dict) and "coords" in obj:
        obj = obj["coords"]
    if not isinstance(obj, list):
        raise BadFile("element must be a list of coordinates")
    coords = [_rational_by_fraction(c) for c in obj]
    if len(coords) != field.degree:
        raise BadFile(
            f"element has {len(coords)} coordinates, field degree is {field.degree}"
        )
    return field.elem(coords)


def elem_to_obj_by_fractions(e: FieldElem) -> list:
    """serialize.elem_to_obj through the Fraction of each coordinate, which
    reduces it: one [numerator, denominator] string pair per coordinate."""
    return [[_int_to_str(c.numerator), _int_to_str(c.denominator)] for c in e.coords]


def elem_by_fractions(field: NumberField, value) -> FieldElem:
    """NumberField.elem of an int, a bool or a Fraction: the scalar as the
    Fraction first coordinate of a list, aligned to one lcm and handed to the
    checked FieldElem constructor."""
    coords = [Fraction(value)] + [Fraction(0)] * (field.degree - 1)
    den = math.lcm(*(c.denominator for c in coords))
    return FieldElem(field, tuple(c.numerator * (den // c.denominator) for c in coords), den)


# --- one exact linear solve on Fractions, one elimination per right-hand side


def solve_by_fractions(columns, rhs) -> list[Fraction] | None:
    """The x with sum_j x_j * columns[j] = rhs, by Gauss-Jordan elimination on
    Fractions, or None when there is none; each argument is a sequence of
    rationals.  Dependent columns raise ValueError."""
    rows, cols = len(rhs), len(columns)
    aug = [[Fraction(columns[j][i]) for j in range(cols)] + [Fraction(rhs[i])]
           for i in range(rows)]
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if aug[i][c]), None)
        if pr is None:
            raise ValueError("the columns are dependent")
        aug[r], aug[pr] = aug[pr], aug[r]
        aug[r] = [v / aug[r][c] for v in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        r += 1
    if any(row[cols] for row in aug[r:]):
        return None
    return [aug[i][cols] for i in range(cols)]
