"""Verification and generation of s-functions.

A series V = sum c_k z**k over K (constant term zero) is an s-function when
its normalized coefficients a_k = k**s * c_k lie in the good-prime integers
of K and satisfy, for every prime p not dividing the field discriminant and
every index k divisible by p,

    frob_p(a_{k/p}) = a_k  (mod p**(s * ord_p(k)))

where frob_p is the canonical Frobenius lift.  For p > order the congruence
degenerates to p-integrality, which is read off denominators, so a truncated
series gets certified at all good primes, not just the small ones.

In several variables k is an exponent vector and g = gcd(k) takes the place
of k: a_k = g**s * c_k, p divides k when p divides g, and the modulus is
p**(s * ord_p(g)).  One variable is the case g = k, and a Series is checked
as the one-variable MSeries.

The checker keeps each a_k as an integer row over one denominator, sorts
the pairs (k, p) into one bucket per prime and judges each bucket in one
pass: frob_p is one matrix per (field, p), kept by padic and grown by
Newton, which a pair fetches again only when its precision exceeds the
last fetch, and each difference row is read mod p**n for its valuation.
Over Q frob_p is the identity.  When a_k or a_{k/p} is absent no Frobenius
is needed: at a good prime frob_p is an automorphism of the power-basis
lattice, so frob_p(a_{k/p}) has the valuation of a_{k/p}.

dwork_factor writes V (with s = 1 normalization) as
-sum_d log(1 - b_d z**d); V is a 1-function exactly when every b_d is
integral away from bad primes, which is also exactly when exp(V) is.  The
way back is -log_series of the product prod_d (1 - b_d z**d).

generate_crt builds the coefficient tower a_k from a seed a_1 = x by solving
the congruences mod prod_p p**(s ord_p(k)) = k**s and taking the canonical
representative with coordinates in [0, k**s).
"""
from __future__ import annotations

import bisect
import math
from collections import defaultdict
from operator import attrgetter, itemgetter
from typing import NamedTuple, Sequence, Union

from .errors import BadConstantTerm, FieldMismatch, NotIntegral, SfuncError
from .intutil import crt, divisors, ord_p, prime_factors, primes_up_to, require_prime
from .mseries import MSeries
from .numfield import FieldElem, NumberField
from .padic import _apply_rows, _frobenius_rows
from .series import Series

Index = Union[int, tuple[int, ...]]


class Check(NamedTuple):
    """One verified condition at (index, p)."""

    index: Index
    p: int
    required: int
    valuation: int  # capped at required, so an exact zero reads required
    ok: bool
    kind: str  # "congruence" or "integrality"


class SReport(NamedTuple):
    """check_sfunction's checks, the bad primes it left unjudged and its extra-prime records."""

    s: int
    order: int
    checks: tuple[Check, ...]
    skipped_primes: tuple[int, ...]
    extra: tuple[dict, ...] = ()

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def violations(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def to_obj(self) -> dict:
        obj = {
            "s": self.s,
            "order": self.order,
            "pass": self.passed,
            "violations": [_check_obj(c, p=c.p) for c in self.violations],
            "skipped_primes": list(self.skipped_primes),
        }
        if self.extra:
            obj["extra_primes"] = list(self.extra)
        return obj


def _check_obj(c: Check, **more) -> dict:
    """c as JSON, a tuple index as a list."""
    return {
        "k": list(c.index) if isinstance(c.index, tuple) else c.index,
        "required": c.required,
        "valuation": c.valuation,
        **more,
    }


def _defect(rows, p: int, prev: FieldElem, cur: FieldElem, required: int) -> int:
    """v_p(frob(prev) - cur) capped at required, on the integer rows of
    prev = P/d_p and cur = C/d_c, frob the matrix rows (None: the identity).
    With d = p**t * u, u prime to p, and m = max(t_p, t_c), the difference
    times the unit u_p * u_c and p**m is the integer row
    p**(m - t_p) u_c frob(P) - p**(m - t_c) u_p C mod p**n, n = required + m,
    so no inverse mod p**n is needed.  The row is zero when the congruence
    holds, else the p-part of its gcd, less m, is the valuation.
    """
    x, dx, y, dy = prev.nums, prev.den, cur.nums, cur.den
    if dx % p and dy % p:  # the usual case: m = 0
        m, mod, a, b = 0, p**required, dy, dx
    else:
        tp = ord_p(dx, p) if dx % p == 0 else 0
        tc = ord_p(dy, p) if dy % p == 0 else 0
        m = max(tp, tc)
        mod = p ** (required + m)
        a = p ** (m - tp) * (dy // p**tc) % mod
        b = p ** (m - tc) * (dx // p**tp) % mod
    if rows is not None:
        x = _apply_rows(rows, x, mod)
    diff = [(a * u - b * v) % mod for u, v in zip(x, y)]
    return ord_p(math.gcd(*diff), p) - m if any(diff) else required


def _need(p: int, prev: FieldElem, cur: FieldElem, required: int) -> int:
    """The precision of the pair's difference row: required + m."""
    return required + max(ord_p(d, p) if d % p == 0 else 0 for d in (prev.den, cur.den))


def _prime_pass(field: NumberField, p: int, pairs: list, ix, zero):
    """(checks, error) of the pairs (k, a_{k/p}, a_k, required) at p, an
    absent coefficient being the object zero, judged in the given order.
    A pair is lifted when the degree is above 1 and p is bad or both sides
    are present; it fetches the lift's matrix only when its precision
    (_need) exceeds the last fetch, which padic keeps and grows by Newton.
    At a bad p (an extra prime) the pass stops at the first fetch that
    fails, with its error: a lift mod p may exist where none mod p**2 does.
    At a good p a failed fetch propagates."""
    bad, out, rows, have = field.discriminant % p == 0, [], None, 0
    for key, x, y, r in pairs:
        lifted = field.degree > 1 and (bad or x is not zero and y is not zero)
        if lifted and (n := _need(p, x, y, r)) > have:
            try:
                rows, have = _frobenius_rows(field, p, n), n
            except (SfuncError, ArithmeticError) as exc:  # LiftFailed
                if not bad:
                    raise
                return out, f"{type(exc).__name__}: {exc}"
        got = _defect(rows if lifted else None, p, x, y, r)
        out.append(Check(ix(key), p, r, got, got >= r, "congruence"))
    return out, None


def check_sfunction(
    v: Series | MSeries,
    s: int,
    extra_primes: Sequence[int] = (),
) -> SReport:
    """Verify the s-function congruences at every good prime.

    A Series is checked as MSeries.from_univariate(v); its report keeps int
    indices.  Each term k, with g = gcd(k), is normalized to the row
    a_k = g**s * c_k, reduced by one gcd of its denominator and g**s; a_k
    must be q-integral at every good q not dividing g.  Each pair (k, p)
    states frob_p(a_{k/p}) = a_k mod p**(s * ord_p(g)), so
    required = s * ord_p(g) in one variable and in several.  The pairs are
    built once each from the terms present, each g factored once by
    prime_factors: (k, p) for every p | g, and (p*k, p) for every p with
    p*|k| <= order when p*k is not a term.  A pair whose two coefficients
    both vanish holds trivially and is not recorded.  The pairs go into one
    bucket per prime, _prime_pass judges each bucket, and the checks are
    sorted by (index, p).

    Returns a report with one record per checked condition; report.passed
    is the overall verdict.  A congruence valuation is capped at required,
    so an exactly-zero defect reads required.  Bad primes (dividing the
    field discriminant) are listed as skipped where they go unjudged: found
    in a normalized denominator, or dividing g for a pair with a nonzero
    side.  Each distinct prime in extra_primes gets one informational
    record, over its bucket in key order, that never affects the verdict;
    an entry of extra_primes that is not a prime below
    intutil.PRIME_TEST_BOUND, where is_prime is proven, raises NotPrime.
    Every prime that reaches a check is thus known to be prime.  s < 1
    raises ValueError.  A failing report names each broken condition:

    >>> from fractions import Fraction
    >>> from sfuncs.catalog import polylog
    >>> li2 = polylog(2, 8)
    >>> bumped = li2 + Series.from_coeffs(li2.field, 8, [0, 0, 0, Fraction(1, 8)])
    >>> [(c.index, c.p, c.required, c.valuation) for c in check_sfunction(bumped, 2).violations]
    [(4, 2, 4, 1), (8, 2, 6, 1)]
    """
    if s < 1:
        raise ValueError("need s >= 1")
    for q in extra_primes:
        require_prime(q)
    univariate = not isinstance(v, MSeries)
    w = MSeries.from_univariate(v) if univariate else v
    if not w.constant_term.is_zero():
        raise BadConstantTerm("s-function data must have zero constant term")
    field, order = w.field, w.order
    disc = abs(field.discriminant)
    zero = field.zero()
    ix = (lambda key: key[0]) if univariate else (lambda key: key)
    a, checks, skipped = {}, [], set()
    for key, c in w.terms:
        g = math.gcd(*key)
        t = math.gcd(c.den, g**s)
        nums = c.nums if t == g**s else tuple([x * (g**s // t) for x in c.nums])
        a[key] = ak = FieldElem._normalized(field, nums, c.den // t)
        for q in prime_factors(ak.den):  # the row is reduced: v_q(a_k) = -ord_q(den)
            if disc % q == 0:
                skipped.add(q)
            elif g % q != 0:
                checks.append(Check(ix(key), q, 0, -ord_p(ak.den, q), False, "integrality"))
    # p*k is a term only for p <= order // |k|: sieve to the smallest |k|
    primes = primes_up_to(order // min(map(sum, a))) if a else ()
    buckets = defaultdict(list)
    for key, ak in a.items():
        ords = prime_factors(math.gcd(*key))
        for p, e in ords.items():
            buckets[p].append((key, a.get(tuple([k // p for k in key]), zero), ak, s * e))
        for p in primes[:bisect.bisect(primes, order // sum(key))]:
            if (up := tuple([k * p for k in key])) not in a:
                buckets[p].append((up, ak, zero, s * (ords.get(p, 0) + 1)))
    wanted, judged = dict.fromkeys(extra_primes), {}  # each extra prime once
    while buckets:  # each bucket is let go once judged
        p, pairs = buckets.popitem()
        if p in wanted:  # its report lists the pairs in key order
            pairs.sort(key=itemgetter(0))
        if disc % p == 0:  # each pair has a nonzero side that goes unjudged
            skipped.add(p)
        if disc % p != 0 or p in wanted:  # a bad p serves its report only
            judged[p] = _prime_pass(field, p, pairs, ix, zero)
    checks += [c for p, (out, _) in judged.items() if disc % p != 0 for c in out]
    checks.sort(key=attrgetter("index", "p"))
    extra = []
    for q in wanted:
        out, error = judged.get(q, ([], None))
        extra.append({"p": q, "bad": disc % q == 0, "frobenius_defined": error is None,
                      "checks": [_check_obj(c, ok=c.ok) for c in out]}
                     | ({"error": error} if error else {}))
    return SReport(s, order, tuple(checks), tuple(sorted(skipped)), tuple(extra))


def dwork_factor(v: Series) -> list[FieldElem]:
    """Coefficients b_d with V = -sum_d log(1 - b_d z**d) to the truncation.

    With the s = 1 normalization a_d = d * c_d this solves
    a_d / d = sum_{k | d} b_{d/k}**k / k upward in d:
    b_d = a_d / d - sum_{k | d, k > 1} b_{d/k}**k / k.
    """
    if not v.const.is_zero():
        raise BadConstantTerm("factorization needs zero constant term")
    b: dict[int, FieldElem] = {}
    for d in range(1, v.order + 1):
        acc = v.coeff(d)  # a_d / d
        for k in divisors(d):
            if k > 1:
                acc = acc - b[d // k] ** k / k
        b[d] = acc
    return [b[d] for d in range(1, v.order + 1)]


def generate_crt(field: NumberField, x: FieldElem, s: int, order: int) -> Series:
    """The s-function tower seeded by a_1 = x.

    a_k for k > 1 is the canonical representative (coordinates in [0, k**s))
    of the system a_k = frob_p(a_{k/p}) mod p**(s ord_p(k)) over the primes
    p dividing k; indices sharing a factor with the discriminant get a_k = 0.
    The tower is kept as integer coordinate rows.  A seed of another field
    raises FieldMismatch, one that is not integral NotIntegral.
    """
    if x.field != field:
        raise FieldMismatch("seed element must belong to the field")
    if x.den != 1:
        raise NotIntegral("seed element must be integral")
    if s < 1 or order < 1:
        raise ValueError("need s >= 1 and order >= 1")
    disc = abs(field.discriminant)
    zero = (0,) * field.degree
    a: list[tuple[int, ...]] = [zero, x.nums]
    for k in range(2, order + 1):
        if math.gcd(k, disc) != 1:
            a.append(zero)
            continue
        ords = prime_factors(k).items()
        moduli = [p ** (s * e) for p, e in ords]
        residues = [
            _apply_rows(_frobenius_rows(field, p, s * e), a[k // p], q)
            for (p, e), q in zip(ords, moduli)
        ]
        a.append(tuple(crt(col, moduli) for col in zip(*residues)))
    coeffs = tuple(FieldElem(field, a[k], k**s) for k in range(1, order + 1))
    return Series(field, order, field.zero(), coeffs)
