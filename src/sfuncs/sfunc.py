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
as the one-variable MSeries.  When a_k is absent no Frobenius is needed: at
a good prime frob_p is an automorphism of the power-basis lattice, so the
defect frob_p(a_{k/p}) has the valuation of a_{k/p}.  Congruences run on
integer coordinate rows mod p**n, frob_p as one matrix per (field, p).

dwork_factor writes V (with s = 1 normalization) as
-sum_d log(1 - b_d z**d); V is a 1-function exactly when every b_d is
integral away from bad primes, which is also exactly when exp(V) is.

generate_crt builds the coefficient tower a_k from a seed a_1 = x by solving
the congruences mod prod_p p**(s ord_p(k)) = k**s and taking the canonical
representative with coordinates in [0, k**s).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

from .errors import ConstantTermNonzero, NotIntegral, NotPrime, SfuncError
from .intutil import PRIME_TEST_BOUND, crt, divisors, is_prime, ord_p, prime_factors, primes_up_to
from .mseries import MSeries
from .numfield import FieldElem, NumberField, denominator_support
from .padic import _apply_rows, _frobenius_rows, _valuation
from .series import Series

Index = Union[int, tuple[int, ...]]


@dataclass(frozen=True)
class Check:
    """One verified condition at (index, p)."""

    index: Index
    p: int
    required: int
    valuation: int  # capped at required, so an exact zero reads required
    ok: bool
    kind: str  # "congruence" or "integrality"


@dataclass(frozen=True)
class SReport:
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


def _congruence(
    field: NumberField,
    prev: FieldElem,
    cur: FieldElem,
    index: Index,
    p: int,
    required: int,
) -> Check:
    """Valuation of frob_p(prev) - cur, against required, on integer rows.

    Write prev = P/d_p and cur = C/d_c with d = p**t * u, u prime to p, and
    m = max(t_p, t_c).  Multiplied by the p-adic unit u_p * u_c and by p**m,
    the difference is the integer row
    p**(m - t_p) * u_c * frob(P) - p**(m - t_c) * u_p * C, taken mod p**n,
    n = required + m, so no inverse mod p**n is needed.  Its valuation,
    capped at n, is shifted back by m.
    """
    tp = ord_p(prev.den, p) if prev.den % p == 0 else 0
    tc = ord_p(cur.den, p) if cur.den % p == 0 else 0
    m = max(tp, tc)
    n = required + m
    mod = p**n
    image = _apply_rows(_frobenius_rows(field, p, n), prev.nums, mod)
    a = p ** (m - tp) * (cur.den // p**tc) % mod
    b = p ** (m - tc) * (prev.den // p**tp) % mod
    diff = [(a * x - b * y) % mod for x, y in zip(image, cur.nums)]
    achieved = min((ord_p(c, p) for c in diff if c), default=n) - m
    return Check(index, p, required, achieved, achieved >= required, "congruence")


def _extra_prime_report(judge, pairs, q: int, bad: bool) -> dict:
    """Best-effort congruence data at a prime outside the good set."""
    entry: dict = {"p": q, "bad": bad, "frobenius_defined": True, "checks": []}
    for pair in pairs:
        try:
            c = judge(pair)
        except (SfuncError, ArithmeticError) as exc:
            # LiftFailed: a bad prime need not have a lift
            entry["frobenius_defined"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
            break
        entry["checks"].append(_check_obj(c, ok=c.ok))
    return entry


def check_sfunction(
    v: Series | MSeries,
    s: int,
    extra_primes: Sequence[int] = (),
) -> SReport:
    """Verify the s-function congruences at every good prime.

    A Series is checked as MSeries.from_univariate(v); its report keeps int
    indices.  Each term k, with g = gcd(k), is normalized to
    a_k = g**s * c_k, which must be q-integral at every good q not dividing
    g.  Each pair (k, p) states frob_p(a_{k/p}) = a_k mod p**(s * ord_p(g)),
    so required = s * ord_p(g) in one variable and in several.  The pairs
    are built once each from the terms present: (k, p) for every p | g, and
    (p*k, p) for every p with p*|k| <= order when p*k is not a term.  A pair
    whose two coefficients both vanish holds trivially and is not recorded.

    Returns a report with one record per checked condition; report.passed
    is the overall verdict.  A congruence valuation is capped at required,
    so an exactly-zero defect reads required.  Bad primes (dividing the
    field discriminant) found in normalized denominators are listed as
    skipped, and primes in extra_primes get informational records, over the
    same pairs, that never affect the verdict; an entry of extra_primes that
    is not a prime below intutil.PRIME_TEST_BOUND, where is_prime is proven,
    raises NotPrime.  Every prime that reaches a check is thus known to be
    prime.  s < 1 raises ValueError.  The checks run in this process: a
    process pool measured no faster and cost more CPU.
    """
    if s < 1:
        raise ValueError("need s >= 1")
    for q in extra_primes:
        if q >= PRIME_TEST_BOUND or not is_prime(q):
            raise NotPrime(f"{q} is not a prime below {PRIME_TEST_BOUND}")
    univariate = not isinstance(v, MSeries)
    w = MSeries.from_univariate(v) if univariate else v
    if not w.constant_term.is_zero():
        raise ConstantTermNonzero("s-function data must have zero constant term")
    field, order = w.field, w.order
    disc = abs(field.discriminant)
    zero = field.zero()

    def ix(key: tuple[int, ...]) -> Index:
        return key[0] if univariate else key

    a = {key: c * math.gcd(*key) ** s for key, c in w.terms}
    checks: list[Check] = []
    skipped: set[int] = set()
    for key, ak in a.items():
        g = math.gcd(*key)
        for q in sorted(denominator_support(ak)):
            if disc % q == 0:
                skipped.add(q)
            elif g % q != 0:
                checks.append(
                    Check(ix(key), q, 0, _valuation(ak, q), False, "integrality")
                )
    # p*k is a term only for p <= order // |k|: sieve to the smallest |k|
    primes = primes_up_to(order // min(map(sum, a))) if a else ()

    def pairs():
        """(k, p, a_{k/p}, a_k, required) for every pair, each once; an
        absent coefficient is the object zero itself."""
        for key, ak in a.items():
            ords = prime_factors(math.gcd(*key))
            for p, e in ords.items():
                yield key, p, a.get(tuple([k // p for k in key]), zero), ak, s * e
            deg = sum(key)
            for p in primes:
                if p * deg > order:
                    break
                up = tuple([k * p for k in key])
                if up not in a:
                    yield up, p, ak, zero, s * (ords.get(p, 0) + 1)

    def judge(pair) -> Check:
        key, p, prev, cur, required = pair
        if cur is zero and disc % p != 0:
            # a_k is absent and frob_p keeps valuations at a good p; min() is
            # the row path's cap at its precision
            got = min(_valuation(prev, p), required)
            return Check(ix(key), p, required, got, got >= required, "congruence")
        return _congruence(field, prev, cur, ix(key), p, required)

    # one pass over the pairs: the good primes are judged, and the pairs at
    # each extra prime kept in generation order for its report
    at = {q: [] for q in extra_primes}
    for t in pairs():
        if disc % t[1] != 0:
            checks.append(judge(t))
        if t[1] in at:
            at[t[1]].append(t)
    checks.sort(key=lambda c: (c.index, c.p))
    extra = tuple(
        _extra_prime_report(judge, sorted(at[q], key=lambda t: t[0]), q, disc % q == 0)
        for q in extra_primes
    )
    return SReport(s, order, tuple(checks), tuple(sorted(skipped)), extra)


def dwork_factor(v: Series) -> list[FieldElem]:
    """Coefficients b_d with V = -sum_d log(1 - b_d z**d) to the truncation.

    With the s = 1 normalization a_d = d * c_d this solves
    a_d / d = sum_{k | d} b_{d/k}**k / k upward in d:
    b_d = a_d / d - sum_{k | d, k > 1} b_{d/k}**k / k.
    """
    if not v.const.is_zero():
        raise ConstantTermNonzero("factorization needs zero constant term")
    b: dict[int, FieldElem] = {}
    for d in range(1, v.order + 1):
        acc = v.coeff(d)  # a_d / d
        for k in divisors(d):
            if k > 1:
                acc = acc - b[d // k] ** k / k
        b[d] = acc
    return [b[d] for d in range(1, v.order + 1)]


def dwork_assemble(b: Sequence[FieldElem], order: int) -> Series:
    """-sum_d log(1 - b_d z**d), truncated; left inverse of dwork_factor."""
    if not b:
        raise ValueError("need at least one factor coefficient")
    field = b[0].field
    coeffs = [field.zero()] * order
    for d, bd in enumerate(b, start=1):
        if d > order or bd.is_zero():
            continue
        powv = field.one()
        for m in range(1, order // d + 1):
            powv = powv * bd
            coeffs[d * m - 1] = coeffs[d * m - 1] + powv / m
    return Series(field, order, field.zero(), tuple(coeffs))


def generate_crt(field: NumberField, x: FieldElem, s: int, order: int) -> Series:
    """The s-function tower seeded by a_1 = x.

    a_k for k > 1 is the canonical representative (coordinates in [0, k**s))
    of the system a_k = frob_p(a_{k/p}) mod p**(s ord_p(k)) over the primes
    p dividing k; indices sharing a factor with the discriminant get a_k = 0.
    The tower is kept as integer coordinate rows.  The seed must be integral.
    """
    if x.field != field:
        raise NotIntegral("seed element must belong to the field")
    if denominator_support(x):
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
