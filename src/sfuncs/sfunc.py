"""Verification and generation of s-functions.

A series V = sum c_k z**k over K (constant term zero) is an s-function when
its normalized coefficients a_k = k**s * c_k lie in the good-prime integers
of K and satisfy, for every prime p not dividing the field discriminant and
every index k divisible by p,

    frob_p(a_{k/p}) = a_k  (mod p**(s * ord_p(k)))

where frob_p is the canonical Frobenius lift.  For p > order the congruence
degenerates to p-integrality, which is read off denominators, so a truncated
series gets certified at all good primes, not just the small ones.

The multivariate version checks, for every exponent vector k,

    frob_p(c_{k/p}) - p**s c_k  has valuation >= s   when p divides all of k,
    c_k is p-integral                                otherwise.

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
from .intutil import crt, divisors, is_prime, ord_p, prime_factors, primes_up_to
from .mseries import MSeries
from .numfield import FieldElem, NumberField, denominator_support
from .padic import (
    _ring_unchecked,
    _valuation,
    frobenius_lift,
    make_residue_ring,
    reduce,
    residue_valuation,
)
from .series import Series

Index = Union[int, tuple[int, ...]]


@dataclass(frozen=True)
class Check:
    """One verified condition at (index, p)."""

    index: Index
    p: int
    required: int
    valuation: int | float
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
        def val(v):
            return "inf" if v == math.inf else v

        def idx(i):
            return list(i) if isinstance(i, tuple) else i

        obj = {
            "s": self.s,
            "order": self.order,
            "pass": self.passed,
            "violations": [
                {
                    "k": idx(c.index),
                    "p": c.p,
                    "required": c.required,
                    "valuation": val(c.valuation),
                }
                for c in self.violations
            ],
            "skipped_primes": list(self.skipped_primes),
        }
        if self.extra:
            obj["extra_primes"] = list(self.extra)
        return obj


def _finite_floor(v) -> int:
    """max(0, -v) for a possibly infinite valuation."""
    if v == math.inf:
        return 0
    return max(0, -int(v))


def _congruence(
    field: NumberField,
    prev: FieldElem,
    cur: FieldElem,
    index: Index,
    p: int,
    required: int,
    scale_cur: int = 0,
    ring_factory=make_residue_ring,
) -> Check:
    """Valuation of frob_p(prev) - p**scale_cur * cur, against required.

    Elements with denominators at p are shifted by a common power p**m so the
    residue ring applies; the reported valuation is shifted back.
    """
    if required <= 0:
        return Check(index, p, max(required, 0), 0, True, "congruence")
    m = max(
        _finite_floor(_valuation(prev, p)),
        _finite_floor(_valuation(cur, p) + scale_cur),
    )
    prec = required + m
    ring = ring_factory(field, p, prec)
    frob = frobenius_lift(ring)
    u = reduce(prev * p**m, ring)
    t = reduce(cur * p ** (m + scale_cur), ring)
    diff = frob(u) - t
    achieved = residue_valuation(diff) - m
    return Check(index, p, required, achieved, achieved >= required, "congruence")


def _extra_prime_report(field, pairs, q, bad: bool) -> dict:
    """Best-effort congruence data at a prime outside the good set."""
    entry: dict = {"p": q, "bad": bad, "frobenius_defined": True, "checks": []}
    for index, prev, cur, required, scale in pairs:
        try:
            c = _congruence(
                field, prev, cur, index, q, required, scale, _ring_unchecked
            )
        except (SfuncError, ArithmeticError) as exc:
            # non-unit derivative, non-integral input
            entry["frobenius_defined"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
            break
        entry["checks"].append(
            {
                "k": list(index) if isinstance(index, tuple) else index,
                "required": c.required,
                "valuation": "inf" if c.valuation == math.inf else c.valuation,
                "ok": c.ok,
            }
        )
    return entry


def check_sfunction(
    v: Series | MSeries,
    s: int,
    jobs: int | None = None,
    extra_primes: Sequence[int] = (),
) -> SReport:
    """Verify the s-function congruences at every good prime.

    Returns a report with one record per checked condition; report.passed
    is the overall verdict.  Bad primes (dividing the field discriminant)
    found in coefficient denominators are listed as skipped, and primes in
    extra_primes get informational records that never affect the verdict;
    an entry of extra_primes that is not prime raises NotPrime.  Every
    prime that reaches a check is thus known to be prime.
    jobs is accepted and ignored: the checks run in this process, because a
    process pool measured no faster than serial checking and cost more CPU.
    """
    for q in extra_primes:
        if not is_prime(q):
            raise NotPrime(f"{q} is not prime")
    if isinstance(v, MSeries):
        return _check_multi(v, s, extra_primes)
    return _check_uni(v, s, extra_primes)


def _check_uni(v: Series, s: int, extra_primes) -> SReport:
    if not v.const.is_zero():
        raise ConstantTermNonzero("s-function data must have zero constant term")
    field = v.field
    disc = abs(field.discriminant)
    n = v.order
    a = [field.zero()] + [v.coeff(k) * k**s for k in range(1, n + 1)]
    checks: list[Check] = []
    tasks: list[tuple] = []
    skipped: set[int] = set()
    for k in range(1, n + 1):
        for q in sorted(denominator_support(a[k])):
            if disc % q == 0:
                skipped.add(q)
            elif k % q != 0:
                checks.append(
                    Check(k, q, 0, _valuation(a[k], q), False, "integrality")
                )
        for p in prime_factors(k):
            if disc % p == 0:
                continue
            tasks.append((field, a[k // p], a[k], k, p, s * ord_p(k, p)))
    checks.extend(_congruence(*t) for t in tasks)
    checks.sort(key=lambda c: (c.index, c.p))
    extra = tuple(
        _extra_prime_report(
            field,
            [
                (k, a[k // q], a[k], s * ord_p(k, q), 0)
                for k in range(1, n + 1)
                if k % q == 0
            ],
            q,
            disc % q == 0,
        )
        for q in extra_primes
    )
    return SReport(s, n, tuple(checks), tuple(sorted(skipped)), extra)


def _check_multi(v: MSeries, s: int, extra_primes) -> SReport:
    if not v.constant_term.is_zero():
        raise ConstantTermNonzero("s-function data must have zero constant term")
    field = v.field
    disc = abs(field.discriminant)
    t = v.order
    checks: list[Check] = []
    skipped: set[int] = set()
    seen: set[tuple[tuple[int, ...], int]] = set()
    tasks: list[tuple] = []

    def queue(key: tuple[int, ...], p: int) -> None:
        if (key, p) in seen:
            return
        seen.add((key, p))
        prev = v.coeff(tuple(k // p for k in key))
        cur = v.coeff(key)
        tasks.append((field, prev, cur, key, p, s, s))

    for key, c in v.terms:
        g = math.gcd(*key)
        for q in sorted(denominator_support(c)):
            if disc % q == 0:
                skipped.add(q)
            elif g % q != 0:
                checks.append(
                    Check(key, q, 0, _valuation(c, q), False, "integrality")
                )
        for p in prime_factors(g):
            if disc % p == 0:
                continue
            queue(key, p)
        deg = sum(key)
        if deg > 0:
            for p in primes_up_to(t // deg):
                if disc % p != 0:
                    queue(tuple(k * p for k in key), p)
    checks.extend(_congruence(*t) for t in tasks)
    checks.sort(key=lambda c: (c.index, c.p))
    extra = tuple(
        _extra_prime_report(
            field,
            [
                (key, v.coeff(tuple(k // q for k in key)), v.coeff(key), s, s)
                for key, _ in v.terms
                if math.gcd(*key) % q == 0
            ],
            q,
            disc % q == 0,
        )
        for q in extra_primes
    )
    return SReport(s, t, tuple(checks), tuple(sorted(skipped)), extra)


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
    The seed must be integral.
    """
    if x.field != field:
        raise NotIntegral("seed element must belong to the field")
    if denominator_support(x):
        raise NotIntegral("seed element must be integral")
    if s < 1 or order < 1:
        raise ValueError("need s >= 1 and order >= 1")
    disc = abs(field.discriminant)
    a: list[FieldElem] = [field.zero(), x]
    for k in range(2, order + 1):
        if math.gcd(k, disc) != 1:
            a.append(field.zero())
            continue
        residues: list[tuple[int, ...]] = []
        moduli: list[int] = []
        for p, alpha in prime_factors(k).items():
            e = s * alpha
            ring = make_residue_ring(field, p, e)
            frob = frobenius_lift(ring)
            residues.append(frob(reduce(a[k // p], ring)).coords)
            moduli.append(p**e)
        coords = [
            crt([r[i] for r in residues], moduli) for i in range(field.degree)
        ]
        a.append(field.elem(coords))
    coeffs = tuple(a[k] / k**s for k in range(1, order + 1))
    return Series(field, order, field.zero(), coeffs)
