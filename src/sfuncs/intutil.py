"""Small integer helpers: primality, factoring, divisors, Moebius, CRT.

Everything here is exact and deterministic.  The Miller-Rabin witnesses
2..41 are proven correct below PRIME_TEST_BOUND, the least strong
pseudoprime psi_13 = 3317044064679887385961981 to all of them (Sorenson &
Webster 2016); 2..37 alone fail at psi_12 = 318665857834031151167461.
Every entry point that takes a prime checks it by require_prime.
prime_factors trial-divides to 2**10 at every size, then tests each
cofactor by is_prime or splits it by Brent's variant of Pollard rho; at and
above PRIME_TEST_BOUND, where is_prime proves nothing, rho has the steps
that split any composite below it, and what they leave is kept whole.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import BadFile, NotPrime

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test, deterministic below PRIME_TEST_BOUND.

    >>> [k for k in range(2, 30) if is_prime(k)]
    [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    """
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> None:
    """NotPrime unless p is a prime below PRIME_TEST_BOUND (is_prime proven)."""
    if not (p < PRIME_TEST_BOUND and is_prime(p)):
        raise NotPrime(f"{p} is not a prime below {PRIME_TEST_BOUND}")


def _pollard_rho(n: int, steps: int) -> int:
    """One nontrivial factor of an odd composite n, by Brent's variant of
    Pollard rho: one gcd per 128 steps of the product of the differences,
    retracing one step at a time when a block's gcd is n itself; n itself
    when about `steps` steps find none."""
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            if (steps := steps - 2 * r) < 0:
                return n
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the block overshot: retrace it from ys
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
    raise ArithmeticError(f"failed to factor {n}")


def prime_factors(n: int) -> dict[int, int]:
    """Full factorization of |n| as a prime -> multiplicity map: a 2,4
    wheel to min(sqrt(n), 2**10), then is_prime or _pollard_rho per cofactor.
    A key at or above PRIME_TEST_BOUND is a cofactor that _pollard_rho did
    not split in floor(PRIME_TEST_BOUND**(1/4)) steps, which split any
    composite below the bound: not proven prime.

    >>> prime_factors(360)
    {2: 3, 3: 2, 5: 1}
    """
    n = abs(n)
    out: dict[int, int] = {}
    if n <= 1:
        return out
    for p in (2, 3, 5):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    f, step = 7, 4
    while f * f <= n and f < 1 << 10:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += step
        step = 6 - step
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m >= PRIME_TEST_BOUND:  # is_prime proves nothing: the steps that split any m below
            d = _pollard_rho(m, math.isqrt(math.isqrt(PRIME_TEST_BOUND)))
        else:  # m has no prime factor below f
            d = m if m < f * f or is_prime(m) else _pollard_rho(m, m)
        if d == m:
            out[m] = out.get(m, 0) + 1
        else:
            stack += [d, m // d]
    return dict(sorted(out.items()))


def ord_p(n: int, p: int) -> int:
    """Exponent of the prime p in n != 0 in O(log v) divmods: by p, p**2,
    p**4, ... while each divides, then by the same powers on the way down."""
    if n == 0:
        raise ValueError("ord_p(0) is infinite")
    n = abs(n)
    v, powers = 0, []  # powers[i] = p**(2**i), each divided out once
    q, r = divmod(n, p)
    while not r:
        n, v = q, v + (1 << len(powers))
        powers.append(p)
        p *= p
        q, r = divmod(n, p)
    while powers:  # the rest of v is below 2**len(powers)
        q, r = divmod(n, powers.pop())
        if not r:
            n, v = q, v + (1 << len(powers))
    return v


def divisors(n: int) -> list[int]:
    """Sorted positive divisors of n.

    >>> divisors(12)
    [1, 2, 3, 4, 6, 12]
    """
    out = [1]
    for p, e in prime_factors(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def moebius(n: int) -> int:
    """Moebius function: (-1)**r on squarefree n with r prime factors, else 0."""
    if n < 1:
        raise ValueError("moebius needs a positive argument")
    fac = prime_factors(n)
    if any(e > 1 for e in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def crt(residues: list[int], moduli: list[int]) -> int:
    """Unique r in [0, prod(moduli)) with r = residues[i] mod moduli[i].

    Moduli must be pairwise coprime.

    >>> crt([1, 2], [4, 9])
    29
    """
    r, m = 0, 1
    for ri, mi in zip(residues, moduli):
        g = math.gcd(m, mi)
        if g != 1:
            raise ValueError("moduli are not pairwise coprime")
        # r + m*t = ri mod mi
        t = (ri - r) * pow(m, -1, mi) % mi
        r += m * t
        m *= mi
    return r % m


@lru_cache(maxsize=4096)
def primes_up_to(n: int) -> tuple[int, ...]:
    """All primes <= n, by sieve."""
    if n < 2:
        return ()
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return tuple(i for i, b in enumerate(sieve) if b)


_LEAF = 600  # decimal digits that int() and str() convert under any limit


def _int(x) -> int:
    """x as an int: a non-bool int, or a decimal string of any length, which
    is surrounding ASCII whitespace (what int() strips), an optional sign and
    ASCII digits only (no "_").  A string of another form raises ValueError;
    anything else, a float or a bool included, BadFile.  Every integer of an
    input file and of the command line is read here."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if not isinstance(x, str):
        raise BadFile(f"cannot read {x!r} as an integer")
    text = x.strip(" \t\n\v\f\r")
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text[:40]!r}")
    if len(digits) <= _LEAF:
        return int(text)
    k = len(digits) // 2
    n = _int(digits[:-k]) * 10**k + _int(digits[-k:])
    return -n if text[0] == "-" else n


def _int_to_str(n: int) -> str:
    """str(n) for an integer of any length, past CPython's int/str digit limit."""
    if n.bit_length() < 1990:  # 2**1990 < 10**600
        return str(n)
    if n < 0:
        return "-" + _int_to_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits, so hi > 0
    hi, lo = divmod(n, 10**k)
    return _int_to_str(hi) + _int_to_str(lo).zfill(k)
