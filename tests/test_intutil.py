from __future__ import annotations

import math
import time

import pytest
from hypothesis import given, settings, strategies as st
from oracles import ord_p_by_division, prime_factors_by_floyd

from sfuncs import intutil
from sfuncs.errors import NotPrime
from sfuncs.intutil import (
    crt,
    divisors,
    is_prime,
    moebius,
    ord_p,
    prime_factors,
    primes_up_to,
)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_carmichael_and_large():
    assert not is_prime(561)  # Carmichael, fools single Fermat tests
    assert not is_prime(1373653)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287


# the least strong pseudoprime to the 12 bases 2..37 (Sorenson & Webster)
PSI_12 = 318665857834031151167461


def test_psi_12_is_composite_with_its_two_factors():
    # the witnesses 2..37 alone called it prime; 41 is a witness and a prime
    assert not is_prime(PSI_12)
    assert prime_factors(PSI_12) == {399165290221: 1, 798330580441: 1}
    assert is_prime(41) and not is_prime(41 * 41) and not is_prime(41 * 43)
    assert intutil.PRIME_TEST_BOUND == 3317044064679887385961981


def test_prime_factors_examples():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}
    assert prime_factors(2**20 + 7) == {1048583: 1}
    big = (2**31 - 1) * (2**61 - 1)
    assert prime_factors(big) == {2**31 - 1: 1, 2**61 - 1: 1}


def test_prime_factors_within_trial_division_needs_no_primality_test(monkeypatch):
    # trial division to 2**10 passes sqrt(n) for these n, which proves the
    # cofactor prime
    def refuse(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr(intutil, "is_prime", refuse)
    sieve = set(primes_up_to(3000))
    for n in range(1, 3001):
        f = prime_factors(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert set(f) <= sieve, n
    # past the trial-division range a cofactor is tested, not assumed prime
    monkeypatch.undo()
    assert prime_factors(1048573 * 1048571) == {1048571: 1, 1048573: 1}
    assert prime_factors(1048583 * 1048589) == {1048583: 1, 1048589: 1}


def test_require_prime_refuses_all_but_primes_below_the_bound():
    for p in (2, 3, 41, 2**61 - 1, PSI_12 // 798330580441):
        intutil.require_prime(p)
    for n in (-5, 0, 1, 4, 561, PSI_12, intutil.PRIME_TEST_BOUND, 2**89 - 1):
        with pytest.raises(NotPrime, match="not a prime below"):
            intutil.require_prime(n)


@given(st.integers(min_value=1, max_value=10**6))
def test_prime_factors_reconstructs(n):
    f = prime_factors(n)
    assert math.prod(p**e for p, e in f.items()) == n
    for p in f:
        assert is_prime(p)


def test_ord_p():
    assert ord_p(48, 2) == 4
    assert ord_p(48, 3) == 1
    assert ord_p(48, 5) == 0
    with pytest.raises(ValueError):
        ord_p(0, 2)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 97, 2**61 - 1]), st.integers(0, 600),
       st.integers(-10**30, 10**30).filter(bool))
def test_ord_p_matches_one_division_per_unit(p, k, u):
    # p**k * u with u of any valuation, so k is a lower bound only
    n = p**k * u
    assert ord_p(n, p) == ord_p_by_division(n, p)
    assert ord_p(n, p) >= k


def test_ord_p_of_a_large_valuation_takes_few_divisions():
    # one division per unit of the valuation took 9.8 s on this 25-KB number
    # (2-core x86-64 host)
    n = (3 + 2**17) * 2**200_000
    start = time.perf_counter()
    assert ord_p(n, 2) == 200_000
    assert time.perf_counter() - start <= 0.5


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    assert divisors(49) == [1, 7, 49]


def test_moebius():
    # first values of the classical sequence
    expect = [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0, -1, 1, 1, 0]
    assert [moebius(n) for n in range(1, 17)] == expect
    assert sum(moebius(d) for d in divisors(360)) == 0


def test_crt():
    assert crt([2, 3, 2], [3, 5, 7]) == 23
    assert crt([1, 0], [4, 9]) == 9
    x = crt([5, 7], [2**10, 3**6])
    assert x % 2**10 == 5 and x % 3**6 == 7
    with pytest.raises(ValueError):
        crt([0, 1], [4, 6])


def test_primes_up_to():
    assert primes_up_to(30) == (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)
    assert len(primes_up_to(10**4)) == 1229


def _next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


@st.composite
def _products_of_primes_near_powers_of_two(draw):
    """Up to three primes near 2**10, two near 2**20 and one near 2**40,
    at least one in all."""
    out = []
    for bits, most in ((10, 3), (20, 2), (40, 1)):
        for _ in range(draw(st.integers(0, most))):
            out.append(_next_prime((1 << bits) + draw(st.integers(0, 1 << (bits - 4)))))
    return out or [_next_prime(1 << 40)]


@settings(max_examples=25, deadline=None)
@given(_products_of_primes_near_powers_of_two())
def test_prime_factors_matches_floyd_rho_near_powers_of_two(primes):
    n = math.prod(primes)
    f = prime_factors(n)
    assert f == prime_factors_by_floyd(n)
    assert f == {p: primes.count(p) for p in sorted(set(primes))}


@settings(max_examples=40, deadline=None)
@given(st.integers(5, 7), st.integers(10**6, 10**7), st.integers(0, 10**6))
def test_prime_factors_matches_floyd_rho_on_semiprimes(digits, a, b):
    # 11 to 13 digits: on both sides of 2**40, where trial division stops at
    # sqrt(n) below and at 2**10 above
    p = _next_prime(10 ** (digits - 1) + a % 10 ** (digits - 1))
    q = _next_prime(10**10 // p + 1 + b)
    n = p * q
    assert 10**10 <= n < 10**13
    assert prime_factors(n) == prime_factors_by_floyd(n)


def test_brent_rho_splits_past_2_40():
    n = (2**31 - 1) * 1048583 * 1048589
    assert n >= 1 << 40
    assert prime_factors(n) == {1048583: 1, 1048589: 1, 2**31 - 1: 1}
    assert prime_factors(3**5 * 1009**3 * 1048583**2) == {3: 5, 1009: 3, 1048583: 2}
    # all four factors fall in one block of 128 steps, so the block is retraced
    four = (1031, 1033, 1039, 1049)
    assert prime_factors(math.prod(four)) == dict.fromkeys(four, 1)
