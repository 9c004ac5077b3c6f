from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from sfuncs import intutil
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


def test_prime_factors_examples():
    assert prime_factors(360) == {2: 3, 3: 2, 5: 1}
    assert prime_factors(1) == {}
    assert prime_factors(2**20 + 7) == {1048583: 1}
    big = (2**31 - 1) * (2**61 - 1)
    assert prime_factors(big) == {2**31 - 1: 1, 2**61 - 1: 1}


def test_prime_factors_below_2_40_needs_no_primality_test(monkeypatch):
    # trial division past sqrt(n) proves the cofactor prime
    def refuse(m):
        raise AssertionError(f"is_prime({m}) called")

    monkeypatch.setattr(intutil, "is_prime", refuse)
    sieve = set(primes_up_to(3000))
    for n in range(1, 3001):
        f = prime_factors(n)
        assert math.prod(p**e for p, e in f.items()) == n
        assert set(f) <= sieve, n
    assert prime_factors(1048573 * 1048571) == {1048571: 1, 1048573: 1}
    # past the trial-division range a cofactor is tested, not assumed prime
    monkeypatch.undo()
    assert prime_factors(1048583 * 1048589) == {1048583: 1, 1048589: 1}


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
