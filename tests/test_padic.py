import math

import pytest

from fleckforge.padic import (
    INFINITE,
    PrimePower,
    binom_int,
    is_prime,
    ord_factorial,
    ord_int,
    phi_prime_power,
)


def ord_by_division(v, p):
    """Independent oracle: strip factors of p one at a time."""
    if v == 0:
        return INFINITE
    v = abs(v)
    e = 0
    while v % p == 0:
        e += 1
        v //= p
    return e


def test_ord_int_examples():
    assert ord_int(12, 2) == 2
    assert ord_int(0, 5) == INFINITE
    assert ord_int(48, 2) == ord_by_division(48, 2) == 4


def test_ord_int_matches_divisibility():
    for p in (2, 3, 5, 7):
        for v in range(-200, 201):
            if v == 0:
                assert ord_int(v, p) == INFINITE
                continue
            e = ord_int(v, p)
            assert v % p ** e == 0
            assert v % p ** (e + 1) != 0


def test_infinite_orders_above_every_finite():
    assert INFINITE > 10 ** 100
    assert ord_int(0, 2) > ord_int(2 ** 64, 2)


def test_ord_factorial_examples():
    # oracles: 10! = 3628800 = 2^8 * 14175; 9! = 362880 = 3^4 * 4480
    assert ord_factorial(10, 2) == 8
    assert ord_factorial(0, 3) == 0
    assert ord_factorial(9, 3) == 4


def test_ord_factorial_against_term_sum():
    for p in (2, 3, 5):
        acc = 0
        for n in range(1, 501):
            acc += ord_int(n, p)
            assert ord_factorial(n, p) == acc


def test_binom_int_examples():
    assert binom_int(5, 2) == 10
    assert binom_int(-2, 3) == -4
    assert binom_int(-1, 7) == -1
    assert binom_int(17, 0) == 1
    assert binom_int(3, 5) == 0


def test_binom_pascal_rule():
    for x in range(-50, 51):
        for k in range(1, 21):
            assert binom_int(x, k) == binom_int(x - 1, k - 1) + binom_int(x - 1, k)


def test_binom_falling_factorial_identity():
    for x in range(-12, 13):
        for k in range(0, 9):
            falling = 1
            for i in range(k):
                falling *= x - i
            assert math.factorial(k) * binom_int(x, k) == falling


def test_prime_power_validation():
    PrimePower(2, 0)
    PrimePower(97, 3)
    with pytest.raises(ValueError):
        PrimePower(4, 1)
    with pytest.raises(ValueError):
        PrimePower(1, 2)
    with pytest.raises(ValueError):
        PrimePower(3, -1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def test_is_prime_matches_trial_division():
    for n in range(10 ** 5):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1)))


@pytest.mark.parametrize("n", [
    2047,  # a strong pseudoprime to base 2
    3215031751,  # to bases 2, 3, 5, 7
    3825123056546413051,  # to bases 2 .. 31
    399165290221 * 798330580441,  # to bases 2 .. 37: only base 41 rejects it
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1) and is_prime(10 ** 14 + 31)
    assert not is_prime((2 ** 61 - 1) * (2 ** 19 - 1))
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1)
    for n in (bound, 10 ** 30 + 57):
        with pytest.raises(ValueError, match=str(bound)):
            is_prime(n)


def test_phi_prime_power():
    assert phi_prime_power(PrimePower(2, 3)) == 4
    assert phi_prime_power(PrimePower(5, 1)) == 4
    assert phi_prime_power(PrimePower(3, 0)) == 1
