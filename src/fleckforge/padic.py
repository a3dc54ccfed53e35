"""Exact big-integer arithmetic primitives.

p-adic valuations, generalized binomial coefficients, Legendre factorial
valuations and prime-power totients.  Everything here works on Python's
arbitrary-precision integers; nothing is ever rounded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

#: Valuation of zero.  Compares greater than every finite valuation.
INFINITE = math.inf

#: A p-adic valuation: a non-negative int, or INFINITE for the zero value.
Valuation = int | float


def is_prime(n: int) -> bool:
    """Deterministic primality check by trial division up to sqrt(n)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimePower:
    """A prime power p^a with p prime and a >= 0."""

    p: int
    a: int

    def __post_init__(self) -> None:
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.a < 0:
            raise ValueError(f"exponent must be >= 0, got {self.a}")

    @property
    def modulus(self) -> int:
        """The integer p^a."""
        return self.p ** self.a


def ord_int(v: int, p: int) -> Valuation:
    """p-adic valuation of an integer.

    Returns INFINITE for v = 0, otherwise the largest e such that p^e
    divides v.

    Examples:
        >>> ord_int(12, 2)
        2
        >>> ord_int(0, 5)
        inf
    """
    if v == 0:
        return INFINITE
    v = abs(v)
    e = 0
    while v % p == 0:
        e += 1
        v //= p
    return e


def ord_factorial(n: int, p: int) -> int:
    """ord_p(n!) via the Legendre sum, without ever forming n!.

    Computes sum over s >= 1 of floor(n / p^s); the sum is finite since
    the terms vanish once p^s > n.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def binom_int(x: int, k: int) -> int:
    """Generalized binomial coefficient C(x, k) for any integer x, k >= 0.

    Returns x(x-1)...(x-k+1)/k!, which is always an exact integer;
    C(x, 0) = 1.  Negative upper arguments are allowed, e.g.
    C(-2, 3) = (-2)(-3)(-4)/6 = -4.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    result = 1
    for i in range(1, k + 1):
        result = result * (x - i + 1) // i
    return result


def phi_prime_power(pp: PrimePower) -> int:
    """Euler's totient of p^a: p^a - p^(a-1) for a >= 1, and phi(1) = 1."""
    if pp.a == 0:
        return 1
    return pp.p ** pp.a - pp.p ** (pp.a - 1)
