"""Exact big-integer arithmetic primitives.

p-adic valuations, generalized binomial coefficients, Legendre factorial
valuations and prime-power totients.  Everything here works on Python's
arbitrary-precision integers; nothing is ever rounded.
"""
from __future__ import annotations

import sys

from .exceptions import charge

#: Miller-Rabin with the prime bases 2..41 decides primality below this
#: bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality check by Miller-Rabin with the 13 prime
    bases 2..41.  From 3317044064679887385961981 up, where those bases no
    longer decide it (and trial division would take days), ValueError."""
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimePower:
    """A prime power p^a with p prime and a >= 0, and the integer p^a,
    formed once as ``modulus``.

    Forming it is charged against the default ceiling before it starts:
    the square of the 64-bit words of p^a, which bounds the word products
    of its squarings.
    """

    __slots__ = ("p", "a", "modulus")

    def __init__(self, p: int, a: int) -> None:
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if a < 0:
            raise ValueError(f"exponent must be >= 0, got {a}")
        words = a * p.bit_length() // 64 + 1
        charge(words * words)
        self.p = p
        self.a = a
        self.modulus = p ** a

    def __eq__(self, other) -> bool:
        return (isinstance(other, PrimePower)
                and (self.p, self.a) == (other.p, other.a))


def refuse_unprintable_power(name: str, p: int, e: int) -> None:
    """ValueError, before p^e is formed, if it has more digits than a
    report can print (``sys.get_int_max_str_digits()``; 0 is no limit).
    2^(3 limit) < 10^limit < 2^(4 limit) decide all but a narrow band of
    e, where the power is formed and compared."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
    if limit and (e * (p.bit_length() - 1) > 4 * limit
                  or e * p.bit_length() > 3 * limit and p ** e >= 10 ** limit):
        raise ValueError(f"{name} = {p}^{e} has more than {limit} digits, "
                         "more than a report can print")


def ord_int(v: int, p: int) -> int:
    """p-adic valuation of a nonzero integer: the largest e such that p^e
    divides v.  Every power of p divides 0, so v = 0 is a ValueError.

    Examples:
        >>> ord_int(12, 2)
        2
    """
    if v == 0:
        raise ValueError("ord_p(0) is not an integer: every p^e divides 0")
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
    return pp.modulus - pp.modulus // pp.p
