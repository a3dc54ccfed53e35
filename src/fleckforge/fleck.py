"""Restricted alternating binomial sums and their valuation lower bounds.

The central object is

    S = sum over 0 <= k <= n, k = r (mod p^a) of C(n,k) (-1)^k f((k-r)/p^a)

for an integer-valued polynomial f of degree at most l.  Two lower
bounds on ord_p(S) hold for every f: a totient-floor one (Lemma 2.1) and
one via factorial valuations.  At l = 0 the first is Weisman's bound,
and at a = 1, l = 0 it is Fleck's.
"""
from __future__ import annotations

from math import comb, perm

from .exceptions import charge
from .ivpoly import IntegerValuedPoly, eval_ivp
from .padic import (
    PrimePower,
    binom_int,
    ord_factorial,
    ord_int,
    phi_prime_power,
)


def restricted_sum(n: int, r: int, pp: PrimePower, f: IntegerValuedPoly) -> int:
    """Exact value of the restricted alternating sum over k = r (mod p^a).

    For each included k, (k - r)/p^a is an exact integer; the empty
    congruence class gives 0.  With f = 1 this is the classical
    alternating sum over a residue class.  C(n, k) steps from one k to
    the next by p^a factors above and below, so the binomials of one sum
    take about 2n products and quotients of an n-bit number by small
    factors, not a fresh binomial per term.

    Charged against the default ceiling before it starts: n + 1 steps on
    the 64-bit words of an n-bit number, which also covers the at most n
    divisions that take ord_p of the sum (``check_lemma21``).
    """
    charge((n + 1) * (n // 64 + 1))
    q = pp.modulus
    k0 = r % q
    binomial = comb(n, k0)
    total = 0
    for k in range(k0, n + 1, q):
        if k > k0:  # C(n, k) from C(n, k - q)
            binomial = binomial * perm(n - k + q, q) // perm(k, q)
        term = binomial * eval_ivp(f, (k - r) // q)
        total += -term if k % 2 else term
    return total


def wan_bound(n: int, pp: PrimePower, l: int) -> int:
    """floor((n - l*p^a - p^(a-1))/phi(p^a)), exact for every a >= 0.

    For a = 0 that is floor(n - l - 1/p), and 0 < 1/p < 1 makes it
    n - l - 1.
    """
    if pp.a == 0:
        return n - l - 1
    return (n - l * pp.modulus - pp.modulus // pp.p) // phi_prime_power(pp)


def factorial_bound(n: int, pp: PrimePower, l: int) -> int:
    """ord_p(floor(n/p^(a-1))!) - ord_p(l!) - min(l, floor(n/p^a)).

    For a = 0, floor(n/p^(a-1)) means n*p.  The result may be negative.
    """
    p = pp.p
    shifted = n * p // pp.modulus  # floor(n/p^(a-1))
    return ord_factorial(shifted, p) - ord_factorial(l, p) - min(l, n // pp.modulus)


class FleckReport:
    """Outcome of checking one restricted sum against its bounds.

    ``bounds`` holds the general pair always; for constant f and a >= 1
    also Weisman's, and at a = 1 Fleck's, each the Lemma 2.1 bound at
    l = 0.  ``valuation`` is ord_p(sum), or None for a zero sum, which
    every power of p divides.  ``satisfied[name]`` is valuation >=
    bounds[name], always True for a zero sum; negative bounds are
    trivially satisfied, not clamped.
    """

    __slots__ = ("sum", "valuation", "bounds", "satisfied")

    def __init__(self, sum: int, valuation: int | None, bounds: dict[str, int],
                 satisfied: dict[str, bool]):
        self.sum = sum
        self.valuation = valuation
        self.bounds = bounds
        self.satisfied = satisfied

    @property
    def all_satisfied(self) -> bool:
        return all(self.satisfied.values())


def check_lemma21(n: int, r: int, pp: PrimePower, f: IntegerValuedPoly) -> FleckReport:
    """Compute the restricted sum, its valuation, and all applicable bounds.

    The two general bounds must both be satisfied for every input (they
    are theorems); a caller observing a False flag there has found an
    implementation bug, not a counterexample.
    """
    s = restricted_sum(n, r, pp, f)
    val = ord_int(s, pp.p) if s else None
    l = max(f.degree_bound, 0)
    bounds = {
        "wan": wan_bound(n, pp, l),
        "factorial": factorial_bound(n, pp, l),
    }
    if l == 0 and pp.a >= 1:
        bounds["weisman"] = bounds["wan"]
        if pp.a == 1:
            bounds["fleck"] = bounds["wan"]
    satisfied = {name: val is None or val >= b for name, b in bounds.items()}
    return FleckReport(sum=s, valuation=val, bounds=bounds, satisfied=satisfied)


def gkp_identity_check(n: int, r: int, l: int) -> bool:
    """Check the alternating-binomial convolution identity underlying the a = 0 case.

    sum_{k=0}^{n} C(n,k) (-1)^k C(k-r, l)  ==  [l >= n] (-1)^n C(-r, l-n)

    The left side is the restricted sum at a = 0, for any p, with
    f = C(x, l).  Both sides are evaluated exactly; the identity holds
    for all inputs, so a False return signals a bug.
    """
    lhs = restricted_sum(n, r, PrimePower(2, 0), IntegerValuedPoly([0] * l + [1]))
    if l >= n:
        rhs = binom_int(-r, l - n)
        if n % 2:
            rhs = -rhs
    else:
        rhs = 0
    return lhs == rhs
