"""Restricted alternating binomial sums and their valuation lower bounds.

The central object is

    S = sum over 0 <= k <= n, k = r (mod p^a) of C(n,k) (-1)^k f((k-r)/p^a)

for an integer-valued polynomial f of degree at most l.  Four lower
bounds on ord_p(S) are provided: the classical one for a = 1 and f = 1,
its prime-power extension, and the two general bounds (one totient-floor
style, one via factorial valuations) that hold for every f.
"""
from __future__ import annotations

from .ivpoly import IntegerValuedPoly, eval_ivp
from .padic import (
    PrimePower,
    Valuation,
    binom_int,
    ord_factorial,
    ord_int,
    phi_prime_power,
)


def restricted_sum(n: int, r: int, pp: PrimePower, f: IntegerValuedPoly) -> int:
    """Exact value of the restricted alternating sum over k = r (mod p^a).

    For each included k, (k - r)/p^a is an exact integer; the empty
    congruence class gives 0.  With f = 1 this is the classical
    alternating sum over a residue class.
    """
    q = pp.modulus
    k0 = r % q
    total = 0
    for k in range(k0, n + 1, q):
        term = binom_int(n, k) * eval_ivp(f, (k - r) // q)
        total += -term if k % 2 else term
    return total


def fleck_bound(n: int, p: int) -> int:
    """floor((n - 1)/(p - 1)); the a = 1, f = 1 valuation bound."""
    return (n - 1) // (p - 1)


def weisman_bound(n: int, pp: PrimePower) -> int:
    """floor((n - p^(a-1))/phi(p^a)) for a >= 1."""
    if pp.a < 1:
        raise ValueError("weisman_bound requires a >= 1; use wan_bound for a = 0")
    return (n - pp.p ** (pp.a - 1)) // phi_prime_power(pp)


def wan_bound(n: int, pp: PrimePower, l: int) -> int:
    """floor((n - l*p^a - p^(a-1))/phi(p^a)), exact for every a >= 0.

    For a = 0 that is floor(n - l - 1/p), and 0 < 1/p < 1 makes it
    n - l - 1.
    """
    if pp.a == 0:
        return n - l - 1
    return (n - l * pp.modulus - pp.p ** (pp.a - 1)) // phi_prime_power(pp)


def factorial_bound(n: int, pp: PrimePower, l: int) -> int:
    """ord_p(floor(n/p^(a-1))!) - ord_p(l!) - min(l, floor(n/p^a)).

    For a = 0, floor(n/p^(a-1)) means n*p.  The result may be negative.
    """
    p = pp.p
    if pp.a == 0:
        shifted = n * p
    else:
        shifted = n // p ** (pp.a - 1)
    return ord_factorial(shifted, p) - ord_factorial(l, p) - min(l, n // pp.modulus)


class FleckReport:
    """Outcome of checking one restricted sum against its bounds.

    ``bounds`` holds only the bounds applicable to the instance
    (the general pair always; the classical ones only for constant f
    with suitable a).  ``satisfied[name]`` is valuation >= bounds[name];
    negative bounds are trivially satisfied, not clamped.
    """

    __slots__ = ("n", "r", "pp", "f", "sum", "valuation", "bounds", "satisfied")

    def __init__(self, n: int, r: int, pp: PrimePower, f: IntegerValuedPoly,
                 sum: int, valuation: Valuation, bounds: dict[str, int],
                 satisfied: dict[str, bool]):
        self.n = n
        self.r = r
        self.pp = pp
        self.f = f
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
    val = ord_int(s, pp.p)
    l = max(f.degree_bound, 0)
    bounds = {
        "wan": wan_bound(n, pp, l),
        "factorial": factorial_bound(n, pp, l),
    }
    if f.degree_bound <= 0 and pp.a >= 1:
        bounds["weisman"] = weisman_bound(n, pp)
        if pp.a == 1:
            bounds["fleck"] = fleck_bound(n, pp.p)
    satisfied = {name: val >= b for name, b in bounds.items()}
    return FleckReport(n=n, r=r, pp=pp, f=f, sum=s, valuation=val,
                       bounds=bounds, satisfied=satisfied)


def gkp_identity_check(n: int, r: int, l: int) -> bool:
    """Check the alternating-binomial convolution identity underlying the a = 0 case.

    sum_{k=0}^{n} C(n,k) (-1)^k C(k-r, l)  ==  [l >= n] (-1)^n C(-r, l-n)

    Both sides are evaluated exactly; the identity holds for all inputs,
    so a False return signals a bug.
    """
    lhs = 0
    for k in range(n + 1):
        term = binom_int(n, k) * binom_int(k - r, l)
        lhs += -term if k % 2 else term
    if l >= n:
        rhs = binom_int(-r, l - n)
        if n % 2:
            rhs = -rhs
    else:
        rhs = 0
    return lhs == rhs
