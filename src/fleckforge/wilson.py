"""Synthesis of a binomial-basis polynomial matching f(q)g(r) modulo p^b.

Given an integer-valued polynomial f of degree at most l and a residue
table g on [0, p^a - 1], this builds the interpolating polynomial

    P(x) = sum_{n=0}^{d} c_n C(x, n)

whose coefficients are the forward differences of F(x) = f(floor(x/p^a))
* g(x mod p^a), truncated at the maximal d whose coefficient-valuation
bound M_d stays below b.  The congruence P(p^a q + r) = f(q) g(r)
(mod p^b) then holds for every integer q.
"""
from __future__ import annotations

from .exceptions import TheoremViolation
from .fleck import factorial_bound, wan_bound
from .ivpoly import IntegerValuedPoly, eval_ivp, forward_differences
from .padic import PrimePower, ord_int, phi_prime_power


class ResidueTable:
    """One period [g(0), ..., g(p^a - 1)] of a function periodic mod p^a."""

    __slots__ = ("pp", "values")

    def __init__(self, pp: PrimePower, values):
        values = tuple(int(v) for v in values)
        if len(values) != pp.modulus:
            raise ValueError(
                f"table must have exactly {pp.modulus} entries, got {len(values)}")
        self.pp = pp
        self.values = values


class NewtonPoly:
    """P(x) = sum c_n C(x, n) with per-coefficient valuation bounds.

    ``bound_records[n]`` is the proven lower bound M_n on ord_p(c_n);
    ``b`` is the target modulus exponent (congruences hold mod p^b).
    """

    __slots__ = ("coeffs", "pp", "b", "bound_records")

    def __init__(self, coeffs: tuple[int, ...], pp: PrimePower, b: int,
                 bound_records: tuple[int, ...]):
        self.coeffs = coeffs
        self.pp = pp
        self.b = b
        self.bound_records = bound_records

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class CongruenceReport:
    """Result of checking P(p^a q + r) = f(q) g(r) (mod p^b) on a grid."""

    __slots__ = ("ok", "checked", "counterexample")

    def __init__(self, ok: bool, checked: int,
                 counterexample: tuple[int, int] | None):  # (q, r), if any
        self.ok = ok
        self.checked = checked
        self.counterexample = counterexample


def bound_M(d: int, pp: PrimePower, l: int) -> int:
    """The coefficient-valuation bound M_d: max of the totient-floor and
    factorial-valuation bounds at degree d."""
    return max(wan_bound(d, pp, l), factorial_bound(d, pp, l))


def degree_limit(pp: PrimePower, l: int, b: int) -> int:
    """D* = l*p^a + ceil(p^(a-1)) + b*phi(p^a), beyond which the
    totient-floor term of M_d alone is >= b."""
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    half = pp.p ** (pp.a - 1) if pp.a >= 1 else 1  # ceil(p^(a-1))
    return l * pp.modulus + half + b * phi_prime_power(pp)


def max_degree(pp: PrimePower, l: int, b: int) -> int:
    """The maximal d with M_d < b, found by exhaustive scan.

    M_d is not assumed monotone; the scan runs to ``degree_limit``.  The
    result exists since M_0 <= 0.
    """
    best = None
    for d in range(degree_limit(pp, l, b) + 1):
        if bound_M(d, pp, l) < b:
            best = d
    if best is None:
        raise TheoremViolation("no degree with M_d < b; M_0 <= 0 should make d = 0 valid")
    return best


def _table_of_F(pp: PrimePower, f: IntegerValuedPoly, g: ResidueTable, d: int) -> list[int]:
    """Values F(0..d) of F(x) = f(floor(x/p^a)) * g(x mod p^a)."""
    q = pp.modulus
    return [eval_ivp(f, x // q) * g.values[x % q] for x in range(d + 1)]


def synthesize(pp: PrimePower, b: int, f: IntegerValuedPoly, g: ResidueTable) -> NewtonPoly:
    """Construct the truncated interpolating polynomial for f(q)g(r) mod p^b.

    Coefficients are forward differences of F at 0; before returning,
    ord_p(c_n) >= M_n is asserted for every n (this is a theorem, so a
    failure raises TheoremViolation).
    """
    if g.pp != pp:
        raise ValueError("residue table built for a different prime power")
    l = max(f.degree_bound, 0)
    d = max_degree(pp, l, b)
    coeffs = forward_differences(_table_of_F(pp, f, g, d))
    records = tuple(bound_M(n, pp, l) for n in range(d + 1))
    for n, (c, m) in enumerate(zip(coeffs, records)):
        if ord_int(c, pp.p) < m:
            raise TheoremViolation(
                f"coefficient c_{n} = {c} has ord_{pp.p} below its bound {m}")
    return NewtonPoly(coeffs=tuple(coeffs), pp=pp, b=b, bound_records=records)


def verify_theorem11(P: NewtonPoly, f: IntegerValuedPoly, g: ResidueTable,
                     q_range: tuple[int, int] = (-25, 25)) -> CongruenceReport:
    """Check P(p^a q + r) = f(q) g(r) (mod p^b), b = P.b, over a finite q grid.

    ``q_range`` is inclusive and should straddle 0; every residue r in
    [0, p^a - 1] is checked for each q.  An empty range (lo > hi) checks
    nothing and raises ValueError.  The congruence is a theorem, so
    failure means a bug; the first counterexample is reported.

    The points x = p^a q + r are consecutive, so P is stepped through its
    difference table mod p^b: d + 1 direct evaluations give the
    differences at the first x, and each later x costs d additions.  At
    r = 0 of every q, P is also evaluated directly, and a value that
    differs from the stepped one fails the check there.
    """
    pp = P.pp
    mod = pp.p ** P.b
    lo, hi = q_range
    if lo > hi:
        raise ValueError(f"q_range ({lo}, {hi}) is empty: lo must be <= hi")
    poly = IntegerValuedPoly(P.coeffs)
    start = pp.modulus * lo
    diffs = [v % mod for v in forward_differences(
        [eval_ivp(poly, start + i) for i in range(max(len(P.coeffs), 1))])]
    checked = 0
    for q in range(lo, hi + 1):
        fq = eval_ivp(f, q)
        for r in range(pp.modulus):
            checked += 1
            value = diffs[0]
            if ((value - fq * g.values[r]) % mod
                    or r == 0 and eval_ivp(poly, pp.modulus * q) % mod != value):
                return CongruenceReport(ok=False, checked=checked,
                                        counterexample=(q, r))
            for j in range(len(diffs) - 1):
                diffs[j] = (diffs[j] + diffs[j + 1]) % mod
    return CongruenceReport(ok=True, checked=checked, counterexample=None)
