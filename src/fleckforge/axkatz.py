"""Divisibility verifiers over the cube [0, p-1]^n.

Covers: the classical common-zero count divisible by p, its p^b
refinement for prime fields, the full-cube binomial-weight sum
divisibility, and the general gated weighted sum

    sum over points with p^(a_k) | f_k(x) for all k
        of  prod_k F_k(f_k(x) / p^(a_k))        = 0 (mod p^b)

under the dimension hypothesis on n.  Every verifier is an instance
of that sum: the zero counts gate each f_k on p | f_k with weight 1, and
the binomial-weight sums weight by C(f_k / p^a, l_k).  One helper
computes the sum and the verdict.  Chevalley-Warning is Ax-Katz at b = 1,
Ax-Katz is Corollary 1.1 at a = 1, l_k = 0, and Corollary 1.1 is
Theorem 1.2 on its binomial system, so ``hypothesis_16`` judges all
four; Lemma 2.2 has its own margin.  The sum depends only on the
histogram of (f_1(x), ..., f_m(x)) over the cube, which is the
convolution of the histograms of the connected components of the
variables (``multipoly.factorise``), so each component is enumerated
alone, on Python integers: by a frontier DP over its variables, or, for
a dense component, as a product of the polynomials' low-rank factors on
two half sub-cubes.  One enumerator, ``multipoly.residue_histogram``,
serves both engines: the modular one counts residues mod p^(a_k) times
the least period of F_k mod p^b (``_periods``, after Zabek, 1956), which
pin every weight mod p^b; the exact one counts residues modulo a power of
two above twice the largest |f_k| its terms allow, which recover every
exact value.
One step then gates and weights either histogram (a dict from value
tuples to counts): it keeps the tuples with p^(a_k) | v_k for every k
and multiplies their counts by F_k(v_k / p^(a_k)), read from a table of
F_k mod p^b on the modular engine and evaluated exactly once per
distinct argument on the exact one.  The enumerator alone bounds the
work and refuses it above the ceiling; the modular engine passes it the
size of the F tables, and builds them only once the histogram is in.  A
constant F_k has period 1 and a one-entry table, so when every F_k is
constant, as in the zero counts, the exact engine takes the modular path
with exact tables and no reduction.  The zero counts and Lemma 2.2
report exact sums, so they always take the exact engine.
"""
from __future__ import annotations

import functools
import math

from .exceptions import TheoremViolation
from .ivpoly import IntegerValuedPoly, eval_ivp
from .multipoly import (
    CubeSpec,
    MultiPoly,
    factorise,
    fold_poly_values,
    residue_histogram,
    total_degree,
)
from .padic import PrimePower, is_prime, phi_prime_power, refuse_unprintable_power
from .padic import binom_int  # noqa: F401  unused here; tracers wrap it at this name


class Constraint:
    """One record (f_k, a_k, F_k) with degree bound l_k for F_k, which only
    the hypothesis reads: the declared one, else F_k's own (0 if constant)."""

    __slots__ = ("f", "a", "F", "l")

    def __init__(self, f: MultiPoly, a: int, F: IntegerValuedPoly,
                 l: int | None = None):
        if f.is_zero:
            raise ValueError("constraint polynomial must be nonzero")
        if a < 0:
            raise ValueError("a must be >= 0")
        if l is not None and l < F.degree_bound:
            raise ValueError(
                f"declared bound l={l} below actual degree {F.degree_bound}")
        self.f = f
        self.a = a
        self.F = F
        self.l = max(F.degree_bound if l is None else l, 0)


class CongruenceSystem:
    """The data of the gated weighted-sum statement.

    Constraints may be supplied in any order; the index attaining
    max_k d_k * phi(p^(a_k)) is computed internally.
    """

    __slots__ = ("p", "b", "n_vars", "constraints")

    def __init__(self, p: int, b: int, n_vars: int,
                 constraints: tuple[Constraint, ...]):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if b < 1:
            raise ValueError(f"b must be >= 1, got {b}")
        # every report prints p^b, and the hypothesis margin each p^(a_k)
        refuse_unprintable_power("p^b", p, b)
        for c in constraints:
            refuse_unprintable_power("p^a", p, c.a)
        if n_vars < 0:
            raise ValueError(f"n_vars must be >= 0, got {n_vars}")
        for c in constraints:
            if c.f.n_vars != n_vars:
                raise ValueError("all constraint polynomials must share n_vars")
        self.p = p
        self.b = b
        self.n_vars = n_vars
        self.constraints = constraints


class DivisibilityVerdict:
    __slots__ = ("sum", "claimed_modulus", "hypothesis_holds",
                 "hypothesis_margin", "divisible")

    def __init__(self, sum: int, claimed_modulus: int, hypothesis_holds: bool,
                 hypothesis_margin: str, divisible: bool):
        self.sum = sum
        self.claimed_modulus = claimed_modulus
        self.hypothesis_holds = hypothesis_holds
        self.hypothesis_margin = hypothesis_margin
        self.divisible = divisible


def hypothesis_16(sys: CongruenceSystem) -> int:
    """(p-1)(n - RHS), whose sign decides the dimension hypothesis n > RHS:

        (p-1) RHS = (b-1) * max(d1*phi(p^(a1)), p-1)
                    + sum_k ((l_k+1) p^(a_k) - [a_k != 0]) d_k

    with index 1 attaining max_k d_k*phi(p^(a_k)).
    """
    p = sys.p
    dmax = max((total_degree(c.f) * phi_prime_power(PrimePower(p, c.a))
                for c in sys.constraints), default=0)
    return (sys.n_vars * (p - 1) - (sys.b - 1) * max(dmax, p - 1)
            - sum(((c.l + 1) * p ** c.a - (c.a != 0)) * total_degree(c.f)
                  for c in sys.constraints))


def _gate_and_weight(system: CongruenceSystem, hist: dict, weigh,
                     modulus: int | None) -> int:
    """sum of count * prod_k [p^(a_k) | v_k] F_k(v_k / p^(a_k)) over the
    histogram ``hist`` (value tuple -> count); ``weigh(k, t)`` is the
    weight F_k(t).  Reduced mod ``modulus`` after every product, unless
    it is None.
    """
    pas = [system.p ** c.a for c in system.constraints]
    total = 0
    for values, count in hist.items():
        if any(v % pa for v, pa in zip(values, pas)):
            continue
        for k, (v, pa) in enumerate(zip(values, pas)):
            count *= weigh(k, v // pa)
            if modulus is not None:
                count %= modulus
        total += count
    return total if modulus is None else total % modulus


def theorem12_sum(system: CongruenceSystem, exact: bool = False,
                  ceiling: int | None = None) -> int:
    """The gated weighted sum over the cube, factorised by variable components.

    Modular mode (default) builds the histogram of (f_k mod m_k)_k, with
    m_k from ``_periods``, weights each occurring residue tuple from a
    table of F_k mod p^b over one period and returns the sum mod p^b.
    Exact mode takes the same path, with exact tables and no reduction,
    when every F_k is constant (its period is 1); otherwise it builds the
    histogram of exact value tuples (``fold_poly_values``), evaluates F_k
    once at each distinct argument and returns the full sum.  The two
    agree mod p^b.  An empty constraint list means an always-open gate
    and weight 1, so the sum is the cube size.
    """
    p, pb = system.p, system.p ** system.b
    polys = [c.f for c in system.constraints]
    periods, mods = _periods(system)
    if exact and any(period > 1 for period in periods):
        hist = fold_poly_values(CubeSpec(p, system.n_vars), polys, ceiling=ceiling)

        @functools.cache
        def weigh(k, t):
            return eval_ivp(system.constraints[k].F, t)

        return _gate_and_weight(system, hist, weigh, None)
    hist = residue_histogram(p, factorise(system.n_vars, polys), mods,
                             ceiling, tables=sum(periods))
    tables = [[eval_ivp(c.F, t) if exact else eval_ivp(c.F, t) % pb
               for t in range(period)]
              for c, period in zip(system.constraints, periods)]
    return _gate_and_weight(system, hist, lambda k, t: tables[k][t],
                            None if exact else pb)


def _periods(system: CongruenceSystem) -> tuple[list[int], list[int]]:
    """Periods of F_k mod p^b and moduli m_k = p^a_k * period_k.

    C(x, i) mod p^b has least period p^(b + floor(log_p i)) for i >= 1
    (Zabek, 1956), so F_k = sum_{i <= d_k} c_i C(x, i), with c_{d_k} its
    last nonzero coefficient, has period p^(b + floor(log_p d_k)), and a
    constant F_k has period 1.  Arguments of F_k equal mod its period pin
    F_k mod p^b, so f_k matters only mod m_k.
    """
    p = system.p
    periods = []
    for c in system.constraints:
        d = max((i for i, ci in enumerate(c.F.coeffs) if ci), default=0)
        period = 1 if d == 0 else p ** system.b
        while d >= p:
            period, d = period * p, d // p
        periods.append(period)
    return periods, [p ** c.a * period
                     for c, period in zip(system.constraints, periods)]


def _binomial_system(polys, p: int, b: int, a: int, ls,
                     n_vars: int | None) -> CongruenceSystem:
    """Gate f_k on p^a | f_k(x) and weight it by C(f_k(x) / p^a, l_k).

    The cube has ``n_vars`` dimensions, by default the polynomials' own;
    with no polynomials it must be given.
    """
    if len(polys) != len(ls):
        raise ValueError("need one binomial index per polynomial")
    if any(l < 0 for l in ls):
        raise ValueError("binomial indices must be >= 0")
    constraints = tuple(
        Constraint(f=f, a=a, F=IntegerValuedPoly([0] * l + [1]), l=l)
        for f, l in zip(polys, ls))
    if n_vars is None:
        if not polys:
            raise ValueError("n_vars is needed when there are no polynomials")
        n_vars = polys[0].n_vars
    return CongruenceSystem(p=p, b=b, n_vars=n_vars, constraints=constraints)


def _judge(system: CongruenceSystem, modulus: int, margin: int, unit: int,
           exact: bool, ceiling: int | None) -> DivisibilityVerdict:
    """Sum the system and compare the sum with the claimed modulus.

    The hypothesis holds when the integer ``margin`` is positive; the
    verdict states it as the reduced fraction margin/unit (``3/2``).
    Raises TheoremViolation if the hypothesis holds and the sum is not
    divisible: a proved impossibility.
    """
    g = math.gcd(margin, unit)
    shown = str(margin // g) if g == unit else f"{margin // g}/{unit // g}"
    s = theorem12_sum(system, exact=exact, ceiling=ceiling)
    verdict = DivisibilityVerdict(sum=s, claimed_modulus=modulus,
                                  hypothesis_holds=margin > 0,
                                  hypothesis_margin=shown,
                                  divisible=s % modulus == 0)
    if verdict.hypothesis_holds and not verdict.divisible:
        raise TheoremViolation(f"sum = {s % modulus} mod {modulus}, not divisible, "
                               f"although the hypothesis holds with margin {shown}")
    return verdict


def verify_theorem12(system: CongruenceSystem, exact: bool = False,
                     ceiling: int | None = None) -> DivisibilityVerdict:
    """The gated weighted sum against p^b under hypothesis_16."""
    return _judge(system, system.p ** system.b, hypothesis_16(system),
                  system.p - 1, exact, ceiling)


def corollary11_verify(polys, a: int, b: int, ls, p: int,
                       exact: bool = False, ceiling: int | None = None,
                       n_vars: int | None = None) -> DivisibilityVerdict:
    """Theorem 1.2 with a_k = a and F_k(x) = C(x, l_k), whose hypothesis is

        n > (b-1) max(d_1 p^(a-1), 1) + ((p^a-1)/(p-1)) sum d_k
            + (p^a/(p-1)) sum l_k d_k

    with d_1 the largest degree."""
    if a < 1:
        raise ValueError("a must be >= 1")
    system = _binomial_system(list(polys), p, b, a, list(ls), n_vars)
    return verify_theorem12(system, exact=exact, ceiling=ceiling)


def chevalley_warning_verify(polys, p: int, ceiling: int | None = None,
                             n_vars: int | None = None) -> DivisibilityVerdict:
    """p divides the common-zero count when n > sum d_k: the Ax-Katz
    statement at b = 1."""
    return axkatz_prime_verify(polys, 1, p, ceiling=ceiling, n_vars=n_vars)


def axkatz_prime_verify(polys, b: int, p: int, ceiling: int | None = None,
                        n_vars: int | None = None) -> DivisibilityVerdict:
    """p^b divides the common-zero count when
    n > (b-1) max(d_1, 1) + sum d_k: Corollary 1.1 at a = 1 and l_k = 0,
    counted exactly."""
    polys = list(polys)
    return corollary11_verify(polys, 1, b, [0] * len(polys), p, exact=True,
                              ceiling=ceiling, n_vars=n_vars)


def lemma22_verify(polys, js, c: int, p: int, ceiling: int | None = None,
                   n_vars: int | None = None) -> DivisibilityVerdict:
    """Full-cube sum of prod_k C(f_k(x), j_k); p^c divides it when
    sum_k j_k deg f_k < (n - c + 1)(p - 1)."""
    polys, js = list(polys), list(js)
    if c < 0:
        raise ValueError("c must be >= 0")
    # the claimed modulus p^c may be 1; the system's own b only sizes the
    # modular engine, which this exact sum never uses
    system = _binomial_system(polys, p, max(c, 1), 0, js, n_vars)
    degbound = sum(j * total_degree(f) for j, f in zip(js, polys))
    margin = (system.n_vars - c + 1) * (p - 1) - degbound
    return _judge(system, p ** c, margin, 1, True, ceiling)
