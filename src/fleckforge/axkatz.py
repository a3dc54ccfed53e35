"""Divisibility verifiers over the cube [0, p-1]^n.

Covers: the classical common-zero count divisible by p, its p^b
refinement for prime fields, the full-cube binomial-weight sum
divisibility, and the general gated weighted sum

    sum over points with p^(a_k) | f_k(x) for all k
        of  prod_k F_k(f_k(x) / p^(a_k))        = 0 (mod p^b)

under the exact-rational hypothesis on n.  Every verifier is an instance
of that sum: the zero counts gate each f_k on p | f_k with weight 1, and
the binomial-weight sums weight by C(f_k / p^a, l_k).  Each builds its
CongruenceSystem and its own hypothesis, and one helper computes the sum
and the verdict.  Two engines compute the sums: a vectorized modular one
(each per-point value is reduced mod p^(a_k + b + ord_p(l_k!)), which
pins the weight mod p^b), and a fully exact big-integer one used as an
independent cross-check.  The zero counts and Lemma 2.2 report exact
sums, so they always take the exact engine.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import CeilingExceeded, TheoremViolation
from .ivpoly import IntegerValuedPoly, eval_ivp
from .multipoly import (
    CubeSpec,
    MultiPoly,
    enumeration_ceiling,
    fold_poly_values,
    total_degree,
)
from .padic import PrimePower, is_prime, ord_factorial, phi_prime_power
from .padic import binom_int  # noqa: F401  unused here; tracers wrap it at this name

_CHUNK = 1 << 16  # fixed, so results do not depend on the worker count


@dataclass(frozen=True)
class Constraint:
    """One record (f_k, a_k, F_k) with declared degree bound l_k for F_k."""

    f: MultiPoly
    a: int
    F: IntegerValuedPoly
    l: int | None = None

    @property
    def l_eff(self) -> int:
        """Effective degree bound for F (declared, else from the coefficients)."""
        declared = self.l if self.l is not None else self.F.degree_bound
        return max(declared, self.F.degree_bound, 0)

    def __post_init__(self):
        if self.f.is_zero:
            raise ValueError("constraint polynomial must be nonzero")
        if self.a < 0:
            raise ValueError("a must be >= 0")
        if self.l is not None and self.l < self.F.degree_bound:
            raise ValueError(
                f"declared bound l={self.l} below actual degree {self.F.degree_bound}")


@dataclass(frozen=True)
class CongruenceSystem:
    """The data of the gated weighted-sum statement.

    Constraints may be supplied in any order; the index attaining
    max_k d_k * phi(p^(a_k)) is computed internally.
    """

    p: int
    b: int
    n_vars: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.b < 1:
            raise ValueError(f"b must be >= 1, got {self.b}")
        for c in self.constraints:
            if c.f.n_vars != self.n_vars:
                raise ValueError("all constraint polynomials must share n_vars")


@dataclass(frozen=True)
class DivisibilityVerdict:
    sum: int
    claimed_modulus: int
    hypothesis_holds: bool
    hypothesis_margin: Fraction
    divisible: bool


def hypothesis_16(sys: CongruenceSystem) -> tuple[bool, Fraction]:
    """Exact rational check of the dimension hypothesis.

    Returns (holds, margin) where margin = n - RHS and holds means the
    strict inequality n > RHS with

        RHS = (b-1) * max(d1*phi(p^(a1))/(p-1), 1)
              + (1/(p-1)) * sum_k ((l_k+1) p^(a_k) - [a_k != 0]) d_k

    and index 1 attains max_k d_k*phi(p^(a_k)).
    """
    p, b = sys.p, sys.b
    weighted = [total_degree(c.f) * phi_prime_power(PrimePower(p, c.a))
                for c in sys.constraints]
    dmax = max(weighted, default=0)
    rhs = (b - 1) * max(Fraction(dmax, p - 1), Fraction(1))
    for c in sys.constraints:
        iverson = 1 if c.a != 0 else 0
        rhs += Fraction(((c.l_eff + 1) * p ** c.a - iverson) * total_degree(c.f),
                        p - 1)
    margin = Fraction(sys.n_vars) - rhs
    return margin > 0, margin


class _GatedProduct:
    """Exact leaf: gate on p^(a_k) | v_k, weight by prod F_k(v_k / p^(a_k)).

    F evaluations are memoized per process; the memo never changes the
    value, only the cost.
    """

    def __init__(self, system: CongruenceSystem):
        self.pas = [system.p ** c.a for c in system.constraints]
        self.Fs = [c.F for c in system.constraints]
        self.memos: list[dict] = [{} for _ in system.constraints]

    def __call__(self, values) -> int:
        prod = 1
        for v, pa, F, memo in zip(values, self.pas, self.Fs, self.memos):
            if v % pa:
                return 0
            t = v // pa
            w = memo.get(t)
            if w is None:
                w = eval_ivp(F, t)
                memo[t] = w
            prod *= w
        return prod


def _modular_chunk(start, stop, p, n, pb, prepared):
    idx = np.arange(start, stop, dtype=np.int64)
    digits = [(idx // p ** (n - 1 - j)) % p for j in range(n)]
    mask = np.ones(stop - start, dtype=bool)
    weight = np.full(stop - start, 1 % pb, dtype=np.int64)
    for pa, mk, table, terms in prepared:
        val = np.zeros(stop - start, dtype=np.int64)
        powers: dict = {}
        for coeff, ve in terms:
            t = np.full(stop - start, coeff, dtype=np.int64)
            for j, e in ve:
                key = (j, e)
                dp = powers.get(key)
                if dp is None:
                    dp = (digits[j] ** e) % mk
                    powers[key] = dp
                t = (t * dp) % mk
            val = (val + t) % mk
        mask &= (val % pa) == 0
        weight = (weight * table[val // pa]) % pb
    return int(weight[mask].sum()) % pb


def _modular_sum(system: CongruenceSystem, workers: int) -> int:
    p, b, n = system.p, system.b, system.n_vars
    pb = p ** b
    size = p ** n
    if n == 0:
        leaf = _GatedProduct(system)
        return leaf(tuple(c.f.terms.get((), 0) for c in system.constraints)) % pb
    prepared = []
    for c in system.constraints:
        pa = p ** c.a
        span = b + ord_factorial(c.l_eff, p)  # arguments equal mod p^span pin F mod p^b
        mk = pa * p ** span
        table = np.array([eval_ivp(c.F, t) % pb for t in range(p ** span)],
                         dtype=np.int64)
        terms = [(coeff % mk, [(j, e) for j, e in enumerate(exps) if e])
                 for exps, coeff in c.f.terms.items()]
        prepared.append((pa, mk, table, terms))
    starts = range(0, size, _CHUNK)
    if workers <= 1 or len(starts) <= 1:
        total = 0
        for s in starts:
            total = (total + _modular_chunk(s, min(s + _CHUNK, size), p, n, pb,
                                            prepared)) % pb
        return total
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_modular_chunk, s, min(s + _CHUNK, size), p, n,
                               pb, prepared) for s in starts]
        return sum(f.result() for f in futures) % pb


def theorem12_sum(system: CongruenceSystem, workers: int = 1,
                  exact: bool = False, ceiling: int | None = None) -> int:
    """The gated weighted sum over the cube.

    Modular mode (default) reduces per-point values mod
    p^(a_k + b + ord_p(l_k!)) and returns the sum mod p^b; exact mode
    enumerates with big integers and returns the full sum.  The two
    agree mod p^b.  An empty constraint list means an always-open gate
    and weight 1, so the sum is the cube size.
    """
    spec = CubeSpec(system.p, system.n_vars)
    if not exact and not _fits_int64(system):
        # moduli too large for the vectorized engine; exact mode is always safe
        exact = True
    if exact:
        return fold_poly_values(spec, [c.f for c in system.constraints],
                                _GatedProduct(system), workers=workers,
                                ceiling=ceiling)
    cap = ceiling if ceiling is not None else enumeration_ceiling()
    if spec.size > cap:
        raise CeilingExceeded(required=spec.size, ceiling=cap)
    return _modular_sum(system, workers)


def _fits_int64(system: CongruenceSystem) -> bool:
    """Whether every intermediate of the vectorized engine fits in int64."""
    p = system.p
    for c in system.constraints:
        mk = p ** (c.a + system.b + ord_factorial(c.l_eff, p))
        max_exp = max((max(exps) for exps in c.f.terms if any(exps)), default=0)
        if mk * mk * p ** max_exp >= 2 ** 62:
            return False
    return True


def _binomial_system(polys, p: int, b: int, a: int, ls) -> CongruenceSystem:
    """Gate f_k on p^a | f_k(x) and weight it by C(f_k(x) / p^a, l_k)."""
    if len(polys) != len(ls):
        raise ValueError("need one binomial index per polynomial")
    if any(l < 0 for l in ls):
        raise ValueError("binomial indices must be >= 0")
    constraints = tuple(
        Constraint(f=f, a=a, F=IntegerValuedPoly([0] * l + [1]), l=l)
        for f, l in zip(polys, ls))
    n = polys[0].n_vars if polys else 0
    return CongruenceSystem(p=p, b=b, n_vars=n, constraints=constraints)


def _judge(system: CongruenceSystem, modulus: int, holds: bool, margin: Fraction,
           workers: int, exact: bool, ceiling: int | None,
           applies: bool = True) -> DivisibilityVerdict:
    """Sum the system and compare the sum with the claimed modulus.

    Raises TheoremViolation if the hypothesis holds, the statement applies
    (a side condition beyond the hypothesis) and the sum is not divisible:
    a proved impossibility.
    """
    s = theorem12_sum(system, workers=workers, exact=exact, ceiling=ceiling)
    verdict = DivisibilityVerdict(sum=s, claimed_modulus=modulus,
                                  hypothesis_holds=holds,
                                  hypothesis_margin=margin,
                                  divisible=s % modulus == 0)
    if holds and applies and not verdict.divisible:
        raise TheoremViolation(f"sum {s} not divisible by {modulus} although "
                               f"the hypothesis holds with margin {margin}")
    return verdict


def verify_theorem12(system: CongruenceSystem, workers: int = 1,
                     exact: bool = False,
                     ceiling: int | None = None) -> DivisibilityVerdict:
    """The gated weighted sum against p^b under hypothesis_16."""
    holds, margin = hypothesis_16(system)
    return _judge(system, system.p ** system.b, holds, margin, workers, exact,
                  ceiling)


def corollary11_verify(polys, a: int, b: int, ls, p: int, workers: int = 1,
                       exact: bool = False,
                       ceiling: int | None = None) -> DivisibilityVerdict:
    """Binomial-weight specialization: a_k = a, F_k(x) = C(x, l_k).

    The hypothesis used is

        n > (b-1) d_1 p^(a-1) + ((p^a-1)/(p-1)) sum d_k
            + (p^a/(p-1)) sum l_k d_k

    with d_1 the largest degree.  When it holds (and some d_k >= 1, the
    nondegenerate case), divisibility by p^b must follow.
    """
    polys, ls = list(polys), list(ls)
    if a < 1:
        raise ValueError("a must be >= 1")
    system = _binomial_system(polys, p, b, a, ls)
    degrees = [total_degree(f) for f in polys]
    d1 = max(degrees, default=0)
    rhs = Fraction((b - 1) * d1 * p ** (a - 1))
    rhs += Fraction((p ** a - 1) * sum(degrees), p - 1)
    rhs += Fraction(p ** a * sum(l * d for l, d in zip(ls, degrees)), p - 1)
    margin = Fraction(system.n_vars) - rhs
    return _judge(system, p ** b, margin > 0, margin, workers, exact, ceiling,
                  applies=d1 >= 1)


def chevalley_warning_verify(polys, p: int, workers: int = 1,
                             ceiling: int | None = None) -> DivisibilityVerdict:
    """Count common zeros mod p over the cube; p divides the count when
    the degree sum is smaller than the number of variables (hypothesis_16
    with b = 1 and every a_k = 1, F_k = 1)."""
    polys = list(polys)
    system = _binomial_system(polys, p, 1, 1, [0] * len(polys))
    holds, margin = hypothesis_16(system)
    return _judge(system, p, holds, margin, workers, True, ceiling)


def axkatz_prime_verify(polys, b: int, p: int, workers: int = 1,
                        ceiling: int | None = None) -> DivisibilityVerdict:
    """p^b divides the common-zero count when n > (b-1) d_1 + sum d_k and
    d_1 >= 1 (with only constants the count is 0 or p^n, whatever b)."""
    polys = list(polys)
    system = _binomial_system(polys, p, b, 1, [0] * len(polys))
    degrees = [total_degree(f) for f in polys]
    d1 = max(degrees, default=0)
    margin = Fraction(system.n_vars - ((b - 1) * d1 + sum(degrees)))
    return _judge(system, p ** b, margin > 0, margin, workers, True, ceiling,
                  applies=d1 >= 1)


def lemma22_verify(polys, js, c: int, p: int, workers: int = 1,
                   ceiling: int | None = None) -> DivisibilityVerdict:
    """Full-cube sum of prod_k C(f_k(x), j_k); p^c divides it when
    sum_k j_k deg f_k < (n - c + 1)(p - 1)."""
    polys, js = list(polys), list(js)
    if c < 0:
        raise ValueError("c must be >= 0")
    # the claimed modulus p^c may be 1; the system's own b only sizes the
    # modular engine, which this exact sum never uses
    system = _binomial_system(polys, p, max(c, 1), 0, js)
    degbound = sum(j * total_degree(f) for j, f in zip(js, polys))
    margin = Fraction((system.n_vars - c + 1) * (p - 1) - degbound)
    return _judge(system, p ** c, margin > 0, margin, workers, True, ceiling)
