"""Seeded randomized property sweeps over all verifier modules.

Each sweep draws instances from a shared Random, checks a proved
statement on them, and records a compact instance descriptor.  The
descriptors depend only on the seed, so two runs with the same seed and
enough budget produce identical logs.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .axkatz import (
    CongruenceSystem,
    Constraint,
    hypothesis_16,
    lemma22_verify,
    verify_theorem12,
)
from .exceptions import TheoremViolation
from .fleck import check_lemma21, gkp_identity_check, restricted_sum
from .ivpoly import IntegerValuedPoly
from .multipoly import MultiPoly, render_poly, total_degree
from .padic import PrimePower
from .wilson import ResidueTable, synthesize, verify_theorem11


@dataclass
class SweepResult:
    log: list = field(default_factory=list)
    violations: list = field(default_factory=list)
    truncated: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_ivp(rng, max_l: int, max_abs: int = 9) -> IntegerValuedPoly:
    l = rng.randint(0, max_l)
    return IntegerValuedPoly([rng.randint(-max_abs, max_abs) for _ in range(l + 1)])


def _random_multipoly(rng, n_vars: int, max_deg: int, max_abs: int = 5) -> MultiPoly:
    """A random nonzero sparse polynomial with total degree <= max_deg."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * n_vars
            budget = rng.randint(0, max_deg)
            for _ in range(budget):
                exps[rng.randrange(n_vars)] += 1
            c = rng.randint(-max_abs, max_abs)
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + c
        f = MultiPoly(n_vars, terms)
        if not f.is_zero:
            return f


def _draws(iterations: int, result: SweepResult, deadline):
    """Up to ``iterations`` draws; once the deadline has passed, none more,
    and the result is marked truncated."""
    for i in range(iterations):
        if deadline is not None and time.monotonic() > deadline:
            result.truncated = True
            return
        yield i


def sweep_lemma21(rng, iterations: int, result: SweepResult, deadline=None):
    for _ in _draws(iterations, result, deadline):
        p = rng.choice([2, 3, 5, 7])
        a = rng.randint(0, 2)
        n = rng.randint(0, 60)
        r = rng.randint(-n, n) if n else 0
        f = _random_ivp(rng, 3)
        entry = {"sweep": "lemma21", "p": p, "a": a, "n": n, "r": r,
                 "f": list(f.coeffs)}
        result.log.append(entry)
        report = check_lemma21(n, r, PrimePower(p, a), f)
        for name in ("wan", "factorial"):
            if not report.satisfied[name]:
                result.violations.append({**entry, "bound": name,
                                          "sum": report.sum})


def sweep_gkp(rng, iterations: int, result: SweepResult, deadline=None):
    for _ in _draws(iterations, result, deadline):
        n = rng.randint(0, 25)
        r = rng.randint(-25, 25)
        l = rng.randint(0, 10)
        entry = {"sweep": "gkp", "n": n, "r": r, "l": l}
        result.log.append(entry)
        if not gkp_identity_check(n, r, l):
            result.violations.append(entry)


def sweep_partition(rng, iterations: int, result: SweepResult, deadline=None):
    one = IntegerValuedPoly([1])
    for _ in _draws(iterations, result, deadline):
        p = rng.choice([2, 3, 5])
        a = rng.randint(0, 2)
        n = rng.randint(0, 40)
        entry = {"sweep": "partition", "p": p, "a": a, "n": n}
        result.log.append(entry)
        pp = PrimePower(p, a)
        total = sum(restricted_sum(n, r, pp, one) for r in range(pp.modulus))
        expected = 1 if n == 0 else 0
        if total != expected:
            result.violations.append({**entry, "total": total})


def sweep_theorem11(rng, iterations: int, result: SweepResult, deadline=None):
    for _ in _draws(iterations, result, deadline):
        p = rng.choice([2, 3, 5])
        a = rng.randint(0, 2)
        b = rng.randint(1, 3)
        pp = PrimePower(p, a)
        f = IntegerValuedPoly([rng.randint(-50, 50)
                               for _ in range(rng.randint(0, 2) + 1)])
        g = ResidueTable(pp, [rng.randint(-50, 50) for _ in range(pp.modulus)])
        entry = {"sweep": "theorem11", "p": p, "a": a, "b": b,
                 "f": list(f.coeffs), "g": list(g.values)}
        result.log.append(entry)
        try:
            P = synthesize(pp, b, f, g)
        except TheoremViolation as exc:
            result.violations.append({**entry, "error": str(exc)})
            continue
        check = verify_theorem11(P, f, g, q_range=(-8, 8))
        if not check.ok:
            result.violations.append({**entry,
                                      "counterexample": check.counterexample})


def sweep_theorem12(rng, iterations: int, result: SweepResult, deadline=None):
    max_n = 12  # the most variables a draw may take
    for _ in _draws(iterations, result, deadline):
        p = rng.choice([2, 3])
        b = rng.randint(1, 3)
        m = rng.randint(1, 2)
        specs = [(rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1))
                 for _ in range(m)]  # (deg, a_k, l_k)
        # smallest n satisfying the dimension hypothesis for these parameters
        for n in range(1, max_n + 1):
            constraints = tuple(
                Constraint(f=_random_multipoly(rng, n, deg), a=a_k,
                           F=_random_ivp(rng, l_k), l=l_k)
                for deg, a_k, l_k in specs)
            system = CongruenceSystem(p=p, b=b, n_vars=n,
                                      constraints=constraints)
            if hypothesis_16(system) > 0:
                break
        else:
            # logged so that the dropped draw shows; the random stream is unchanged
            result.log.append({
                "sweep": "theorem12", "p": p, "b": b,
                "constraints": [{"deg": deg, "a": a_k, "l": l_k}
                                for deg, a_k, l_k in specs],
                "skipped": f"hypothesis fails for every n <= {max_n}"})
            continue
        entry = {"sweep": "theorem12", "p": p, "b": b, "n": n,
                 "constraints": [{"f": render_poly(c.f), "a": c.a,
                                  "F": list(c.F.coeffs), "l": c.l}
                                 for c in system.constraints]}
        result.log.append(entry)
        try:
            verify_theorem12(system)
        except TheoremViolation as exc:
            result.violations.append({**entry, "error": str(exc)})


def sweep_lemma22(rng, iterations: int, result: SweepResult, deadline=None):
    for _ in _draws(iterations, result, deadline):
        p = rng.choice([2, 3])
        n = rng.randint(1, 6)
        m = rng.randint(1, 2)
        polys = [_random_multipoly(rng, n, 2) for _ in range(m)]
        js = [rng.randint(0, 2) for _ in range(m)]
        degbound = sum(j * total_degree(f) for j, f in zip(js, polys))
        # the largest c with degbound < (n - c + 1)(p - 1); the sum does not
        # depend on c, and p^c | S implies it for every smaller c
        c = n - degbound // (p - 1)
        entry = {"sweep": "lemma22", "p": p, "n": n,
                 "polys": [render_poly(f) for f in polys], "js": js, "c": c}
        result.log.append(entry)
        if c < 0:
            continue
        try:
            lemma22_verify(polys, js, c, p)
        except TheoremViolation as exc:
            result.violations.append({**entry, "error": str(exc)})


DEFAULT_PLAN = (
    (sweep_lemma21, 200),
    (sweep_gkp, 200),
    (sweep_partition, 100),
    (sweep_theorem11, 25),
    (sweep_theorem12, 10),
    (sweep_lemma22, 15),
)


def run_sweeps(rng, rounds: int = 1, budget: float | None = None) -> SweepResult:
    """Run every sweep for the given number of rounds within the budget."""
    result = SweepResult()
    deadline = None if budget is None else time.monotonic() + budget
    for _ in range(rounds):
        for sweep, iterations in DEFAULT_PLAN:
            sweep(rng, iterations, result, deadline=deadline)
            if result.truncated:
                return result
    return result
