"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Run with `pytest tests/test_acceptance.py -v -s`."""
import random
import time
from itertools import product

from fleckforge.axkatz import (
    CongruenceSystem,
    Constraint,
    axkatz_prime_verify,
    chevalley_warning_verify,
    corollary11_verify,
    hypothesis_16,
    lemma22_verify,
    theorem12_sum,
    verify_theorem12,
)
from fleckforge.fleck import (
    check_lemma21,
    fleck_bound,
    gkp_identity_check,
    restricted_sum,
    weisman_bound,
)
from fleckforge.ivpoly import IntegerValuedPoly, forward_differences
from fleckforge.multipoly import MultiPoly, parse_poly
from fleckforge.padic import INFINITE, PrimePower, binom_int, ord_int
from fleckforge.wilson import (
    ResidueTable,
    synthesize,
    verify_theorem11,
    wilson_lemma,
)
from fleckforge.padic import phi_prime_power

ONE = IntegerValuedPoly([1])


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_lemma21_sweep():
    rng = random.Random(1)
    t0 = time.monotonic()
    checked = 0
    for p in (2, 3, 5, 7):
        for a in (0, 1, 2):
            pp = PrimePower(p, a)
            for n in range(0, 61):
                for r in {0, 1, pp.modulus - 1, -3}:
                    for _ in range(5):
                        l = rng.randint(0, 3)
                        f = IntegerValuedPoly(
                            [rng.randint(-9, 9) for _ in range(l + 1)])
                        rep = check_lemma21(n, r, pp, f)
                        assert rep.satisfied["wan"], (p, a, n, r, f.coeffs)
                        assert rep.satisfied["factorial"], (p, a, n, r, f.coeffs)
                        checked += 1
    elapsed = time.monotonic() - t0
    report(1, elapsed < 60,
           f"{checked} instances, zero violations, {elapsed:.1f}s")


def test_criterion_2_fleck_weisman_specializations():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7):
        for a in (1, 2):
            pp = PrimePower(p, a)
            for n in range(0, 61):
                for r in (0, 1, pp.modulus - 1, -3):
                    val = ord_int(restricted_sum(n, r, pp, ONE), p)
                    assert val >= weisman_bound(n, pp), (p, a, n, r)
                    if a == 1:
                        assert val >= fleck_bound(n, p), (p, n, r)
    # spot anchors, recomputed by direct summation
    direct = sum((-1) ** k * binom_int(3, k) for k in range(0, 4, 2))
    assert direct == 4
    assert restricted_sum(3, 0, PrimePower(2, 1), ONE) == 4
    direct = sum((-1) ** k * binom_int(6, k) for k in range(0, 7, 4))
    assert direct == 16
    assert restricted_sum(6, 0, PrimePower(2, 2), ONE) == 16
    elapsed = time.monotonic() - t0
    report(2, True, f"classical bounds hold on the full grid, {elapsed:.1f}s")


def test_criterion_3_gkp_identity():
    t0 = time.monotonic()
    cases = 0
    for n in range(0, 26):
        for r in range(-25, 26):
            for l in range(0, 11):
                assert gkp_identity_check(n, r, l), (n, r, l)
                cases += 1
    elapsed = time.monotonic() - t0
    report(3, elapsed < 10, f"{cases} cases all true, {elapsed:.1f}s")


def test_criterion_4_theorem11_instances():
    rng = random.Random(4)
    t0 = time.monotonic()
    for i in range(200):
        p = rng.choice([2, 3, 5])
        a = rng.randint(0, 2)
        b = rng.randint(1, 3)
        pp = PrimePower(p, a)
        l = rng.randint(0, 2)
        f = IntegerValuedPoly([rng.randint(-50, 50) for _ in range(l + 1)])
        g = ResidueTable(pp, [rng.randint(-50, 50) for _ in range(pp.modulus)])
        P = synthesize(pp, b, f, g)  # raises if any ord_p(c_n) < M_n
        for n, c in enumerate(P.coeffs):
            assert ord_int(c, p) >= P.bound_records[n]
        check = verify_theorem11(P, f, g, q_range=(-25, 25))
        assert check.ok, (i, p, a, b, f.coeffs, g.values, check.counterexample)
    elapsed = time.monotonic() - t0
    report(4, elapsed < 120, f"200 instances verified, {elapsed:.1f}s")


def test_criterion_5_wilson_degree_bound():
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice([2, 3])
        a = rng.randint(1, 2)
        b = rng.randint(1, 3)
        pp = PrimePower(p, a)
        table = [rng.randint(-99, 99) for _ in range(pp.modulus)]
        P = wilson_lemma(pp, b, table)
        assert P.degree < b * phi_prime_power(pp) + p ** (a - 1)
    report(5, True, "100 periodic tables, degree bound holds")


def test_criterion_6_newton_remainder():
    from fractions import Fraction
    from fleckforge.ivpoly import newton_remainder

    rng = random.Random(6)
    zero_cases = 0
    for _ in range(500):
        deg = rng.randint(0, 6)
        mono = [rng.randint(-9, 9) for _ in range(deg)] + [rng.randint(1, 9)]
        d = rng.randint(0, deg + 3)
        values = [sum(a * i ** j for j, a in enumerate(mono))
                  for i in range(d + 1)]
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 7))
        fx = sum(Fraction(a) * x ** j for j, a in enumerate(mono))
        coeffs = forward_differences(values)
        truncated = Fraction(0)
        binom = Fraction(1)
        for n, c in enumerate(coeffs):
            if n > 0:
                binom = binom * (x - n + 1) / n
            truncated += c * binom
        r = newton_remainder(values, x, fx)
        assert r == fx - truncated
        if deg <= d:
            assert r == 0
            zero_cases += 1
    report(6, True, f"500 cases exact, {zero_cases} with vanishing remainder")


def _random_nonzero(rng, n_vars, max_deg):
    while True:
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exps = [0] * n_vars
            for _ in range(rng.randint(0, max_deg)):
                exps[rng.randrange(n_vars)] += 1
            c = rng.randint(-5, 5)
            if c:
                key = tuple(exps)
                terms[key] = terms.get(key, 0) + c
        f = MultiPoly(n_vars, terms)
        if not f.is_zero:
            return f


def test_criterion_7_divisibility_sweeps():
    rng = random.Random(7)
    t0 = time.monotonic()

    # hand-derived anchors
    v = verify_theorem12(CongruenceSystem(p=2, b=2, n_vars=3, constraints=(
        Constraint(f=parse_poly("x1+x2+x3", 3), a=1, F=ONE),)), exact=True)
    assert v.sum == 4 and v.divisible
    v = verify_theorem12(CongruenceSystem(p=2, b=1, n_vars=4, constraints=(
        Constraint(f=parse_poly("x1+x2+x3+x4", 4), a=1,
                   F=IntegerValuedPoly([0, 1]), l=1),)), exact=True)
    assert v.sum == 8 and v.divisible
    v = lemma22_verify([parse_poly("x1+x2", 2)], [1], 2, 3)
    assert v.sum == 18 and v.divisible

    # 100 random hypothesis-satisfying systems, modular/exact cross-checked
    done = 0
    while done < 100:
        p = rng.choice([2, 3])
        b = rng.randint(1, 3)
        m = rng.randint(1, 2)
        specs = [(rng.randint(1, 2), rng.randint(0, 2), rng.randint(0, 1))
                 for _ in range(m)]
        for n in range(1, 13):
            constraints = tuple(
                Constraint(f=_random_nonzero(rng, n, deg), a=a,
                           F=IntegerValuedPoly(
                               [rng.randint(-9, 9) for _ in range(l + 1)]),
                           l=l)
                for deg, a, l in specs)
            system = CongruenceSystem(p=p, b=b, n_vars=n,
                                      constraints=constraints)
            if hypothesis_16(system) > 0:
                break
        else:
            continue
        verify_theorem12(system)  # raises on violation
        assert theorem12_sum(system) == \
            theorem12_sum(system, exact=True) % p ** b
        done += 1

    # classical specializations and lemma 2.2 on random instances
    for _ in range(25):
        p = rng.choice([2, 3])
        n = rng.randint(2, 6)
        polys = [_random_nonzero(rng, n, 2) for _ in range(rng.randint(1, 2))]
        chevalley_warning_verify(polys, p)  # raises on violation
        axkatz_prime_verify(polys, rng.randint(1, 2), p)
        corollary11_verify(polys, 1, 1, [0] * len(polys), p, exact=True)
        js = [rng.randint(0, 2) for _ in polys]
        degbound = sum(j * max(sum(e) for e in f.terms)
                       for j, f in zip(js, polys))
        for c in range(0, n + 1):
            if degbound < (n - c + 1) * (p - 1):
                lemma22_verify(polys, js, c, p)

    elapsed = time.monotonic() - t0
    report(7, elapsed < 300,
           f"anchors + {done} systems + classical sweeps, {elapsed:.1f}s")


def test_criterion_8_determinism_and_performance():
    n = 14
    text = " + ".join(f"x{i}" for i in range(1, n + 1)) + \
        " + x1*x2 + 2*x3*x4 - x5*x6"
    system = CongruenceSystem(p=3, b=2, n_vars=n, constraints=(
        Constraint(f=parse_poly(text, n), a=1,
                   F=IntegerValuedPoly([0, 1]), l=1),))
    t0 = time.monotonic()
    residue = theorem12_sum(system)
    elapsed = time.monotonic() - t0
    assert theorem12_sum(system) == residue
    exact = theorem12_sum(system, exact=True)
    assert exact % 9 == residue
    report(8, elapsed < 30,
           f"4.8M points in {elapsed:.1f}s; a second run and the exact-mode "
           f"result identical mod 9 (exact sum {exact})")
