import math
import random

import pytest

from fleckforge import wilson
from fleckforge.exceptions import TheoremViolation
from fleckforge.fleck import factorial_bound, wan_bound
from fleckforge.ivpoly import IntegerValuedPoly, eval_ivp, forward_differences
from fleckforge.padic import PrimePower, ord_int, phi_prime_power
from fleckforge.wilson import (
    NewtonPoly,
    ResidueTable,
    bound_M,
    max_degree,
    synthesize,
    verify_theorem11,
)
from oracles import weisman_bound

ONE = IntegerValuedPoly([1])


def oracle_max_degree(pp, l, b, scan=400):
    """Oracle: brute scan of max(wan, factorial) far past any plausible cutoff."""
    best = None
    for d in range(scan):
        if max(wan_bound(d, pp, l), factorial_bound(d, pp, l)) < b:
            best = d
    return best


def test_bound_M_values():
    assert bound_M(2, PrimePower(2, 1), 0) == 1
    assert bound_M(0, PrimePower(3, 1), 2) == 0
    assert bound_M(1, PrimePower(2, 1), 0) == 0


def test_max_degree_examples():
    assert max_degree(PrimePower(2, 1), 0, 1) == 1
    assert max_degree(PrimePower(3, 0), 1, 1) == 1
    # with p=2, a=1, l=0, b=2 the bounds give M_2 = 1 < 2 but M_3 = 2,
    # matching the classical degree cap b*phi + p^(a-1) = 3
    assert max_degree(PrimePower(2, 1), 0, 2) == 2


def test_max_degree_matches_oracle_scan():
    for p in (2, 3, 5):
        for a in (0, 1, 2):
            pp = PrimePower(p, a)
            for l in (0, 1, 2):
                for b in (1, 2, 3):
                    assert max_degree(pp, l, b) == oracle_max_degree(pp, l, b)


def test_synthesize_parity_indicator():
    pp = PrimePower(2, 1)
    g = ResidueTable(pp, [1, 0])
    P = synthesize(pp, 1, ONE, g)
    assert P.coeffs == (1, -1)
    assert verify_theorem11(P, ONE, g, q_range=(-10, 10)).ok


def test_synthesize_zero_table():
    pp = PrimePower(3, 1)
    g = ResidueTable(pp, [0, 0, 0])
    P = synthesize(pp, 2, ONE, g)
    assert all(c == 0 for c in P.coeffs)
    assert verify_theorem11(P, ONE, g, q_range=(-5, 5)).ok


def test_synthesize_identity_no_period():
    pp = PrimePower(3, 0)
    f = IntegerValuedPoly([0, 1])
    g = ResidueTable(pp, [1])
    P = synthesize(pp, 1, f, g)
    assert P.coeffs == (0, 1)
    assert verify_theorem11(P, f, g, q_range=(-30, 30)).ok


def test_eval_newton_values():
    P = NewtonPoly(coeffs=(1, -1), pp=PrimePower(2, 1), b=1, bound_records=(0, 0))
    poly = IntegerValuedPoly(P.coeffs)
    assert eval_ivp(poly, 7) == -6
    assert eval_ivp(poly, -4) == 5
    assert eval_ivp(poly, -4) % 2 == 1  # matches table entry g(0)=1 at even argument
    empty = NewtonPoly(coeffs=(), pp=PrimePower(2, 1), b=1, bound_records=())
    assert eval_ivp(IntegerValuedPoly(empty.coeffs), 3) == 0


def _random_instance(rng):
    p = rng.choice([2, 3, 5])
    a = rng.randint(0, 2)
    b = rng.randint(1, 3)
    pp = PrimePower(p, a)
    f = IntegerValuedPoly([rng.randint(-50, 50)
                           for _ in range(rng.randint(0, 2) + 1)])
    g = ResidueTable(pp, [rng.randint(-50, 50) for _ in range(pp.modulus)])
    return pp, b, f, g


def test_congruence_on_random_instances():
    rng = random.Random(99)
    for _ in range(40):
        pp, b, f, g = _random_instance(rng)
        P = synthesize(pp, b, f, g)
        for n, c in enumerate(P.coeffs):
            assert ord_int(c, pp.p) >= P.bound_records[n]
        assert verify_theorem11(P, f, g, q_range=(-25, 25)).ok


def test_verify_theorem11_catches_a_wrong_coefficient():
    rng = random.Random(7)
    for _ in range(20):
        pp, b, f, g = _random_instance(rng)
        P = synthesize(pp, b, f, g)
        k = rng.randrange(len(P.coeffs))
        coeffs = list(P.coeffs)
        coeffs[k] += 1
        wrong = NewtonPoly(coeffs=tuple(coeffs), pp=P.pp, b=P.b,
                           bound_records=P.bound_records)
        # the first failing (q, r) of a direct scan, counting checked points
        lo, hi = -5, 5
        scan = [(q, r) for q in range(lo, hi + 1) for r in range(pp.modulus)]
        checked, first = next(
            (i, qr) for i, qr in enumerate(scan, 1)
            if (eval_ivp(IntegerValuedPoly(wrong.coeffs), pp.modulus * qr[0] + qr[1])
                - eval_ivp(f, qr[0]) * g.values[qr[1]]) % pp.p ** b)
        report = verify_theorem11(wrong, f, g, q_range=(lo, hi))
        assert (report.ok, report.counterexample, report.checked) == (
            False, first, checked)


def test_verify_theorem11_refuses_an_empty_range():
    pp = PrimePower(2, 1)
    g = ResidueTable(pp, [1, 0])
    P = synthesize(pp, 1, ONE, g)
    assert verify_theorem11(P, ONE, g, q_range=(3, 3)).checked == pp.modulus
    with pytest.raises(ValueError, match="empty"):
        verify_theorem11(P, ONE, g, q_range=(5, -5))


def test_truncated_tail_differences_have_high_valuation():
    # beyond the cutoff, coefficients with M_n >= b vanish mod p^b
    rng = random.Random(123)
    for _ in range(20):
        pp, b, f, g = _random_instance(rng)
        P = synthesize(pp, b, f, g)
        l = max(f.degree_bound, 0)
        d = P.degree
        top = d + 2 * phi_prime_power(pp) * b
        q = pp.modulus
        values = [eval_ivp(f, x // q) * g.values[x % q] for x in range(top + 1)]
        tail = forward_differences(values)
        for n in range(d + 1, top + 1):
            m = bound_M(n, pp, l)
            if m >= b:
                assert ord_int(tail[n], pp.p) >= m


def test_periodicity_modulo_prime_power():
    rng = random.Random(321)
    for _ in range(15):
        pp, b, f, g = _random_instance(rng)
        P = synthesize(pp, b, f, g)
        # N = b + max ord_p(k) over k in [1, max(d, l)]
        top = max(P.degree, f.degree_bound, 0)
        N = b + max((ord_int(k, pp.p) for k in range(1, top + 1)), default=0)
        mod = pp.p ** b
        step = pp.p ** N
        poly = IntegerValuedPoly(P.coeffs)
        for x in range(-100, 101, 13):
            assert (eval_ivp(poly, x + step) - eval_ivp(poly, x)) % mod == 0


def test_wilson_lemma_examples():
    # Wilson's Lemma is synthesis with f = 1 and g the periodic table
    pp = PrimePower(2, 1)
    P = synthesize(pp, 1, ONE, ResidueTable(pp, [1, 0]))
    assert P.degree == 1
    pp = PrimePower(3, 1)
    P = synthesize(pp, 1, ONE, ResidueTable(pp, [0, 0, 0]))
    assert all(c == 0 for c in P.coeffs)
    pp = PrimePower(2, 2)
    P = synthesize(pp, 1, ONE, ResidueTable(pp, [1, 0, 0, 0]))
    assert P.degree < 1 * 2 + 2


def test_wilson_lemma_degree_bound_random():
    rng = random.Random(77)
    for _ in range(60):
        p = rng.choice([2, 3])
        a = rng.randint(1, 2)
        b = rng.randint(1, 3)
        pp = PrimePower(p, a)
        table = [rng.randint(-50, 50) for _ in range(pp.modulus)]
        P = synthesize(pp, b, ONE, ResidueTable(pp, table))
        assert P.degree < b * phi_prime_power(pp) + p ** (a - 1)
        for n, c in enumerate(P.coeffs):
            assert ord_int(c, p) >= weisman_bound(n, pp)


def test_residue_table_length_check():
    with pytest.raises(ValueError):
        ResidueTable(PrimePower(2, 2), [1, 2])


def test_a_failed_synthesis_bound_is_a_theorem_violation(monkeypatch):
    # no coefficient can meet its valuation bound when every valuation is -inf
    monkeypatch.setattr(wilson, "ord_int", lambda v, p: -math.inf)
    pp = PrimePower(2, 1)
    with pytest.raises(TheoremViolation, match="below its bound"):
        synthesize(pp, 1, ONE, ResidueTable(pp, [1, 0]))
