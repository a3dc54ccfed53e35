import math
import random
from itertools import zip_longest

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    assert verify_theorem11(P, ONE, g).ok


def test_synthesize_zero_table():
    pp = PrimePower(3, 1)
    g = ResidueTable(pp, [0, 0, 0])
    P = synthesize(pp, 2, ONE, g)
    assert all(c == 0 for c in P.coeffs)
    assert verify_theorem11(P, ONE, g).ok


def test_synthesize_identity_no_period():
    pp = PrimePower(3, 0)
    f = IntegerValuedPoly([0, 1])
    g = ResidueTable(pp, [1])
    P = synthesize(pp, 1, f, g)
    assert P.coeffs == (0, 1)
    assert verify_theorem11(P, f, g).ok


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
            assert c == 0 or ord_int(c, pp.p) >= P.bound_records[n]
        assert verify_theorem11(P, f, g).ok


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
        # the first failing (q, r) of a direct scan over q = 0..D, counting
        # checked points
        top = max(wrong.degree, f.degree_bound, 0)
        scan = [(q, r) for q in range(top + 1) for r in range(pp.modulus)]
        checked, first = next(
            (i, qr) for i, qr in enumerate(scan, 1)
            if (eval_ivp(IntegerValuedPoly(wrong.coeffs), pp.modulus * qr[0] + qr[1])
                - eval_ivp(f, qr[0]) * g.values[qr[1]]) % pp.p ** b)
        report = verify_theorem11(wrong, f, g)
        assert (report.ok, report.counterexample, report.checked) == (
            False, first, checked)


@pytest.mark.parametrize("p,a,b", [(2, 1, 2), (3, 1, 2), (5, 1, 1), (2, 2, 3)])
def test_verify_theorem11_refuses_a_polynomial_that_passes_a_grid(p, a, b):
    # C(x + 8 p^a, 17 p^a) vanishes at x = p^a q + r for q in [-8, 8] and is
    # 1 at x = 9 p^a, so P plus it passes the grid q in [-8, 8] but not q = 9,
    # which lies in [0, D] since its degree is 17 p^a
    pp = PrimePower(p, a)
    rng = random.Random(p * 100 + a * 10 + b)
    f = IntegerValuedPoly([rng.randint(-50, 50) for _ in range(2)])
    g = ResidueTable(pp, [rng.randint(-50, 50) for _ in range(pp.modulus)])
    P = synthesize(pp, b, f, g)
    shift, top = 8 * pp.modulus, 17 * pp.modulus
    # Vandermonde: C(x + s, t) = sum_j C(s, t - j) C(x, j)
    extra = [math.comb(shift, top - j) if j <= top else 0 for j in range(top + 1)]
    coeffs = [c + e for c, e in zip_longest(P.coeffs, extra, fillvalue=0)]
    wrong = NewtonPoly(coeffs=tuple(coeffs), pp=pp, b=b,
                       bound_records=P.bound_records)
    poly = IntegerValuedPoly(coeffs)
    assert all((eval_ivp(poly, pp.modulus * q + r) - eval_ivp(f, q) * g.values[r])
               % p ** b == 0 for q in range(-8, 9) for r in range(pp.modulus))
    report = verify_theorem11(wrong, f, g)
    assert (report.ok, report.counterexample) == (False, (9, 0))
    assert verify_theorem11(P, f, g).ok


def test_verify_theorem11_refuses_an_empty_range():
    # it takes no range: every check covers q = 0..D, here D = deg P = 1
    pp = PrimePower(2, 1)
    g = ResidueTable(pp, [1, 0])
    P = synthesize(pp, 1, ONE, g)
    assert verify_theorem11(P, ONE, g).checked == pp.modulus * 2
    with pytest.raises(TypeError):
        verify_theorem11(P, ONE, g, q_range=(5, -5))


@given(st.integers(0, 2000), st.sampled_from([2, 3, 5, 7]), st.integers(0, 3),
       st.integers(0, 6))
def test_bound_M_is_nondecreasing(d, p, a, l):
    # max_degree's bisection rests on this
    pp = PrimePower(p, a)
    assert bound_M(d, pp, l) <= bound_M(d + 1, pp, l)


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
                assert tail[n] == 0 or ord_int(tail[n], pp.p) >= m


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
            assert c == 0 or ord_int(c, p) >= weisman_bound(n, pp)


def test_residue_table_length_check():
    with pytest.raises(ValueError):
        ResidueTable(PrimePower(2, 2), [1, 2])


def test_a_failed_synthesis_bound_is_a_theorem_violation(monkeypatch):
    # no coefficient can meet its valuation bound when every valuation is -inf
    monkeypatch.setattr(wilson, "ord_int", lambda v, p: -math.inf)
    pp = PrimePower(2, 1)
    with pytest.raises(TheoremViolation, match="below its bound"):
        synthesize(pp, 1, ONE, ResidueTable(pp, [1, 0]))
