import math
import random
from fractions import Fraction

from fleckforge.fleck import (
    check_lemma21,
    factorial_bound,
    gkp_identity_check,
    restricted_sum,
    wan_bound,
)
from fleckforge.ivpoly import IntegerValuedPoly, eval_ivp
from fleckforge.padic import PrimePower, binom_int, ord_int
from oracles import fleck_bound, weisman_bound

ONE = IntegerValuedPoly([1])


def brute_restricted_sum(n, r, p, a, f):
    """Oracle: term-by-term over all k with an explicit congruence test."""
    q = p ** a
    total = 0
    for k in range(n + 1):
        if (k - r) % q == 0:
            total += (-1) ** k * binom_int(n, k) * eval_ivp(f, (k - r) // q)
    return total


def test_restricted_sum_examples():
    assert restricted_sum(3, 0, PrimePower(2, 1), ONE) == 4  # C(3,0)+C(3,2)
    assert restricted_sum(5, 1, PrimePower(3, 1), ONE) == 0  # -C(5,1)+C(5,4)
    assert restricted_sum(6, 0, PrimePower(2, 1), IntegerValuedPoly([0, 1])) == 48


def test_restricted_sum_matches_brute_force():
    rng = random.Random(5)
    for _ in range(120):
        p = rng.choice([2, 3, 5])
        a = rng.randint(0, 2)
        n = rng.randint(0, 30)
        r = rng.randint(-n - 3, n + 3)
        f = IntegerValuedPoly([rng.randint(-9, 9)
                               for _ in range(rng.randint(1, 4))])
        assert restricted_sum(n, r, PrimePower(p, a), f) == \
            brute_restricted_sum(n, r, p, a, f)


def test_empty_class_is_zero():
    assert restricted_sum(3, 5, PrimePower(2, 3), ONE) == 0


def test_fleck_bound_values():
    # floor((n - 1)/(p - 1)), the bound at a = 1 and l = 0
    assert wan_bound(3, PrimePower(2, 1), 0) == 2
    assert wan_bound(0, PrimePower(5, 1), 0) == -1
    assert wan_bound(10, PrimePower(3, 1), 0) == 4


def test_weisman_bound_values():
    # floor((n - p^(a-1))/phi(p^a)), the bound at l = 0
    assert wan_bound(6, PrimePower(2, 2), 0) == 2
    assert wan_bound(1, PrimePower(3, 1), 0) == 0
    assert wan_bound(8, PrimePower(2, 3), 0) == 1


def test_wan_bound_values():
    assert wan_bound(6, PrimePower(2, 1), 1) == 3
    assert wan_bound(6, PrimePower(2, 2), 0) == 2
    assert wan_bound(4, PrimePower(3, 0), 1) == 2  # floor(4 - 1 - 1/3)


def test_wan_bound_at_a_0_is_the_rational_floor():
    # floor(n - l*p^0 - p^(0-1)) / phi(1), with 1/p kept exact
    for p in (2, 3, 5, 7, 101):
        pp = PrimePower(p, 0)
        for n in range(0, 40):
            for l in range(0, 8):
                assert wan_bound(n, pp, l) == math.floor(Fraction(n - l) - Fraction(1, p))


def test_wan_specializes_to_weisman_and_fleck():
    for p in (2, 3, 5):
        for a in (1, 2):
            pp = PrimePower(p, a)
            for n in range(0, 40):
                assert wan_bound(n, pp, 0) == weisman_bound(n, pp)
                if a == 1:
                    assert weisman_bound(n, pp) == fleck_bound(n, p)


def test_factorial_bound_values():
    assert factorial_bound(6, PrimePower(2, 1), 1) == 3
    assert factorial_bound(0, PrimePower(3, 1), 0) == 0
    assert factorial_bound(6, PrimePower(2, 0), 1) == 9  # ord_2(12!) - 0 - 1


def test_check_lemma21_reports():
    pp = PrimePower(2, 1)
    report = check_lemma21(6, 0, pp, IntegerValuedPoly([0, 1]))
    assert report.sum == 48
    assert report.valuation == 4
    assert report.bounds["wan"] == 3
    assert report.bounds["factorial"] == 3
    assert report.all_satisfied

    report = check_lemma21(5, 1, PrimePower(3, 1), ONE)
    assert report.sum == 0
    assert report.valuation is None
    assert report.all_satisfied

    report = check_lemma21(0, 0, pp, ONE)
    assert report.sum == 1
    assert report.valuation == 0
    assert report.bounds["wan"] <= 0
    assert report.all_satisfied


def test_lemma21_bounds_hold_broadly():
    rng = random.Random(2024)
    for p in (2, 3, 5, 7):
        for a in (0, 1, 2):
            pp = PrimePower(p, a)
            for _ in range(60):
                n = rng.randint(0, 60)
                r = rng.randint(-n, n) if n else 0
                f = IntegerValuedPoly([rng.randint(-9, 9)
                                       for _ in range(rng.randint(1, 4))])
                report = check_lemma21(n, r, pp, f)
                assert report.satisfied["wan"], (p, a, n, r, f.coeffs)
                assert report.satisfied["factorial"], (p, a, n, r, f.coeffs)


def test_partition_identity():
    for p in (2, 3, 5):
        for a in (0, 1, 2):
            pp = PrimePower(p, a)
            for n in range(0, 25):
                total = sum(restricted_sum(n, r, pp, ONE)
                            for r in range(pp.modulus))
                assert total == (1 if n == 0 else 0)


def test_gkp_examples():
    assert gkp_identity_check(2, 0, 1)
    assert gkp_identity_check(0, 1, 1)
    assert gkp_identity_check(1, 0, 2)


def test_gkp_identity_grid():
    for n in range(0, 16):
        for r in range(-12, 13):
            for l in range(0, 8):
                assert gkp_identity_check(n, r, l), (n, r, l)
