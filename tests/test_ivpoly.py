import random

from fleckforge.ivpoly import (
    IntegerValuedPoly,
    eval_ivp,
    forward_differences,
    ivp_from_values,
    monomials_to_ivp,
)
from fleckforge.padic import binom_int


def diffs_by_alternating_sum(values):
    """Independent oracle: c_n = sum_k C(n,k) (-1)^(n-k) f(k)."""
    out = []
    for n in range(len(values)):
        c = 0
        for k in range(n + 1):
            term = binom_int(n, k) * values[k]
            c += term if (n - k) % 2 == 0 else -term
        out.append(c)
    return out


def test_eval_examples():
    assert eval_ivp(IntegerValuedPoly([1]), -7) == 1
    assert eval_ivp(IntegerValuedPoly([0, 1]), 5) == 5
    assert eval_ivp(IntegerValuedPoly([0, 0, 1]), -2) == 3
    assert eval_ivp(IntegerValuedPoly([]), 3) == 0


def test_forward_differences_examples():
    assert forward_differences([1, 1, 1]) == [1, 0, 0]
    assert forward_differences([0, 1, 4, 9]) == [0, 1, 2, 0]
    assert forward_differences([1, 0]) == [1, -1]
    assert forward_differences([]) == []


def test_forward_differences_agree_with_alternating_sum():
    rng = random.Random(7)
    for _ in range(50):
        values = [rng.randint(-99, 99) for _ in range(rng.randint(0, 10))]
        assert forward_differences(values) == diffs_by_alternating_sum(values)


def test_from_values_examples():
    assert ivp_from_values([0, 1, 2, 3]).coeffs == (0, 1, 0, 0)
    assert ivp_from_values([1, 2, 4, 8]).coeffs == (1, 1, 1, 1)
    assert ivp_from_values([]).coeffs == ()


def test_round_trip_random_tables():
    rng = random.Random(11)
    for _ in range(60):
        values = [rng.randint(-500, 500) for _ in range(rng.randint(1, 12))]
        f = ivp_from_values(values)
        for i, v in enumerate(values):
            assert eval_ivp(f, i) == v


def test_binomial_basis_unit_vectors():
    for d in range(8):
        for j in range(d + 1):
            table = [binom_int(i, j) for i in range(d + 1)]
            expected = [0] * (d + 1)
            expected[j] = 1
            assert forward_differences(table) == expected


def test_monomials_to_ivp():
    assert monomials_to_ivp([0, 1]).coeffs == (0, 1)
    assert monomials_to_ivp([0, 0, 1]).coeffs == (0, 1, 2)  # x^2 = x + 2 C(x,2)
    assert monomials_to_ivp([5]).coeffs == (5,)
    assert monomials_to_ivp([]).coeffs == ()


def test_monomials_to_ivp_matches_horner_everywhere():
    rng = random.Random(3)
    for _ in range(30):
        mono = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        f = monomials_to_ivp(mono)
        for x in range(-10, 11):
            direct = sum(a * x ** j for j, a in enumerate(mono))
            assert eval_ivp(f, x) == direct
