import random
import sys
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fleckforge import axkatz
from fleckforge.axkatz import (
    CongruenceSystem,
    Constraint,
    DivisibilityVerdict,
    axkatz_prime_verify,
    chevalley_warning_verify,
    corollary11_verify,
    hypothesis_16,
    lemma22_verify,
    theorem12_sum,
    verify_theorem12,
)
from fleckforge.exceptions import CeilingExceeded, TheoremViolation
from fleckforge.ivpoly import IntegerValuedPoly, eval_ivp
from fleckforge.multipoly import MultiPoly, parse_poly, total_degree
from fleckforge.padic import binom_int
from oracles import eval_poly

ONE = IntegerValuedPoly([1])
X = IntegerValuedPoly([0, 1])


def brute_theorem12_sum(system):
    """Oracle: plain double loop with exact arithmetic, gate tested per point."""
    p, n = system.p, system.n_vars
    total = 0
    for pt in product(range(p), repeat=n):
        prod = 1
        for c in system.constraints:
            v = eval_poly(c.f, pt)
            pa = p ** c.a
            if v % pa:
                prod = 0
                break
            prod *= eval_ivp(c.F, v // pa)
        total += prod
    return total


def _system(p, b, n, triples):
    return CongruenceSystem(p=p, b=b, n_vars=n, constraints=tuple(
        Constraint(f=parse_poly(text, n), a=a, F=F) for text, a, F in triples))


def test_hypothesis_16_examples():
    # the margin is (p - 1)(n - RHS)
    sys1 = _system(2, 2, 3, [("x1+x2+x3", 1, ONE)])
    assert hypothesis_16(sys1) == 1  # RHS = 2, n = 3

    sys2 = _system(3, 1, 2, [("x1+x2", 1, ONE)])
    assert hypothesis_16(sys2) == 2 * 1  # RHS = 1, n = 2

    empty = CongruenceSystem(p=5, b=1, n_vars=3, constraints=())
    assert hypothesis_16(empty) == 4 * 3  # RHS = 0

    # a margin, not a verdict: an integer, and not positive when the
    # hypothesis fails
    short = _system(2, 2, 2, [("x1+x2", 1, ONE)])
    assert hypothesis_16(short) == 0 and isinstance(hypothesis_16(short), int)
    assert hypothesis_16(_system(3, 3, 2, [("x1+x2", 1, ONE)])) == 2 * -1


def test_theorem12_sum_examples():
    sys1 = _system(2, 2, 3, [("x1+x2+x3", 1, ONE)])
    assert theorem12_sum(sys1, exact=True) == 4  # even-sum points of {0,1}^3

    sys2 = _system(2, 1, 4, [("x1+x2+x3+x4", 1, X)])
    assert theorem12_sum(sys2, exact=True) == 8  # 6*1 + 1*2

    sys3 = _system(2, 1, 3, [("x1+x2+x3", 1, IntegerValuedPoly([]))])
    assert theorem12_sum(sys3, exact=True) == 0  # zero weight polynomial


def test_modular_matches_exact():
    rng = random.Random(64)
    for _ in range(40):
        p = rng.choice([2, 3])
        b = rng.randint(1, 3)
        n = rng.randint(1, 6)
        m = rng.randint(0, 2)
        triples = []
        for _ in range(m):
            f = _random_nonzero(rng, n)
            a = rng.randint(0, 2)
            F = IntegerValuedPoly([rng.randint(-9, 9)
                                   for _ in range(rng.randint(1, 3))])
            triples.append((f, a, F))
        system = CongruenceSystem(p=p, b=b, n_vars=n, constraints=tuple(
            Constraint(f=f, a=a, F=F) for f, a, F in triples))
        exact = theorem12_sum(system, exact=True)
        assert exact == brute_theorem12_sum(system)
        assert theorem12_sum(system) == exact % p ** b


def _random_nonzero(rng, n_vars, max_deg=2):
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


def test_empty_system_counts_cube():
    system = CongruenceSystem(p=3, b=1, n_vars=4, constraints=())
    assert theorem12_sum(system, exact=True) == 81
    # (3, 41, 40): p^n and p^b exceed int64, so the counts are Python integers
    for p, b, n in [(3, 1, 4), (2, 10, 3), (3, 5, 2), (5, 4, 1), (7, 3, 0), (3, 41, 40)]:
        system = CongruenceSystem(p=p, b=b, n_vars=n, constraints=())
        assert theorem12_sum(system) == p ** n % p ** b


def test_high_degree_term_stays_on_the_modular_engine(monkeypatch):
    cases = [
        # 3^45 does not fit in int64, but x^45 mod m_k of a digit x does
        (_system(3, 3, 3, [("x1^45 + x1*x2 + x2*x3", 1, X)]), 13),
        # m_k = 2^42, whose square passes int64: the sum is 150, reported mod 4
        (_system(2, 2, 3, [("2^40*x1*x2 + 2^41*x3 + 2^40", 40,
                            IntegerValuedPoly([3, 7]))]), 2),
    ]
    exact = [theorem12_sum(system, exact=True) for system, _ in cases]
    assert exact[1] == 150

    def no_exact_walk(*args, **kwargs):
        raise AssertionError("fell back to the exact engine")

    monkeypatch.setattr(axkatz, "fold_poly_values", no_exact_walk)
    for (system, residue), full in zip(cases, exact):
        assert theorem12_sum(system) == full % system.p ** system.b == residue


def test_verify_theorem12_examples():
    verdict = verify_theorem12(_system(2, 2, 3, [("x1+x2+x3", 1, ONE)]),
                               exact=True)
    assert verdict.sum == 4 and verdict.divisible and verdict.hypothesis_holds

    verdict = verify_theorem12(_system(2, 1, 4, [("x1+x2+x3+x4", 1, X)]),
                               exact=True)
    assert verdict.sum == 8 and verdict.divisible

    # hypothesis failure is a reported condition, never an error
    small = _system(2, 3, 1, [("x1", 1, ONE)])
    verdict = verify_theorem12(small, exact=True)
    assert not verdict.hypothesis_holds


def test_theorem12_random_sweep_no_violation():
    rng = random.Random(2025)
    count = 0
    while count < 100:
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
        verify_theorem12(system)  # raises TheoremViolation on failure
        count += 1


def test_gate_equivalence_with_unit_weights():
    # with every F = 1 the gated weighted sum is exactly the gated count
    rng = random.Random(7)
    for _ in range(20):
        p = rng.choice([2, 3])
        n = rng.randint(1, 5)
        f = _random_nonzero(rng, n)
        a = rng.randint(0, 2)
        system = CongruenceSystem(p=p, b=1, n_vars=n,
                                  constraints=(Constraint(f=f, a=a, F=ONE),))
        direct = sum(1 for pt in product(range(p), repeat=n)
                     if eval_poly(f, pt) % p ** a == 0)
        assert theorem12_sum(system, exact=True) == direct


def test_corollary11_examples():
    v = corollary11_verify([parse_poly("x1+x2+x3+x4", 4)], 1, 1, [1], 2,
                           exact=True)
    assert v.sum == 8 and v.hypothesis_holds and v.divisible

    v = corollary11_verify([parse_poly("x1+x2+x3", 3)], 1, 2, [0], 2,
                           exact=True)
    assert v.sum == 4 and v.hypothesis_holds and v.divisible

    v = corollary11_verify([parse_poly("x1+x2", 2)], 1, 1, [0], 3, exact=True)
    assert v.sum == 3 and v.hypothesis_holds and v.divisible


def test_chevalley_examples():
    v = chevalley_warning_verify([parse_poly("x1+x2", 2)], 3)
    assert v.sum == 3 and v.divisible

    v = chevalley_warning_verify([parse_poly("x1*x2", 3)], 2)
    assert v.sum == 6 and v.divisible

    v = chevalley_warning_verify([MultiPoly(2, {(0, 0): 1})], 2)
    assert v.sum == 0 and v.divisible


def test_axkatz_examples():
    v = axkatz_prime_verify([parse_poly("x1+x2+x3", 3)], 2, 2)
    assert v.sum == 4 and v.hypothesis_holds and v.divisible

    v = axkatz_prime_verify([parse_poly("x1+x2+x3", 3)], 1, 3)
    assert v.sum == 9 and v.divisible

    # b = 1 reduces to the common-zero count statement
    polys = [parse_poly("x1*x2 + x3", 3)]
    assert axkatz_prime_verify(polys, 1, 3).sum == \
        chevalley_warning_verify(polys, 3).sum


def test_consistency_between_verifiers():
    rng = random.Random(404)
    for _ in range(15):
        p = rng.choice([2, 3])
        n = rng.randint(2, 5)
        polys = [_random_nonzero(rng, n) for _ in range(rng.randint(1, 2))]
        b = rng.randint(1, 2)
        ak = axkatz_prime_verify(polys, b, p)
        cor = corollary11_verify(polys, 1, b, [0] * len(polys), p, exact=True)
        assert ak.sum % p ** b == cor.sum % p ** b
        if b == 1:
            assert ak.sum == chevalley_warning_verify(polys, p).sum


def test_lemma22_examples():
    v = lemma22_verify([parse_poly("x1+x2", 2)], [1], 2, 3)
    assert v.sum == 18 and v.divisible

    v = lemma22_verify([parse_poly("x1", 3), parse_poly("x2", 3)], [1, 1], 1, 2)
    assert v.sum == 2 and v.divisible

    v = lemma22_verify([parse_poly("x1", 4), parse_poly("x2", 4)], [0, 0], 3, 2)
    assert v.sum == 16 and v.divisible  # cube cardinality


def test_lemma22_sweep():
    rng = random.Random(11)
    for p in (2, 3):
        for n in range(1, 7):
            for _ in range(6):
                m = rng.randint(1, 2)
                polys = [_random_nonzero(rng, n) for _ in range(m)]
                js = [rng.randint(0, 2) for _ in range(m)]
                degbound = sum(j * max(sum(e) for e in f.terms)
                               for j, f in zip(js, polys))
                for c in range(0, n + 1):
                    if degbound < (n - c + 1) * (p - 1):
                        v = lemma22_verify(polys, js, c, p)
                        assert v.divisible, (p, n, js, c)


def test_lemma22_matches_brute_force():
    rng = random.Random(13)
    for _ in range(15):
        p = rng.choice([2, 3])
        n = rng.randint(1, 4)
        polys = [_random_nonzero(rng, n)]
        j = rng.randint(0, 3)
        direct = sum(binom_int(eval_poly(polys[0], pt), j)
                     for pt in product(range(p), repeat=n))
        assert lemma22_verify(polys, [j], 0, p).sum == direct


def test_ceiling_refusal():
    # one connected component, too dense for the frontier DP: 2^30 points
    # plus one histogram of the 2 residues 0 and 1 mod p^a; F = 1 is
    # constant, so either engine builds a one-entry F table
    product_text = "*".join(f"x{i}" for i in range(1, 31))
    system = _system(2, 1, 30, [(product_text, 1, ONE)])
    with pytest.raises(CeilingExceeded) as err:
        theorem12_sum(system, ceiling=10 ** 6)
    assert err.value.required == 2 ** 30 + 3
    with pytest.raises(CeilingExceeded) as err:
        theorem12_sum(system, exact=True, ceiling=10 ** 6)
    assert err.value.required == 2 ** 30 + 3


def test_periods_are_least_periods_of_the_weights():
    # C(x, l) mod p^b has least period p^(b + floor(log_p l)) (Zabek, 1956)
    f = parse_poly("x1", 1)

    def period_of(p, b, F, l=None, a=0):
        system = CongruenceSystem(p=p, b=b, n_vars=1, constraints=(
            Constraint(f=f, a=a, F=F, l=l),))
        (period,), (modulus,) = axkatz._periods(system)
        assert modulus == p ** a * period
        return period

    for p, b in product([2, 3, 5], [1, 2, 3]):
        for l in range(1, 3 * p + 1):
            period = period_of(p, b, IntegerValuedPoly([0] * l + [1]))

            def repeats(t):
                return all((binom_int(x + t, l) - binom_int(x, l)) % p ** b == 0
                           for x in range(-period, period))

            assert repeats(period) and not repeats(period // p), (p, b, l)
        # the declared bound l does not lengthen the period
        assert period_of(p, b, IntegerValuedPoly([4]), l=5, a=1) == 1
        assert period_of(p, b, IntegerValuedPoly([0, 0]), l=3) == 1
        assert period_of(p, b, IntegerValuedPoly([2, 3, 0]), l=9, a=2) == p ** b


def test_constraint_validation():
    with pytest.raises(ValueError):
        Constraint(f=MultiPoly(2), a=1, F=ONE)  # zero polynomial
    with pytest.raises(ValueError):
        Constraint(f=parse_poly("x1", 1), a=1, F=X, l=0)  # l below degree
    with pytest.raises(ValueError):
        CongruenceSystem(p=4, b=1, n_vars=1, constraints=())


def test_p_to_the_b_is_refused_past_the_digit_limit():
    # each p^b fits in 4300 digits and p^(b+1) does not; 3^(10^9) is
    # refused without being formed
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for p, b in [(2, 14284), (3, 9012), (10 ** 9 + 7, 477)]:
            CongruenceSystem(p=p, b=b, n_vars=1, constraints=())
            with pytest.raises(ValueError, match="more than 4300 digits"):
                CongruenceSystem(p=p, b=b + 1, n_vars=1, constraints=())
        with pytest.raises(ValueError, match="more than 4300 digits"):
            CongruenceSystem(p=3, b=10 ** 9, n_vars=1, constraints=())
        sys.set_int_max_str_digits(0)  # no limit
        CongruenceSystem(p=3, b=10 ** 9, n_vars=1, constraints=())
    finally:
        sys.set_int_max_str_digits(old)


# one instance per verifier, each with its hypothesis holding
HOLDING = {
    "theorem12": lambda: verify_theorem12(_system(2, 2, 3, [("x1+x2+x3", 1, ONE)])),
    "corollary11": lambda: corollary11_verify([parse_poly("x1+x2+x3+x4", 4)],
                                              1, 1, [1], 2),
    "chevalley": lambda: chevalley_warning_verify([parse_poly("x1+x2", 2)], 3),
    "axkatz": lambda: axkatz_prime_verify([parse_poly("x1+x2+x3", 3)], 2, 2),
    "lemma22": lambda: lemma22_verify([parse_poly("x1+x2", 2)], [1], 2, 3),
}


@pytest.mark.parametrize("kind", HOLDING)
def test_indivisible_sum_under_hypothesis_raises(monkeypatch, kind):
    assert HOLDING[kind]().hypothesis_holds
    monkeypatch.setattr(axkatz, "theorem12_sum", lambda system, **kw: 1)
    with pytest.raises(TheoremViolation):
        HOLDING[kind]()


def test_empty_polynomial_list_needs_n_vars():
    assert chevalley_warning_verify([], 3, n_vars=3).sum == 27
    assert lemma22_verify([], [], 2, 3, n_vars=3).sum == 27
    with pytest.raises(ValueError):
        chevalley_warning_verify([], 3)


def test_chevalley_count_on_3_to_the_200_points():
    # 200 singleton components under the default ceiling
    f = parse_poly(" + ".join(f"x{i}" for i in range(1, 201)), 200)
    assert chevalley_warning_verify([f], 3).sum == 3 ** 199


def test_high_b_modular_table_is_charged_to_the_ceiling():
    # f matters mod 2^30, so the modular engine's F table has 2^30 entries:
    # it is refused before the table is built, and the exact engine answers
    system = CongruenceSystem(p=2, b=30, n_vars=2, constraints=(
        Constraint(f=parse_poly("x1 - 3*x2 - 1", 2), a=0,
                   F=IntegerValuedPoly([3, 7])),))
    with pytest.raises(CeilingExceeded) as err:
        theorem12_sum(system, ceiling=10 ** 8)
    assert err.value.required == 2 ** 30 + 4 + 2 + 4  # table, points, pairs
    exact = theorem12_sum(system, exact=True, ceiling=10 ** 8)
    assert exact == 4 * 3 + 7 * (-1 + 0 - 4 - 3)
    low = CongruenceSystem(p=2, b=12, n_vars=2, constraints=system.constraints)
    assert theorem12_sum(low) == exact % 2 ** 12


def test_theorem12_where_its_hypothesis_has_slack():
    # p=5, a=2, l=1 and degree 2 need n >= 25 for b=1 (5^26 points here);
    # thirteen disjoint products factorise the cube into 25-point blocks
    rng = random.Random(5)
    n = 26
    terms = {}
    for i in range(0, n, 2):
        exps = [0] * n
        exps[i] = exps[i + 1] = 1
        terms[tuple(exps)] = rng.choice([1, 2, 3, 4])
    terms[(0,) * n] = rng.randint(1, 24)
    system = CongruenceSystem(p=5, b=1, n_vars=n, constraints=(
        Constraint(f=MultiPoly(n, terms), a=2, F=IntegerValuedPoly([3, 2]), l=1),))
    assert hypothesis_16(system) == 4 * Fraction(3, 2)  # (p - 1)(n - RHS)
    verdict = verify_theorem12(system)  # raises on a violation
    assert verdict.divisible and verdict.hypothesis_margin == "3/2"
    assert theorem12_sum(system, exact=True) % 5 == verdict.sum == 0


@st.composite
def _zero_count_cases(draw, max_degree=2):
    """(polynomials, p, n_vars): up to two nonzero polynomials of degree at
    most ``max_degree`` in each of n_vars <= 4 variables; with n_vars = 0
    or max_degree = 0 they are constants."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(0, 4))
    polys = []
    for _ in range(draw(st.integers(0, 2))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
            terms[exps] = terms.get(exps, 0) + draw(st.integers(-4, 4))
        f = MultiPoly(n, terms)
        if not f.is_zero:
            polys.append(f)
    return polys, p, n


@settings(max_examples=300, deadline=None)
@given(_zero_count_cases())
@example(([parse_poly("3", 1), parse_poly("2", 1)], 3, 1))
@example(([parse_poly("3", 0)], 3, 0))
@example(([parse_poly("1", 2)], 2, 2))
@example(([], 2, 0))
@example(([], 5, 3))
@example(([parse_poly("x1*x2 + x3", 3), parse_poly("2", 3)], 3, 3))
def test_chevalley_warning_is_axkatz_at_b_1(case):
    # Chevalley-Warning is the Ax-Katz statement with b = 1, all-constant and
    # empty polynomial lists included
    polys, p, n = case
    chevalley = chevalley_warning_verify(polys, p, n_vars=n)
    axkatz_b1 = axkatz_prime_verify(polys, 1, p, n_vars=n)
    assert all(getattr(chevalley, k) == getattr(axkatz_b1, k)
               for k in DivisibilityVerdict.__slots__)


@st.composite
def _corollary11_cases(draw, max_degree=2):
    """(polynomials, p, n_vars, a, b, ls): a zero-count case with a <= 2,
    b <= 4 and one binomial index l_k <= 2 per polynomial."""
    polys, p, n = draw(_zero_count_cases(max_degree))
    a, b = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    return polys, p, n, a, b, [draw(st.integers(0, 2)) for _ in polys]


@settings(max_examples=200, deadline=None)
@given(_corollary11_cases(max_degree=0))
@example(([parse_poly("2", 2)], 2, 2, 1, 3, [0]))
@example(([parse_poly("2", 3)], 2, 3, 1, 3, [0]))
@example(([parse_poly("3", 2), parse_poly("6", 2)], 3, 2, 1, 2, [1, 2]))
@example(([], 3, 0, 1, 1, []))
@example(([], 2, 4, 2, 4, []))
def test_constant_systems_hypothesis_implies_divisible(case):
    # with only constants the count is 0 or p^n times a constant, and
    # hypothesis_16's margin (p - 1)(n - b + 1) is positive only when p^b
    # divides p^n; a violation would raise here
    polys, p, n, a, b, ls = case
    for v in (corollary11_verify(polys, a, b, ls, p, n_vars=n),
              corollary11_verify(polys, a, b, ls, p, exact=True, n_vars=n),
              axkatz_prime_verify(polys, b, p, n_vars=n),
              chevalley_warning_verify(polys, p, n_vars=n)):
        assert v.divisible or not v.hypothesis_holds
    system = axkatz._binomial_system(polys, p, b, 1, [0] * len(polys), n)
    assert hypothesis_16(system) == (p - 1) * (n - b + 1)
    assert axkatz_prime_verify(polys, b, p, n_vars=n).hypothesis_margin == str(n - b + 1)


@settings(max_examples=200, deadline=None)
@given(_corollary11_cases())
def test_margins_equal_the_papers_formulas(case):
    # oracles: the paper's Ax-Katz and Corollary 1.1 hypotheses, written out
    # and multiplied by p - 1; with some d_k >= 1 they are hypothesis_16 of
    # the binomial system, and the verdict states them divided by p - 1
    polys, p, n, a, b, ls = case
    degrees = [total_degree(f) for f in polys]
    d1 = max(degrees, default=0)
    assume(d1 >= 1)
    axkatz_margin = (p - 1) * (n - ((b - 1) * d1 + sum(degrees)))
    assert hypothesis_16(axkatz._binomial_system(polys, p, b, 1, [0] * len(polys),
                                                 None)) == axkatz_margin
    assert (axkatz_prime_verify(polys, b, p).hypothesis_margin
            == str(axkatz_margin // (p - 1)))
    corollary_margin = ((p - 1) * n - ((b - 1) * d1 * p ** (a - 1) * (p - 1)
                                       + (p ** a - 1) * sum(degrees)
                                       + p ** a * sum(l * d for l, d in zip(ls, degrees))))
    assert hypothesis_16(axkatz._binomial_system(polys, p, b, a, ls,
                                                 None)) == corollary_margin
    assert (corollary11_verify(polys, a, b, ls, p).hypothesis_margin
            == str(Fraction(corollary_margin, p - 1)))


def _legendre(x, p):
    return 0 if x % p == 0 else (1 if pow(x, (p - 1) // 2, p) == 1 else -1)


@st.composite
def _quadratic_forms(draw):
    """(f, p, n, expected zero count): f = sum_{i <= r} c_i y_i^2 with
    y = A x, A unit upper-triangular mod p, and the closed-form count
    p^(n-r) N_r of Lidl-Niederreiter, Finite Fields, section 6.2."""
    p = draw(st.sampled_from([3, 5, 7]))
    n = draw(st.integers(1, {3: 8, 5: 6, 7: 5}[p]))
    r = draw(st.integers(1, n))
    cs = [draw(st.integers(1, p - 1)) for _ in range(r)]
    terms = {}
    for i, c in enumerate(cs):
        # y_i = x_i + sum_{j > i} A_ij x_j; zero entries split the variables
        y = {i: 1} | {j: draw(st.sampled_from([0, 0] + list(range(1, p))))
                      for j in range(i + 1, n)}
        for j, u in y.items():
            for k, v in y.items():
                exps = [0] * n
                exps[j] += 1
                exps[k] += 1
                terms[tuple(exps)] = terms.get(tuple(exps), 0) + c * u * v
    delta = 1
    for c in cs:
        delta *= c
    count = p ** (r - 1)
    if r % 2 == 0:
        chi = _legendre((-1) ** (r // 2) * delta, p)
        count += chi * (p - 1) * p ** (r // 2 - 1)
    return MultiPoly(n, terms), p, n, p ** (n - r) * count


@settings(max_examples=150, deadline=None)
@given(_quadratic_forms())
def test_quadratic_form_zero_count_matches_closed_form(case):
    f, p, n, expected = case
    assert axkatz_prime_verify([f], 1, p).sum == expected


def _det_mod(rows, p):
    """det of the n x n matrix mod p by Gaussian elimination; ``rows`` holds
    each row as a dict column -> entry, so a band matrix stays sparse."""
    rows = [dict(row) for row in rows]
    det = 1
    for j in range(len(rows)):
        pivot = next((i for i in range(j, len(rows)) if rows[i].get(j, 0) % p), None)
        if pivot is None:
            return 0
        if pivot != j:
            rows[j], rows[pivot] = rows[pivot], rows[j]
            det = -det
        det = det * rows[j][j] % p
        inverse = pow(rows[j][j], -1, p)
        for i in range(j + 1, len(rows)):
            factor = rows[i].get(j, 0) * inverse % p
            if factor:
                for k, v in rows[j].items():
                    rows[i][k] = (rows[i].get(k, 0) - factor * v) % p
    return det % p


def _check_form_equals_one(coeffs, p, n):
    """Q = sum c_ij x_i x_j (i <= j, ``coeffs`` maps (i, j) -> c_ij, 1-based)
    is nondegenerate mod p, so for even n, Q = 1 has
    p^(n-1) - p^(n/2-1) eta((-1)^(n/2) Delta) solutions (Lidl-Niederreiter,
    Finite Fields, Thm 6.26), Delta the determinant of Q's symmetric matrix,
    so the count's ord_p is n/2 - 1."""
    f = parse_poly(" + ".join(f"{c}*x{i}*x{j}" for (i, j), c in coeffs.items())
                   + " - 1", n)
    half = pow(2, -1, p)
    rows = [{} for _ in range(n)]
    for (i, j), c in coeffs.items():
        if i == j:
            rows[i - 1][i - 1] = c % p
        else:
            rows[i - 1][j - 1] = rows[j - 1][i - 1] = c * half % p
    delta = _det_mod(rows, p)
    assert delta  # the theorem's hypothesis
    expected = p ** (n - 1) - p ** (n // 2 - 1) * _legendre((-1) ** (n // 2) * delta, p)
    for b, divisible in ((n // 2 - 1, True), (n // 2, False)):
        verdict = axkatz_prime_verify([f], b, p)
        assert verdict.sum == expected
        assert verdict.divisible is divisible
        # (p - 1)(n - RHS) with RHS = 2b: 2(p - 1), then 0
        system = axkatz._binomial_system([f], p, b, 1, [0], None)
        assert hypothesis_16(system) == (p - 1) * (n - 2 * b)
        assert verdict.hypothesis_margin == str(n - 2 * b)


@pytest.mark.parametrize("p, n", [pytest.param(3, 60, id="60"),
                                  pytest.param(3, 200, id="200"),
                                  pytest.param(7, 300, id="p7-300")])
def test_chain_zero_count_matches_closed_form(p, n):
    # Q = x1^2 + sum_(i<n) x_i x_(i+1)
    _check_form_equals_one({(1, 1): 1} | {(i, i + 1): 1 for i in range(1, n)}, p, n)


def test_band_zero_count_matches_closed_form():
    # a quadratic form in which x_i meets only x_(i+1) and x_(i+2), with
    # nonzero coefficients mod 5
    p, n = 5, 120
    rng = random.Random(7)
    _check_form_equals_one({(i, j): rng.randrange(1, p) for i in range(1, n + 1)
                            for j in range(i, min(i + 2, n) + 1)}, p, n)


@st.composite
def _hou_cases(draw):
    """(polynomials, p, n): one to three nonzero polynomials of degree at
    most 2 in each of n <= 6 variables, p in {2, 3}."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            exps = tuple(draw(st.integers(0, 2)) for _ in range(n))
            terms[exps] = draw(st.integers(-4, 4).filter(bool))
        polys.append(MultiPoly(n, terms))
    return polys, p, n


@settings(max_examples=60, deadline=None)
@given(_hou_cases())
def test_hou_identity_for_systems(case):
    # Hou: sum_k y_k f_k(x) in n + m variables has p^(m-1) (p^n + (p-1) N)
    # zeros, where N is the common-zero count of f_1..f_m.  For a fixed x,
    # p^m points y are zeros when every f_k(x) = 0, and p^(m-1) otherwise.
    polys, p, n = case
    m = len(polys)
    terms = {exps + tuple(int(j == k) for j in range(m)): c
             for k, f in enumerate(polys) for exps, c in f.terms.items()}
    N = chevalley_warning_verify(polys, p, n_vars=n).sum
    count = chevalley_warning_verify([MultiPoly(n + m, terms)], p).sum
    assert count == p ** (m - 1) * (p ** n + (p - 1) * N)
