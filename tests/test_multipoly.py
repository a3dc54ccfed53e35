import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleckforge.exceptions import CeilingExceeded
from fleckforge.multipoly import (
    CubeSpec,
    MultiPoly,
    ParseError,
    factorise,
    fold_poly_values,
    parse_poly,
    render_poly,
    total_degree,
)
from oracles import eval_poly, monomial


def test_parse_examples():
    f = parse_poly("x1 + x2 + x3", 3)
    assert len(f.terms) == 3 and total_degree(f) == 1

    f = parse_poly("(x1 + x2)^2", 2)
    assert f.terms == {monomial((2, 0)): 1, monomial((1, 1)): 2, monomial((0, 2)): 1}
    assert total_degree(f) == 2

    assert parse_poly("x1*x2 - x1*x2", 2).is_zero

    # products concatenate the pairs, in either order, or merge them and
    # add the exponents of a shared variable (x3, x1)
    f = parse_poly("(x1*x3 + x4)*(x2*x3 + x1 + x5)", 5)
    assert f.terms == {monomial((1, 1, 2, 0, 0)): 1, monomial((2, 0, 1, 0, 0)): 1,
                       monomial((1, 0, 1, 0, 1)): 1, monomial((0, 1, 1, 1, 0)): 1,
                       monomial((1, 0, 0, 1, 0)): 1, monomial((0, 0, 0, 1, 1)): 1}


def test_parse_precedence_and_unary_minus():
    assert parse_poly("1 + 2*3", 1).terms == {monomial((0,)): 7}
    assert parse_poly("-x1^2", 1).terms == {monomial((2,)): -1}
    assert parse_poly("2 - 3 - 4", 1).terms == {monomial((0,)): -5}
    assert parse_poly("-(x1 - 2)*x1", 1).terms == {monomial((2,)): -1, monomial((1,)): 2}
    assert parse_poly("3 - -2", 1).terms == {monomial((0,)): 5}


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse_poly("x1 + @", 2)
    assert err.value.pos == 5
    with pytest.raises(ParseError):
        parse_poly("x3", 2)  # variable index out of range
    with pytest.raises(ParseError):
        parse_poly("x1 ^ x2", 2)  # exponent must be a literal
    with pytest.raises(ParseError):
        parse_poly("x1 ^ -2", 2)
    with pytest.raises(ParseError):
        parse_poly("(x1 + 2", 2)
    # a digit that str.isdigit passes but int() does not read is a stray
    # character; a decimal digit of any script is read
    for text, pos in [("x1\u00b2", 2), ("2\u00b2*x1", 1)]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, 1)
        assert err.value.pos == pos
    assert parse_poly("x\u0661", 1).terms == {monomial((1,)): 1}


def test_trailing_space_is_read_in_linear_time():
    # a scan that retried its leading space at each position of a run at
    # the end would take about k^2 / 2 steps: seconds at k = 2 * 10^4
    space = " \t\u2028" * 7000
    t0 = time.monotonic()
    assert parse_poly("x1" + space, 1).terms == {monomial((1,)): 1}
    with pytest.raises(ParseError) as err:
        parse_poly(space, 1)
    assert err.value.pos == len(space)
    assert time.monotonic() - t0 < 1


def test_parse_builds_one_multipoly_whatever_the_length(monkeypatch):
    # the chain x1*x2 + ... + x(n-1)*xn + x1 + ... + xn has 2n - 1 terms
    built = []
    init = MultiPoly.__init__
    monkeypatch.setattr(MultiPoly, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    for n in (20, 200):
        chain = " + ".join([f"x{i}*x{i + 1}" for i in range(1, n)]
                           + [f"x{i}" for i in range(1, n + 1)])
        built.clear()
        assert len(parse_poly(chain, n).terms) == 2 * n - 1
        assert len(built) <= 2


@pytest.mark.parametrize("text,pairs", [
    # 2*2 pairs, then 2*2: x1*x2 cancels in the first product and costs nothing
    ("(x1 + x2)*(x1 - x2)*(x3 + 1)", 4 + 4),
    # square and multiply: 1*3 into the result, 3*3 squaring, then 3*6
    ("(x1 + x2 + 1)^3", 3 + 9 + 18),
    # 2^64 - 1 is one 64-bit word, 2^64 two and 2^128 three: 1*1 and 3*1
    # for the monomials, then (1 + 1)*(3 + 2) for the product
    (f"({2 ** 64 - 1}*x1 + 1)*({2 ** 128}*x2 + {2 ** 64})", 1 + 3 + 2 * 5),
])
def test_parse_is_charged_its_term_pairs(text, pairs):
    with pytest.raises(CeilingExceeded) as err:
        parse_poly(text, 3, ceiling=pairs - 1)
    assert (err.value.required, err.value.ceiling) == (pairs, pairs - 1)
    assert parse_poly(text, 3, ceiling=pairs).terms == parse_poly(text, 3).terms


def test_150_nested_parentheses_and_minuses_parse():
    assert (parse_poly("(" * 150 + "x1 - 2" + ")" * 150, 1).terms
            == parse_poly("x1 - 2", 1).terms)
    assert parse_poly("-" * 150 + "x1", 1).terms == parse_poly("x1", 1).terms


# precedence of a rendered expression: a literal, a variable or a
# parenthesised one binds tightest, then ^, unary minus, *, and + -
ATOM, POWER, NEG, PRODUCT, SUM = 4, 3, 2.5, 2, 1


def _wrap(part, loosest):
    text, prec = part
    return text if prec >= loosest else f"({text})"


def _binary(parts):
    left, op, right = parts
    if op == "*":
        return f"{_wrap(left, PRODUCT)} * {_wrap(right, NEG)}", PRODUCT
    return f"{_wrap(left, SUM)} {op} {_wrap(right, PRODUCT)}", SUM


def _expressions(n):
    """Texts of random expression trees in the grammar, with parentheses
    where the grammar and Python both need them, plus redundant ones.
    Python's unary minus binds tighter than *, the grammar's looser; the
    two readings have the same value.  Binary nodes are drawn three times
    as often as each other kind, so that a negation or a power often
    stands next to a sum or a product."""
    leaves = st.one_of(st.integers(0, 30).map(str),
                       st.integers(1, n).map("x{}".format)).map(lambda t: (t, ATOM))

    def extend(inner):
        binary = st.tuples(inner, st.sampled_from("+-*"), inner).map(_binary)
        return st.one_of(
            inner.map(lambda e: (f"({e[0]})", ATOM)),
            st.tuples(inner, st.integers(0, 3)).map(
                lambda t: (f"{_wrap(t[0], ATOM)}^{t[1]}", POWER)),
            inner.map(lambda e: ("-" + _wrap(e, PRODUCT), NEG)),
            binary, binary, binary)

    return st.recursive(leaves, extend, max_leaves=10).map(lambda e: e[0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    _expressions(n), st.lists(st.integers(-9, 9), min_size=n, max_size=n))))
def test_parse_agrees_with_python_evaluation(case):
    text, point = case
    names = {f"x{i + 1}": x for i, x in enumerate(point)}
    expected = eval(text.replace("^", "**"), {"__builtins__": {}}, names)
    assert eval_poly(parse_poly(text, len(point)), point) == expected


def _random_poly(rng, n_vars, max_deg=6, max_abs=99):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = [0] * n_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n_vars)] += 1
        c = rng.randint(-max_abs, max_abs)
        if c:
            key = monomial(exps)
            terms[key] = terms.get(key, 0) + c
    return MultiPoly(n_vars, terms)


def test_render_parse_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        n_vars = rng.randint(1, 5)
        f = _random_poly(rng, n_vars)
        g = parse_poly(render_poly(f), n_vars)
        assert (g.n_vars, g.terms) == (f.n_vars, f.terms)


@settings(max_examples=200)
@given(st.lists(st.tuples(*[st.integers(0, 3)] * 50).map(monomial), min_size=1,
                max_size=8, unique=True))
def test_render_order_is_graded_lex(monos):
    # the terms print by degree, then by exponent vector, largest first, as
    # the dense vectors over x1..x50 sort
    f = MultiPoly(50, {m: 1 for m in monos})
    dense = [tuple(dict(m).get(j, 0) for j in range(50)) for m in monos]
    order = sorted(dense, key=lambda e: (-sum(e), [-x for x in e]))
    assert render_poly(f) == " + ".join(render_poly(MultiPoly(50, {monomial(e): 1}))
                                        for e in order)


@pytest.mark.parametrize("mono", [
    ((1, 1), (0, 1)),  # unordered
    ((0, 1), (0, 2)),  # repeated
    ((3, 1),),  # out of range
    ((-1, 1),),
    ((0, 0),),  # zero exponent
    (1, 0),  # a dense exponent tuple, not pairs
    (2,),
    ((0, 1, 2),),
    ((0,),),
])
def test_multipoly_refuses_malformed_monomials(mono):
    with pytest.raises(ValueError, match=re.escape(str(mono))):
        MultiPoly(3, {mono: 1})


def test_parse_and_factorise_allocate_nothing_per_variable():
    # a term names only the variables it uses: at 10^6 variables, a term
    # as an exponent vector would take 8 MB
    tracemalloc.start()
    try:
        f = parse_poly("x1 + 2*x2 + 1", 10 ** 6)
        fact = factorise(10 ** 6, [f])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fact.free == 10 ** 6 - 2 and fact.constants == (1,)
    assert peak < 1 << 20


def test_eval_examples():
    assert eval_poly(parse_poly("x1 + x2 + x3", 3), (1, 1, 0)) == 2
    assert eval_poly(parse_poly("x1^2 * x2", 2), (3, 2)) == 18
    assert eval_poly(MultiPoly(2), (4, 5)) == 0
    with pytest.raises(ValueError):
        eval_poly(parse_poly("x1", 1), (1, 2))


def test_eval_matches_naive_term_sum():
    rng = random.Random(8)
    for _ in range(40):
        n_vars = rng.randint(1, 4)
        f = _random_poly(rng, n_vars)
        point = tuple(rng.randint(-6, 6) for _ in range(n_vars))
        naive = sum(c * _power_product(point, e) for e, c in f.terms.items())
        assert eval_poly(f, point) == naive


def _power_product(point, mono):
    v = 1
    for j, e in mono:
        v *= point[j] ** e
    return v


def test_total_degree():
    assert total_degree(parse_poly("x1^2*x2 + x3", 3)) == 3
    assert total_degree(parse_poly("5", 1)) == 0
    with pytest.raises(ValueError):
        total_degree(MultiPoly(2))


def _histogram(hist):
    """``fold_poly_values``' dict as a Counter of value tuples; every count
    is positive."""
    assert all(count > 0 for count in hist.values())
    return Counter(hist)


def _direct_counts(p, polys):
    return Counter(tuple(eval_poly(f, pt) for f in polys)
                   for pt in product(range(p), repeat=polys[0].n_vars))


def test_fold_poly_values_ceiling():
    # one component, which the frontier DP enumerates in 3 + 9 + 27 + 81
    # state steps, plus a histogram of the values 0..16
    f = parse_poly("x1*x2*x3*x4", 4)
    with pytest.raises(CeilingExceeded) as err:
        fold_poly_values(CubeSpec(3, 4), [f], ceiling=120 + 17 - 1)
    assert err.value.required == 120 + 17
    assert _histogram(fold_poly_values(CubeSpec(3, 4), [f], ceiling=120 + 17)) == \
        _direct_counts(3, [f])


def test_ceiling_argument_boundary():
    # 2 + 4 + 8 + 16 DP state steps plus a histogram of the values 0 and 1
    f = parse_poly("x1*x2*x3*x4", 4)
    with pytest.raises(CeilingExceeded) as err:
        fold_poly_values(CubeSpec(2, 4), [f], ceiling=31)
    assert err.value.required == 30 + 2
    assert _histogram(fold_poly_values(CubeSpec(2, 4), [f], ceiling=32)) == \
        Counter({(0,): 15, (1,): 1})


def test_fold_poly_values_matches_direct():
    rng = random.Random(31)
    for p in (2, 3):
        for n in range(1, 5):
            f = _random_poly(rng, n, max_deg=3, max_abs=9)
            g = _random_poly(rng, n, max_deg=2, max_abs=9)
            got = fold_poly_values(CubeSpec(p, n), [f, g])
            assert _histogram(got) == _direct_counts(p, [f, g])
    # constant terms far above the others, and primes where the bound on
    # log2(p - 1) per degree is not exact
    f = parse_poly("2^100 - 3*x1*x2^3 + 5*x2", 2)
    g = parse_poly("-2^70 + x1^2 - x2", 2)
    for p in (7, 11):
        assert _histogram(fold_poly_values(CubeSpec(p, 2), [f, g])) == _direct_counts(p, [f, g])


def test_fold_poly_values_worker_independence():
    # the enumerator runs in the caller's thread and reads only its
    # arguments; a five-variable cube over F_3 gives the same histogram
    rng = random.Random(53)
    f = _random_poly(rng, 5, max_deg=2, max_abs=9)
    g = _random_poly(rng, 5, max_deg=2, max_abs=9)
    spec = CubeSpec(3, 5)
    assert _histogram(fold_poly_values(spec, [f, g])) == _direct_counts(3, [f, g])
