import random
from itertools import product

import pytest

from fleckforge.exceptions import CeilingExceeded
from fleckforge.multipoly import (
    CubeSpec,
    MultiPoly,
    ParseError,
    eval_poly,
    fold_poly_values,
    parse_poly,
    render_poly,
    total_degree,
)


def test_parse_examples():
    f = parse_poly("x1 + x2 + x3", 3)
    assert len(f.terms) == 3 and total_degree(f) == 1

    f = parse_poly("(x1 + x2)^2", 2)
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert total_degree(f) == 2

    assert parse_poly("x1*x2 - x1*x2", 2).is_zero


def test_parse_precedence_and_unary_minus():
    assert parse_poly("1 + 2*3", 1).terms == {(0,): 7}
    assert parse_poly("-x1^2", 1).terms == {(2,): -1}
    assert parse_poly("2 - 3 - 4", 1).terms == {(0,): -5}
    assert parse_poly("-(x1 - 2)*x1", 1).terms == {(2,): -1, (1,): 2}
    assert parse_poly("3 - -2", 1).terms == {(0,): 5}


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


def _random_poly(rng, n_vars, max_deg=6, max_abs=99):
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = [0] * n_vars
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n_vars)] += 1
        c = rng.randint(-max_abs, max_abs)
        if c:
            key = tuple(exps)
            terms[key] = terms.get(key, 0) + c
    return MultiPoly(n_vars, terms)


def test_render_parse_round_trip():
    rng = random.Random(42)
    for _ in range(200):
        n_vars = rng.randint(1, 5)
        f = _random_poly(rng, n_vars)
        assert parse_poly(render_poly(f), n_vars) == f


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


def _power_product(point, exps):
    v = 1
    for x, e in zip(point, exps):
        v *= x ** e
    return v


def test_total_degree():
    assert total_degree(parse_poly("x1^2*x2 + x3", 3)) == 3
    assert total_degree(parse_poly("5", 1)) == 0
    with pytest.raises(ValueError):
        total_degree(MultiPoly(2))


def _count_point(values):
    return 1


def test_fold_poly_values_ceiling():
    with pytest.raises(CeilingExceeded) as err:
        fold_poly_values(CubeSpec(3, 4), [], _count_point, ceiling=80)
    assert err.value.required == 81


def test_ceiling_env_override(monkeypatch):
    monkeypatch.setenv("FLECKFORGE_CEILING", "10")
    with pytest.raises(CeilingExceeded):
        fold_poly_values(CubeSpec(2, 4), [], _count_point)
    monkeypatch.setenv("FLECKFORGE_CEILING", "100")
    assert fold_poly_values(CubeSpec(2, 4), [], _count_point) == 16


def _pair_product(values):
    a, b = values
    return a * b


def test_fold_poly_values_matches_direct():
    rng = random.Random(31)
    for p in (2, 3):
        for n in range(1, 5):
            f = _random_poly(rng, n, max_deg=3, max_abs=9)
            g = _random_poly(rng, n, max_deg=2, max_abs=9)
            direct = sum(eval_poly(f, pt) * eval_poly(g, pt)
                         for pt in product(range(p), repeat=n))
            got = fold_poly_values(CubeSpec(p, n), [f, g], _pair_product)
            assert got == direct


def test_fold_poly_values_worker_independence():
    rng = random.Random(53)
    f = _random_poly(rng, 5, max_deg=2, max_abs=9)
    g = _random_poly(rng, 5, max_deg=2, max_abs=9)
    spec = CubeSpec(3, 5)
    expected = fold_poly_values(spec, [f, g], _pair_product, workers=1)
    for workers in (2, 8):
        assert fold_poly_values(spec, [f, g], _pair_product,
                                workers=workers) == expected
