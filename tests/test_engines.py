"""Engine agreement on random factorisable systems.

Each system is built from a chosen split of the variables into blocks:
the terms of every polynomial stay inside one block, and a chain of
product terms links the variables of each block, so the factorisation
is known in advance.  The factorised exact sum is compared with a plain
walk over the cube, and the modular sum with the exact one mod p^b.
"""
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleckforge import multipoly
from fleckforge.axkatz import CongruenceSystem, Constraint, theorem12_sum
from fleckforge.ivpoly import IntegerValuedPoly, eval_ivp
from fleckforge.multipoly import MultiPoly, eval_poly, factorise, parse_poly, render_poly

coefficients = st.integers(-9, 9).filter(bool)


@st.composite
def factorisable(draw):
    """(p, polynomials, the variable sets of their components)."""
    p = draw(st.sampled_from([2, 3]))
    n = draw(st.integers(1, 6))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for var, label in enumerate(labels):
        blocks.setdefault(label, []).append(var)
    m = draw(st.integers(1, 2))
    terms = [{} for _ in range(m)]

    def add(block_vars, low):
        exps = [0] * n
        for var in block_vars:
            exps[var] = draw(st.integers(low, 2))
        # a key is never reused, so no coefficient cancels a link
        terms[draw(st.integers(0, m - 1))].setdefault(tuple(exps), draw(coefficients))

    components = []
    for block in blocks.values():
        if draw(st.booleans()) and len(block) == 1:
            continue  # a free variable
        components.append(tuple(block))
        for link in zip(block, block[1:]) if len(block) > 1 else [block]:
            add(link, 1)
        for _ in range(draw(st.integers(0, 2))):
            add(block, 0)
    for k in range(m):
        if draw(st.booleans()):
            terms[k].setdefault((0,) * n, draw(coefficients))
    return p, [MultiPoly(n, t) for t in terms], sorted(components)


def _cube_sum(p, polys, leaf):
    n = polys[0].n_vars
    return sum(leaf(tuple(eval_poly(f, pt) for f in polys))
               for pt in product(range(p), repeat=n))


def _weighted(values):
    out = 1
    for v in values:
        out *= v * v - 3 * v + 1
    return out


@settings(max_examples=80, deadline=None)
@given(factorisable(), st.sampled_from([1, 2]))
def test_factorised_exact_matches_cube_walk(case, workers):
    p, polys, components = case
    n = polys[0].n_vars
    fact = factorise(n, polys)
    assert [c.variables for c in fact.components] == components
    assert fact.free == n - sum(map(len, components))
    spec = multipoly.CubeSpec(p, n)
    assert multipoly.fold_poly_values(spec, polys, _weighted, workers=workers) == \
        _cube_sum(p, polys, _weighted)


@settings(max_examples=80, deadline=None)
@given(factorisable(), st.data())
def test_factorised_modular_matches_exact(case, data):
    p, polys, _ = case
    b = data.draw(st.integers(1, 3))
    constraints = tuple(
        Constraint(f=f, a=data.draw(st.integers(0, 2)),
                   F=IntegerValuedPoly(data.draw(
                       st.lists(st.integers(-9, 9), min_size=1, max_size=3))))
        for f in polys if not f.is_zero)
    system = CongruenceSystem(p=p, b=b, n_vars=polys[0].n_vars,
                              constraints=constraints)

    def leaf(values):
        out = 1
        for v, c in zip(values, constraints):
            if v % p ** c.a:
                return 0
            out *= eval_ivp(c.F, v // p ** c.a)
        return out

    exact = theorem12_sum(system, exact=True)
    if constraints:
        assert exact == _cube_sum(p, [c.f for c in constraints], leaf)
    else:
        assert exact == p ** system.n_vars
    for workers in (1, 2):
        assert theorem12_sum(system, workers=workers) == exact % p ** b


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 5))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), st.integers(-99, 99), max_size=6))
    return MultiPoly(n, terms)


@given(polynomials())
def test_render_parse_round_trip(f):
    assert parse_poly(render_poly(f), f.n_vars) == f


def _chain_system(n, b=2):
    text = " + ".join(f"x{i}*x{i + 1}" for i in range(1, n)) + " + x1 - 1"
    return CongruenceSystem(p=3, b=b, n_vars=n, constraints=(
        Constraint(f=parse_poly(text, n), a=1, F=IntegerValuedPoly([2, 1]), l=1),))


class _NoPool:
    def __init__(self, *args, **kwargs):
        raise AssertionError("a pool was started for a component of one chunk")


def test_no_pool_for_components_of_one_chunk(monkeypatch):
    monkeypatch.setattr(multipoly, "ThreadPoolExecutor", _NoPool)
    system = _chain_system(10)  # 3^10 = 59049 points, one chunk
    exact = theorem12_sum(system, exact=True, workers=2)
    assert theorem12_sum(system, workers=2) == exact % 9


def test_large_component_worker_independence():
    system = _chain_system(11)  # 3^11 points, three chunks
    exact = theorem12_sum(system, exact=True, workers=1)
    assert theorem12_sum(system, exact=True, workers=2) == exact
    residue = theorem12_sum(system, workers=1)
    assert residue == exact % 9
    assert theorem12_sum(system, workers=2) == residue


@pytest.mark.parametrize("text", ["x1", "x1*x2", "x1 + x2*x3"])
def test_free_variables_scale_the_sum(text):
    narrow = CongruenceSystem(p=3, b=4, n_vars=3, constraints=(
        Constraint(f=parse_poly(text, 3), a=1, F=IntegerValuedPoly([1, 1])),))
    wide = CongruenceSystem(p=3, b=4, n_vars=6, constraints=(
        Constraint(f=parse_poly(text, 6), a=1, F=IntegerValuedPoly([1, 1])),))
    assert theorem12_sum(wide, exact=True) == 27 * theorem12_sum(narrow, exact=True)
    assert theorem12_sum(wide) == 27 * theorem12_sum(narrow, exact=True) % 81


def test_values_beyond_int64_match_cube_walk():
    # two components, a free variable and a constant; values reach ~2^80
    text = ["2^70*x1*x2 - 3^45*x3^2 + x1*x3 + 2^80",
            "x4^3*x5 - 5^30*x4 + 7*x5^2 - 1"]
    polys = [parse_poly(t, 6) for t in text]
    assert max(abs(eval_poly(f, (2,) * 6)) for f in polys) > 2 ** 62
    spec = multipoly.CubeSpec(3, 6)
    assert multipoly.fold_poly_values(spec, polys, _weighted) == \
        _cube_sum(3, polys, _weighted)


@pytest.mark.parametrize("workers", [1, 2])
def test_values_beyond_int64_in_a_large_component(workers):
    # 3^11 points, three chunks: scaling every coefficient by 2^70 and
    # dividing it out in the leaf gives the unscaled sum
    f = _chain_system(11).constraints[0].f
    scaled = MultiPoly(11, {e: c << 70 for e, c in f.terms.items()})

    def unscale(values):
        assert all(v % (1 << 70) == 0 for v in values)
        return _weighted([v >> 70 for v in values])

    spec = multipoly.CubeSpec(3, 11)
    assert multipoly.fold_poly_values(spec, [scaled], unscale, workers=workers) == \
        multipoly.fold_poly_values(spec, [f], _weighted)


class _RecordingPool:
    """Runs the chunks in this thread and records the pool sizes asked for."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_never_exceeds_the_chunk_count(monkeypatch):
    monkeypatch.setattr(multipoly, "ThreadPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    system = _chain_system(11)  # 3^11 points, three chunks
    exact = theorem12_sum(system, exact=True, workers=10 ** 6)
    assert theorem12_sum(system, workers=10 ** 6) == exact % 9
    assert _RecordingPool.sizes == [3, 3]
    assert exact == theorem12_sum(system, exact=True, workers=1)
