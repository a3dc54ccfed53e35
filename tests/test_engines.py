"""Engine agreement on random factorisable and coupled systems.

Each factorisable system is built from a chosen split of the variables
into blocks: the terms of every polynomial stay inside one block, and a
chain of product terms links the variables of each block, so the
factorisation is known in advance.  Each coupled system links all its
variables but the free ones into one component: a chain, a band, a
dense quadratic form, or cubic terms across the component's halves,
shared by several polynomials.  The exact value histogram and the sums
of both engines are compared with a plain walk over the cube, and so
are the histograms of both plans that enumerate a component, the
frontier DP and the row-block product.
"""
from collections import Counter
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fleckforge import axkatz, multipoly
from fleckforge.axkatz import CongruenceSystem, Constraint, theorem12_sum
from fleckforge.exceptions import CeilingExceeded
from fleckforge.ivpoly import IntegerValuedPoly, eval_ivp
from fleckforge.multipoly import MultiPoly, factorise, parse_poly, render_poly
from oracles import eval_poly

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


def _value_counts(p, polys):
    """How often each tuple of exact values occurs over the cube."""
    return Counter(tuple(eval_poly(f, pt) for f in polys)
                   for pt in product(range(p), repeat=polys[0].n_vars))


def _histogram(hist):
    """``fold_poly_values``' dict as a Counter of value tuples; every count
    is positive."""
    assert all(count > 0 for count in hist.values())
    return Counter(hist)


def _cube_sum(p, polys, leaf):
    return sum(count * leaf(values)
               for values, count in _value_counts(p, polys).items())


def _leaf(system):
    """The gated product of one value tuple, by the definition."""
    def leaf(values):
        out = 1
        for v, c in zip(values, system.constraints):
            if v % system.p ** c.a:
                return 0
            out *= eval_ivp(c.F, v // system.p ** c.a)
        return out
    return leaf


@settings(max_examples=80, deadline=None)
@given(factorisable())
def test_factorised_exact_matches_cube_walk(case):
    p, polys, components = case
    n = polys[0].n_vars
    fact = factorise(n, polys)
    assert [c.variables for c in fact.components] == components
    assert fact.free == n - sum(map(len, components))
    spec = multipoly.CubeSpec(p, n)
    assert _histogram(multipoly.fold_poly_values(spec, polys)) == _value_counts(p, polys)


def _random_system(data, p, n, polys):
    """A theorem12 system on ``polys`` with drawn a_k, F_k and b, and its
    gated product.  F_k has up to 2p + 2 coefficients, so its degree may
    reach p, where its period outgrows p^b."""
    b = data.draw(st.integers(1, 3))
    constraints = tuple(
        Constraint(f=f, a=data.draw(st.integers(0, 2)),
                   F=IntegerValuedPoly(data.draw(
                       st.lists(st.integers(-9, 9), min_size=1, max_size=2 * p + 2))))
        for f in polys)
    system = CongruenceSystem(p=p, b=b, n_vars=n, constraints=constraints)
    return system, _leaf(system)


@settings(max_examples=80, deadline=None)
@given(factorisable(), st.data())
def test_factorised_modular_matches_exact(case, data):
    p, polys, _ = case
    system, leaf = _random_system(data, p, polys[0].n_vars,
                                  [f for f in polys if not f.is_zero])
    exact = theorem12_sum(system, exact=True)
    if system.constraints:
        assert exact == _cube_sum(p, [c.f for c in system.constraints], leaf)
    else:
        assert exact == p ** system.n_vars
    assert theorem12_sum(system) == exact % p ** system.b


@st.composite
def coupled(draw):
    """(p, polynomials, the variables of their one component).

    Link terms join the component's variables as a chain, a band of
    width 2 or 3, a dense quadratic form, or cubic terms whose third
    variable may fall on either half of the component; each link goes to
    a drawn polynomial, so several polynomials share the component.
    Every polynomial also gets one more term on the component, and
    variables outside it are free.
    """
    p = draw(st.sampled_from([2, 3]))
    size = draw(st.integers(2, 8 if p == 2 else 5))
    n = size + draw(st.integers(0, 2))
    variables = sorted(draw(st.permutations(range(n)))[:size])
    m = draw(st.integers(1, 3))
    terms = [{} for _ in range(m)]

    def add(k, chosen, low):
        exps = [0] * n
        for var in chosen:
            exps[var] += draw(st.integers(low, 3))
        if any(exps):
            # a key is never reused, so no coefficient cancels a link
            terms[k].setdefault(tuple(exps), draw(coefficients))

    shape = draw(st.sampled_from(["chain", "banded", "dense", "cubic"]))
    if shape == "dense":
        links = [(u, v) for i, u in enumerate(variables) for v in variables[i:]]
    elif shape == "banded":
        width = draw(st.integers(2, 3))
        links = [(u, v) for i, u in enumerate(variables)
                 for v in variables[i + 1:i + 1 + width]]
    else:
        links = list(zip(variables, variables[1:]))
        if shape == "cubic":
            links = [(u, v, draw(st.sampled_from(variables))) for u, v in links]
            links.append((variables[0], variables[size // 2], variables[-1]))
    for link in links:
        exps = [0] * n
        for var in link:
            exps[var] += 1
        terms[draw(st.integers(0, m - 1))].setdefault(tuple(exps), draw(coefficients))
    for k in range(m):
        add(k, draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3)), 1)
        for _ in range(draw(st.integers(0, 2))):
            add(k, variables, 0)
        if draw(st.booleans()):
            terms[k].setdefault((0,) * n, draw(coefficients))
    return p, [MultiPoly(n, t) for t in terms], tuple(variables)


@settings(max_examples=60, deadline=None)
@given(coupled(), st.data())
def test_coupled_components_match_cube_walk(case, data):
    p, polys, variables = case
    n = polys[0].n_vars
    fact = factorise(n, polys)
    assert [c.variables for c in fact.components] == [variables]
    assert fact.free == n - len(variables)
    system, leaf = _random_system(data, p, n, polys)
    counts = _value_counts(p, polys)
    gated = sum(c * leaf(v) for v, c in counts.items())
    spec = multipoly.CubeSpec(p, n)
    assert _histogram(multipoly.fold_poly_values(spec, polys)) == counts
    assert theorem12_sum(system, exact=True) == gated
    assert theorem12_sum(system) == gated % p ** system.b


@settings(max_examples=80, deadline=None)
@given(coupled(), st.booleans(), st.data())
def test_both_plans_match_cube_walk(case, box, data):
    # the frontier DP and the row-block product on the same component,
    # with the modular engine's prime-power moduli (3^45 and 2^70 exceed
    # int64) or one more than the width of each value box
    p, polys, variables = case
    n = polys[0].n_vars
    if box:
        mods = [sum(abs(c) * (p - 1) ** sum(e) for e, c in f.terms.items()) + 1
                for f in polys]
    else:
        mods = [p ** data.draw(st.sampled_from([1, 2, 4, 45 if p == 3 else 70]))
                for _ in polys]
    walk = Counter(tuple(eval_poly(f, x) % mk for f, mk in zip(polys, mods))
                   for x in product(range(p), repeat=n))
    fact = factorise(n, polys)
    (comp,) = fact.components
    dp = multipoly._frontier_histogram(
        p, multipoly._elimination(p, comp, mods)[1], mods)
    rows = multipoly._component_histogram(p, comp, mods)
    assert dp == rows
    start = {tuple(c % mk for c, mk in zip(fact.constants, mods)): p ** fact.free}
    assert multipoly._convolve(start, dp, mods) == walk


@settings(max_examples=200)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)).filter(any), st.data())
def test_low_rank_pairs_multiply_back_to_the_terms(split, data):
    na, nb = split
    n = na + nb
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * n).filter(any), coefficients, max_size=8))
    pairs = multipoly._low_rank(terms, na, nb)
    assert len(pairs) <= len(terms)
    total = {}  # sum_j u_j * v_j, multiplied out term by term
    for u, v in pairs:
        for ea, cu in u.items():
            for eb, cv in v.items():
                total[ea + eb] = total.get(ea + eb, 0) + cu * cv
    assert MultiPoly(n, total).terms == MultiPoly(n, terms).terms


def _grid_counts(p, polys):
    """``_value_counts`` with the values computed in numpy, for larger cubes."""
    grid = np.array(list(product(range(p), repeat=polys[0].n_vars)), dtype=np.int64)
    columns = []
    for f in polys:
        value = np.zeros(len(grid), dtype=np.int64)
        for exps, c in f.terms.items():
            term = np.full(len(grid), c, dtype=np.int64)
            for j, e in enumerate(exps):
                if e:
                    term *= grid[:, j] ** e
            value += term
        columns.append(value)
    tuples, counts = np.unique(np.stack(columns, axis=1), axis=0, return_counts=True)
    return Counter(dict(zip(map(tuple, tuples.tolist()), counts.tolist())))


def test_dense_component_of_several_row_blocks_matches_cube_walk():
    # 3^11 points: B is x6..x11 (729 points), so blocks of 89 A-point rows
    # cover the 243 points of A in three blocks
    n = 11
    quadratic = " + ".join(f"{(i * j) % 7 - 3}*x{i}*x{j}"
                           for i in range(1, n + 1) for j in range(i, n + 1))
    polys = [parse_poly(quadratic, n),
             parse_poly("x1*x6*x11 - 2*x5*x6^2 + x3^2*x9 + x2 - 1", n)]
    assert [len(c.variables) for c in factorise(n, polys).components] == [n]
    system = CongruenceSystem(p=3, b=3, n_vars=n, constraints=(
        Constraint(f=polys[0], a=1, F=IntegerValuedPoly([3, -2, 1])),
        Constraint(f=polys[1], a=0, F=IntegerValuedPoly([1, 4]))))
    counts = _grid_counts(3, polys)
    gated = sum(c * _leaf(system)(v) for v, c in counts.items())
    spec = multipoly.CubeSpec(3, n)
    assert _histogram(multipoly.fold_poly_values(spec, polys)) == counts
    assert theorem12_sum(system, exact=True) == gated
    assert theorem12_sum(system) == gated % 27
    # then each way the row-block product counts its fields, on dense forms
    # in 8 variables with 6 pairs each, against the DP and the walk: a
    # sub-field of one byte holds 6 * (M - 1) for M <= 43
    small, wide, wider = (_dense_form(8, c) for c in (
        lambda i, j: (7 * i + 3 * j) % 4 + 1, lambda i, j: 2 ** 20 + i + j * j,
        lambda i, j: 2 ** 40 + 7 * i + 3 * j * j))
    other = _dense_form(8, lambda i, j: (5 * i + j) % 3 + 1)
    for polys, mods, windows in [
            ([small], [27], [27]),  # a joint key of one byte
            ([small, other], [3, 3], [3, 3]),  # zero counts: a joint key of 9
            ([small, other], [27, 27], [27, 27]),  # 2 reduced bytes
            ([small], [81], [81]),  # 2 bytes, 6 * 80 past one
            ([wide], [3 ** 12], [3 ** 12]),  # 3 bytes in 4
            ([wider], [3 ** 22], [3 ** 22]),  # 5 bytes in 8
            ([wide, wider, small], [3 ** 12, 3 ** 22, 3 ** 12],
             [3 ** 12, 3 ** 22, 355])]:  # 3 + 5 + 2 bytes in 10
        fact = factorise(8, polys)
        (comp,) = fact.components
        assert [len(multipoly._low_rank(t, 4, 4)) for t in comp.terms] == [6] * len(polys)
        assert [w for *_, w in multipoly._windows(3, comp, mods)] == windows
        rows = multipoly._component_histogram(3, comp, mods)
        assert rows == multipoly._frontier_histogram(
            3, multipoly._elimination(3, comp, mods)[1], mods)
        walk = Counter()
        for values, count in _grid_counts(3, polys).items():
            walk[tuple(v % m for v, m in zip(values, mods))] += count
        start = {tuple(c % m for c, m in zip(fact.constants, mods)): 1}
        assert multipoly._convolve(start, rows, mods) == walk


def test_products_summed_in_column_groups_do_not_overflow():
    # f = 3^16 * (sum of ten x1^e*x3^e + x1*x2 - x3*x4) with a = 16 and
    # b = 3, so the modular engine counts f mod m = 3^19 and every point
    # passes the gate.  At x1 = x3 = 2 both factors of each mixed term are
    # residues above 0.9*m, so the ten products sum past 2^63.  The four
    # variables take the frontier DP, whose power tables hold residues
    # mod m.
    m, scale = 3 ** 19, 3 ** 16
    exps = [e for e in range(31, 2000)
            if pow(2, e, m) > 0.9 * m and scale * pow(2, e, m) % m > 0.9 * m][:10]
    assert sum(pow(2, e, m) * (scale * pow(2, e, m) % m) for e in exps) > 2 ** 63
    terms = {(e, 0, e, 0): scale for e in exps}
    terms.update({(1, 1, 0, 0): scale, (0, 0, 1, 1): -scale})
    f = MultiPoly(4, terms)
    assert len(multipoly._low_rank(factorise(4, [f]).components[0].terms[0], 2, 2)) == 12
    system = CongruenceSystem(p=3, b=3, n_vars=4, constraints=(
        Constraint(f=f, a=16, F=IntegerValuedPoly([1, 1])),))
    exact = theorem12_sum(system, exact=True)
    assert exact == _cube_sum(3, [f], lambda v: 0 if v[0] % scale else 1 + v[0] // scale)
    assert theorem12_sum(system) == exact % 27


def _no_dp(*args, **kwargs):
    raise AssertionError("the frontier DP ran on a dense component")


def test_dense_component_beyond_int64_moduli_counts_in_its_window(monkeypatch):
    # int64 cannot hold a product of two residues mod m = 3^22, but f takes
    # only the 315 values -1..313, so the row-block product counts f mod 315,
    # and 2^40 * f, whose terms share the factor 2^40, in the same window
    f = _dense_system(12).constraints[0].f
    scaled = MultiPoly(12, {e: c << 40 for e, c in f.terms.items()})
    m = 3 ** 22
    counts = _grid_counts(3, [f])
    monkeypatch.setattr(multipoly, "_frontier_histogram", _no_dp)
    for g, poly in [(1, f), (2 ** 40, scaled)]:
        fact = factorise(12, [poly])
        (comp,) = fact.components
        assert multipoly._windows(3, comp, [m]) == [(g, 0, 315)]
        hist = multipoly.residue_histogram(3, fact, [m])
        assert hist == {(g * v % m,): c for (v,), c in counts.items()}


def test_dense_component_of_a_full_window_takes_the_kernel(monkeypatch):
    # coprime coefficients near 2^40: the window is all of m = 3^22, and a
    # product of two residues passes 2^63, yet the kernel counts it in
    # 8-byte fields, charged the 3^10 points with the one histogram's 3^10
    # entries, and the DP never runs
    f = _dense_form(10, lambda i, j: 2 ** 40 + 7 * i + 3 * j ** 2)
    fact = factorise(10, [f])
    (comp,) = fact.components
    m = 3 ** 22
    assert multipoly._elimination(3, comp, [m])[0] > max(multipoly.CHUNK, 3 ** 10)
    assert multipoly._windows(3, comp, [m]) == [(1, 0, m)]
    monkeypatch.setattr(multipoly, "_frontier_histogram", _no_dp)
    with pytest.raises(CeilingExceeded) as err:
        multipoly.residue_histogram(3, fact, [m], ceiling=-1)
    assert err.value.required == 2 * 3 ** 10
    hist = multipoly.residue_histogram(3, fact, [m])
    assert hist == {(v % m,): c for (v,), c in _grid_counts(3, [f]).items()}


def test_exponents_beyond_the_modulus_form_no_full_power():
    # x1^(10^9): the DP reads x1^e mod 27 from a table and the bound on the
    # term's values is capped at 27's bit length, so 2^(10^9) is never formed
    e = 10 ** 9
    f = parse_poly(f"x1^{e}*x2 + x2", 2)
    values = [(pow(x1, e, 27) * x2 + x2) % 27 for x1 in range(3) for x2 in range(3)]
    assert multipoly.residue_histogram(3, factorise(2, [f]), [27]) == \
        Counter((v,) for v in values)
    system = CongruenceSystem(p=3, b=1, n_vars=2, constraints=(
        Constraint(f=f, a=1, F=IntegerValuedPoly([1, 1])),))
    assert theorem12_sum(system) == sum(1 + v // 3 for v in values if v % 3 == 0) % 3
    # the row-block product's window is 27 only if the capped bound still
    # exceeds 27
    (comp,) = factorise(2, [f]).components
    assert multipoly._windows(3, comp, [27]) == [(1, 0, 27)]
    assert multipoly._component_histogram(3, comp, [27]) == \
        Counter((v,) for v in values)


def test_the_first_component_starts_from_the_constants(monkeypatch):
    # x3 and x4 appear in no term: the constant 5 and their 3^2 points start
    # the one component's enumeration on either kernel, and nothing is
    # convolved
    f = parse_poly("x1*x2 + 2*x2^2 + 5", 4)
    walk = Counter((eval_poly(f, x) % 9,) for x in product(range(3), repeat=4))
    fact = factorise(4, [f])
    (comp,) = fact.components
    start = ((5,), 9)
    assert multipoly._component_histogram(3, comp, [9], start) == walk
    steps = multipoly._elimination(3, comp, [9])[1]
    assert multipoly._frontier_histogram(3, steps, [9], start) == walk

    def refuse(*args):
        raise AssertionError("a one-component sum was convolved")

    monkeypatch.setattr(multipoly, "_convolve", refuse)
    assert multipoly.residue_histogram(3, fact, [9]) == walk


@st.composite
def polynomials(draw):
    n = draw(st.integers(1, 5))
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 4)] * n), st.integers(-99, 99), max_size=6))
    return MultiPoly(n, terms)


@given(polynomials())
def test_render_parse_round_trip(f):
    g = parse_poly(render_poly(f), f.n_vars)
    assert (g.n_vars, g.terms) == (f.n_vars, f.terms)


def _chain_system(n, b=2):
    text = " + ".join(f"x{i}*x{i + 1}" for i in range(1, n)) + " + x1 - 1"
    return CongruenceSystem(p=3, b=b, n_vars=n, constraints=(
        Constraint(f=parse_poly(text, n), a=1, F=IntegerValuedPoly([2, 1]), l=1),))


def _dense_form(n, coefficient):
    """sum over i <= j of coefficient(i, j) * x_i * x_j, plus x1 - 1."""
    text = " + ".join(f"{coefficient(i, j)}*x{i}*x{j}" for i in range(1, n + 1)
                      for j in range(i, n + 1))
    return parse_poly(text + " + x1 - 1", n)


def _dense_system(n, b=2):
    """A quadratic form in every pair of n variables: the frontier DP's
    bound, 3 * (3^n - 1) / 2, exceeds the 3^n points, so for n >= 10 the
    row-block product enumerates it."""
    return CongruenceSystem(p=3, b=b, n_vars=n, constraints=(
        Constraint(f=_dense_form(n, lambda i, j: 1), a=1,
                   F=IntegerValuedPoly([2, 1]), l=1),))


def _no_kernel(*args, **kwargs):
    raise AssertionError("the row-block product ran on a narrow component")


def test_long_chain_takes_the_frontier_dp(monkeypatch):
    # the chain's frontier is one variable, so the DP's bound stays far
    # below the 3^11 points and no row block is formed
    monkeypatch.setattr(multipoly, "_component_histogram", _no_kernel)
    system = _chain_system(11)
    exact = theorem12_sum(system, exact=True)
    assert theorem12_sum(system) == exact % 9
    f = system.constraints[0].f
    assert _histogram(multipoly.fold_poly_values(multipoly.CubeSpec(3, 11), [f])) \
        == _grid_counts(3, [f])


def test_scaled_chain_takes_the_frontier_dp(monkeypatch):
    # every coefficient times 2^70: the exact engine's modulus is
    # 42 * 2^70 + 1, but a partial sum takes only width / 2^70 + 1 values,
    # as its coefficients share the factor 2^70, so the DP's bound stays small
    monkeypatch.setattr(multipoly, "_component_histogram", _no_kernel)
    system = _chain_system(11)
    f = system.constraints[0].f
    scaled = MultiPoly(11, {e: c << 70 for e, c in f.terms.items()})
    hist = _histogram(multipoly.fold_poly_values(multipoly.CubeSpec(3, 11), [scaled]))
    counts = _grid_counts(3, [f])
    assert hist == Counter({(v << 70,): c for (v,), c in counts.items()})
    scaled_system = CongruenceSystem(p=3, b=2, n_vars=11, constraints=(
        Constraint(f=scaled, a=1, F=IntegerValuedPoly([2, 1]), l=1),))
    gated = sum(c * _leaf(scaled_system)((v << 70,)) for (v,), c in counts.items())
    assert theorem12_sum(scaled_system, exact=True) == gated
    assert theorem12_sum(scaled_system) == gated % 9


def test_band_beyond_a_chunk_takes_the_frontier_dp(monkeypatch):
    # a band of width 5 on 13 variables, mod 27: the DP's bound exceeds
    # CHUNK but not the 3^13 points, so the DP runs
    n = 13
    text = " + ".join(f"{(i + j) % 4 + 1}*x{i}*x{j}" for i in range(1, n + 1)
                      for j in range(i + 1, min(i + 5, n) + 1))
    fact = factorise(n, [parse_poly(text + " + x1", n)])
    (comp,) = fact.components
    assert multipoly.CHUNK < multipoly._elimination(3, comp, [27])[0] < 3 ** n
    rows = multipoly._component_histogram(3, comp, [27])
    monkeypatch.setattr(multipoly, "_component_histogram", _no_kernel)
    assert multipoly.residue_histogram(3, fact, [27]) == rows


def test_large_component_residue_matches_exact_sum():
    system = _dense_system(11)  # 3^11 points, three row blocks
    exact = theorem12_sum(system, exact=True)
    assert theorem12_sum(system) == exact % 9


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
    assert _histogram(multipoly.fold_poly_values(spec, polys)) == \
        _value_counts(3, polys)


def test_large_constants_of_narrow_range_match_cube_walk():
    # each value range is narrow, so the residues are int64, while the
    # corners of the value box lie beyond int64
    polys = [parse_poly("x1*x2 - x3^2 + 2^80", 4), parse_poly("x4 - 3^50", 4)]
    spec = multipoly.CubeSpec(3, 4)
    assert _histogram(multipoly.fold_poly_values(spec, polys)) == \
        _value_counts(3, polys)


@pytest.mark.parametrize("n_polys", [1, 2])
def test_values_beyond_int64_in_a_large_component(n_polys):
    # 3^11 points, three row blocks: scaling every coefficient by 2^70
    # scales every value and keeps every count; the second case adds -f,
    # scaled the same way, as a second polynomial on the same component
    f = _dense_system(11).constraints[0].f
    polys = [f, MultiPoly(11, {e: -c for e, c in f.terms.items()})][:n_polys]
    scaled = [MultiPoly(11, {e: c << 70 for e, c in g.terms.items()}) for g in polys]
    spec = multipoly.CubeSpec(3, 11)
    hist = _histogram(multipoly.fold_poly_values(spec, scaled))
    assert all(v % (1 << 70) == 0 for key in hist for v in key)
    assert Counter({tuple(v >> 70 for v in key): c for key, c in hist.items()}) == \
        _grid_counts(3, polys)


def test_exact_weights_beyond_int64_match_cube_walk():
    # F_k coefficients of 2^70 and more, weighting value tuples that occur
    # many times; the modular engine reduces the same F_k mod p^b
    polys = [parse_poly("x1*x2 + x3 - 1", 5), parse_poly("x4^2 + x5", 5)]
    system = CongruenceSystem(p=3, b=3, n_vars=5, constraints=(
        Constraint(f=polys[0], a=1,
                   F=IntegerValuedPoly([2 ** 70 + 1, -3 ** 50, 2 ** 75])),
        Constraint(f=polys[1], a=0, F=IntegerValuedPoly([5 ** 40, 2 ** 71]))))
    counts = _value_counts(3, polys)
    leaf = _leaf(system)
    assert any(c > 1 and abs(leaf(v)) > 2 ** 140 for v, c in counts.items())
    expected = sum(c * leaf(v) for v, c in counts.items())
    assert theorem12_sum(system, exact=True) == expected
    assert theorem12_sum(system) == expected % 27


def _refuse(*args, **kwargs):
    raise AssertionError("work started before the ceiling was checked")


def _refused_untouched(system, exact, ceiling):
    """The CeilingExceeded that theorem12_sum raises under ``ceiling``, with
    every enumerator and the F-table evaluation made to fail if called."""
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_frontier_histogram", "_component_histogram"):
            patch.setattr(multipoly, name, _refuse)
        patch.setattr(axkatz, "eval_ivp", _refuse)
        with pytest.raises(CeilingExceeded) as err:
            theorem12_sum(system, exact=exact, ceiling=ceiling)
    return err.value


@settings(max_examples=60, deadline=None)
@given(factorisable(), st.data(), st.booleans())
def test_refusal_is_exact_and_comes_before_any_work(case, data, exact):
    # the work bound R: refused at R - 1, before any enumeration or table;
    # answered at R, by the same sum as a walk over the cube
    p, polys, _ = case
    system, leaf = _random_system(data, p, polys[0].n_vars,
                                  [f for f in polys if not f.is_zero])
    required = _refused_untouched(system, exact, -1).required
    err = _refused_untouched(system, exact, required - 1)
    assert (err.required, err.ceiling) == (required, required - 1)
    walk = sum(leaf([eval_poly(c.f, x) for c in system.constraints])
               for x in product(range(p), repeat=system.n_vars))
    got = theorem12_sum(system, exact=exact, ceiling=required)
    assert got == (walk if exact else walk % p ** system.b)


@pytest.mark.parametrize("exact", [False, True])
def test_a_second_component_over_the_ceiling_stops_the_first(exact):
    # x1*x2 costs a few state steps; the product of x3..x22 is too dense
    # for the DP and has 2^20 points, more than the ceiling on its own
    text = "x1*x2 + " + "*".join(f"x{i}" for i in range(3, 23))
    system = CongruenceSystem(p=2, b=1, n_vars=22, constraints=(
        Constraint(f=parse_poly(text, 22), a=1, F=IntegerValuedPoly([1])),))
    assert len(factorise(22, [system.constraints[0].f]).components) == 2
    err = _refused_untouched(system, exact, 2 ** 20 - 1)
    assert err.required > 2 ** 20
