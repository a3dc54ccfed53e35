"""Sparse multivariate integer polynomials and factorised cube sums.

Polynomials are stored as dictionaries mapping exponent vectors to
nonzero integer coefficients, e.g. 17 + 2*x1*x2 - 19*x1^6*x3^12 over
three variables is
    {(0,0,0): 17, (1,1,0): 2, (6,0,12): -19}

A small precedence-climbing parser accepts the text grammar
``x1 + 3*(x2 - x1)^2`` (variables x1..xN, integer literals, + - * ^,
parentheses; exponents are nonnegative integer literals).  It works on
plain term dicts, adding sums in place, and builds one ``MultiPoly`` at
the end, which validates the terms and drops zero coefficients once.
Its products are charged their term pairs against the same ceiling as
the cube sums.
``MultiPoly`` itself has no arithmetic: it is a validated record.

A sum over [0, p-1]^n of a function of (f_1(x), ..., f_m(x)) depends
only on how often each value tuple occurs.  ``factorise`` splits the
variables into the connected components of the graph that links two
variables sharing a term; the value histogram over the cube is then the
convolution of the per-component histograms.  ``residue_histogram`` is
the one enumerator: it counts the tuples (f_k(x) mod m_k)_k over each
component, convolves the component histograms (dicts from residue
tuples to counts) and returns the result.  Each component takes one of
two plans, chosen from bounds computed before any work.  The frontier
DP, in pure Python, assigns the variables in order and keeps as its
state the values of the assigned variables that a later term still
uses, with the residues of the partial sums; a chain costs a few
thousand state steps where its cube has millions of points.  Only a
dense component, whose DP bound exceeds both ``CHUNK`` and its p^|C|
points, is enumerated point by point: f_k is a sum of r_k products
u_j(A) v_j(B) over two halves A and B of the variables, and its values
are the matrix product of the u_j on A's sub-cube with the v_j on B's,
taken mod m_k in blocks of rows of at most ``CHUNK`` points.  That
row-block product is the only code that imports numpy, on first use.
``fold_poly_values`` takes each m_k one more than the width of f_k's
range over the cube, so the residues recover the exact values, and
returns that exact value histogram.  ``residue_histogram`` also owns the
enumeration ceiling: it plans every component, then refuses a sum whose
plans' steps plus convolution pairs exceed it, before any work.  All of
it runs in the caller's thread and reads nothing but its arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from operator import add, mod

from .exceptions import CeilingExceeded

DEFAULT_CEILING = 10 ** 8  # work guard for parses and cube sums (see residue_histogram)


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients: a validated
    record of nonzero terms, with no arithmetic of its own."""

    __slots__ = ("n_vars", "terms", "_total_degree")

    def __init__(self, n_vars: int, terms=None):
        if n_vars < 0:
            raise ValueError(f"n_vars must be >= 0, got {n_vars}")
        self.n_vars = n_vars
        clean = {}
        for exps, c in (terms or {}).items():
            if len(exps) != n_vars:
                raise ValueError(f"exponent vector {exps} has wrong length")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if c != 0:
                clean[tuple(exps)] = int(c)
        self.terms = clean
        self._total_degree = max((sum(e) for e in clean), default=None)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly)
                and self.n_vars == other.n_vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.n_vars}, {render_poly(self)!r})"


def total_degree(f: MultiPoly) -> int:
    """Maximum exponent-vector sum; the zero polynomial has no degree."""
    if f._total_degree is None:
        raise ValueError("the zero polynomial has no total degree")
    return f._total_degree


def eval_poly(f: MultiPoly, point) -> int:
    """Exact value of f at an integer point."""
    if len(point) != f.n_vars:
        raise ValueError(f"point has {len(point)} coordinates, need {f.n_vars}")
    total = 0
    for exps, c in f.terms.items():
        v = c
        for x, e in zip(point, exps):
            if e:
                v *= x ** e
        total += v
    return total


# --- parser -----------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif ch == "x":
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("variable needs an index, e.g. x1", i)
            tokens.append(("var", int(text[i + 1:j]), i))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", None, n))
    return tokens


class _Parser:
    """Precedence climbing over + - (prec 1), * (prec 2), ^ (literal exponent)
    on term dicts, exponent vector -> coefficient, that may hold zeros.

    Every method returns a dict that nothing else holds, so + and - add
    the right operand into the left one in place.
    """

    def __init__(self, tokens, n_vars, ceiling):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars
        self.ceiling = ceiling
        self.pairs = 0

    def times(self, a: dict, b: dict) -> dict:
        """The product of two term dicts, as a new dict; zero terms are
        skipped.  Its pairs of nonzero terms are charged first, and
        CeilingExceeded refuses it if the running total would pass the
        ceiling."""
        left = [(e, c) for e, c in a.items() if c]
        right = [(e, c) for e, c in b.items() if c]
        self.pairs += len(left) * len(right)
        if self.pairs > self.ceiling:
            raise CeilingExceeded(required=self.pairs, ceiling=self.ceiling)
        out: dict = {}
        for e1, c1 in left:
            for e2, c2 in right:
                key = tuple(map(add, e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return out

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> dict:
        terms = self.expression(1)
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {kind!r}", at)
        return terms

    def expression(self, min_prec: int) -> dict:
        left = self.atom()
        while True:
            kind, _, _ = self.peek()
            prec = {"+": 1, "-": 1, "*": 2}.get(kind, 0)
            if prec < min_prec or prec == 0:
                return left
            self.next()
            right = self.expression(prec + 1)
            if kind == "*":
                left = self.times(left, right)
                continue
            sign = 1 if kind == "+" else -1
            for exps, c in right.items():
                left[exps] = left.get(exps, 0) + sign * c

    def atom(self) -> dict:
        kind, value, at = self.next()
        n = self.n_vars
        if kind == "int":
            base = {(0,) * n: value}
        elif kind == "var":
            if not 1 <= value <= n:
                raise ParseError(f"variable x{value} out of range 1..{n}", at)
            base = {(0,) * (value - 1) + (1,) + (0,) * (n - value): 1}
        elif kind == "(":
            base = self.expression(1)
            kind2, _, at2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", at2)
        elif kind == "-":
            # unary minus binds tighter than + - but looser than ^
            return {exps: -c for exps, c in self.expression(2).items()}
        else:
            raise ParseError(f"unexpected {kind!r}", at)
        return self.exponent(base)

    def exponent(self, base: dict) -> dict:
        kind, _, _ = self.peek()
        if kind != "^":
            return base
        self.next()
        kind, k, at = self.next()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal", at)
        result = {(0,) * self.n_vars: 1}  # square and multiply
        while k:
            if k & 1:
                result = self.times(result, base)
            k >>= 1
            if k:
                base = self.times(base, base)
        return result


def parse_poly(text: str, n_vars: int, ceiling: int | None = None) -> MultiPoly:
    """Parse the text grammar into expanded, normalized sparse form: the
    one ``MultiPoly`` built from the parser's term dict validates it and
    drops its zero coefficients.  Nesting deeper than the interpreter's
    recursion limit allows is a ParseError at the token where it stopped.

    Expanding products multiplies the number of terms, so it is charged:
    CeilingExceeded refuses a parse whose products' nonzero term pairs
    would add up to more than ``ceiling`` (None: ``DEFAULT_CEILING``),
    before the product that would pass it.
    """
    MultiPoly(n_vars)  # refuses a negative n_vars before any variable is read
    parser = _Parser(_tokenize(text), n_vars,
                     DEFAULT_CEILING if ceiling is None else ceiling)
    try:
        terms = parser.parse()
    except RecursionError:
        raise ParseError("expression nested too deeply", parser.peek()[2]) from None
    return MultiPoly(n_vars, terms)


def render_poly(f: MultiPoly) -> str:
    """Text form that parse_poly maps back to f (graded-lex term order)."""
    if f.is_zero:
        return "0"
    parts = []
    for exps in sorted(f.terms, key=lambda e: (-sum(e), tuple(-x for x in e))):
        c = f.terms[exps]
        factors = []
        for j, e in enumerate(exps):
            if e == 1:
                factors.append(f"x{j + 1}")
            elif e > 1:
                factors.append(f"x{j + 1}^{e}")
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


# --- cube enumeration -------------------------------------------------------

CHUNK = 1 << 16  # most points handled as one unit


@dataclass(frozen=True)
class CubeSpec:
    """The enumeration domain [0, p-1]^n_vars."""

    p: int
    n_vars: int


@dataclass(frozen=True)
class Component:
    """Variables linked through shared terms, and each polynomial's terms
    on them, with exponent vectors indexed like ``variables``."""

    variables: tuple[int, ...]
    terms: tuple[dict, ...]


@dataclass(frozen=True)
class Factorisation:
    """f_k(x) = constants[k] + sum over components C of f_k restricted to C.

    The ``free`` variables appear in no term; each multiplies every count
    by p and is never enumerated.
    """

    components: tuple[Component, ...]
    constants: tuple[int, ...]
    free: int


def factorise(n_vars: int, polys) -> Factorisation:
    """Split the variables into the connected components of the graph that
    links two variables when some term of some polynomial uses both.

    Components are ordered by their smallest variable.
    """
    parent = list(range(n_vars))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    used = set()
    for f in polys:
        for exps in f.terms:
            support = [j for j, e in enumerate(exps) if e]
            used.update(support)
            for j in support[1:]:
                parent[find(j)] = find(support[0])
    groups: dict[int, list[int]] = {}
    for j in sorted(used):
        groups.setdefault(find(j), []).append(j)
    slot = {root: i for i, root in enumerate(groups)}
    variables = list(groups.values())
    terms = [[{} for _ in polys] for _ in variables]
    for k, f in enumerate(polys):
        for exps, c in f.terms.items():
            first = next((j for j, e in enumerate(exps) if e), None)
            if first is not None:
                i = slot[find(first)]
                terms[i][k][tuple(exps[j] for j in variables[i])] = c
    return Factorisation(
        components=tuple(Component(tuple(v), tuple(t))
                         for v, t in zip(variables, terms)),
        constants=tuple(f.terms.get((0,) * n_vars, 0) for f in polys),
        free=n_vars - len(used))


def _value_range(terms: dict, p: int) -> tuple[int, int]:
    """Bounds on a polynomial's values over [0, p-1]^n."""
    lo = hi = 0
    for exps, c in terms.items():
        extreme = c * (p - 1) ** sum(exps)
        lo, hi = lo + min(extreme, 0), hi + max(extreme, 0)
    return lo, hi


def _reach(mods, widths, gcds) -> int:
    """How many residue tuples sums can reach whose k-th has a value range of
    width w_k and coefficients of gcd g_k: at most w_k // g_k + 1 and m_k."""
    return prod(min(mk, w // (g or 1) + 1) for mk, w, g in zip(mods, widths, gcds))


def fits_int64(mods) -> bool:
    """Whether the row-block product can run on int64: products of two
    residues, and residue tuples as one mixed-radix key, fit."""
    return max(mods, default=1) ** 2 < 2 ** 62 and prod(mods) < 2 ** 62


def _elimination(p, comp, mods):
    """The frontier DP over one component, planned, and a bound on its work.

    Variable i (in the component's order) is assigned at step i, and each
    term is added at the step of its last variable.  Before step i a state
    is the values of the frontier F_i, the variables before i that a term
    added at step i or later uses, plus the residues mod m_k of the partial
    sums; step i extends each state by p values of variable i.  So the work
    is at most D = sum_i p * min(p^i, p^|F_i| * prod_k r_k), where r_k is
    the number of residues f_k's partial sum can take (``_reach``).

    Returns (D, steps, widths, gcds), the last two the width of f_k's value
    range and the gcd of its coefficients on the component.  Step i sees
    the assignment F_i + (x_i,) and holds the positions in it that form
    F_(i+1), and for each polynomial the terms added at step i as
    (coefficient, ((position, exponent), ...)).
    """
    n = len(comp.variables)
    last_use = list(range(n))  # the last step of a term that uses variable j
    added = [[{} for _ in mods] for _ in range(n)]
    for k, terms in enumerate(comp.terms):
        for exps, c in terms.items():
            support = [j for j, e in enumerate(exps) if e]
            added[support[-1]][k][exps] = c
            for j in support:
                last_use[j] = max(last_use[j], support[-1])
    work, steps, frontier = 0, [], ()
    widths, gcds = [0] * len(mods), [0] * len(mods)
    for i in range(n):
        work += p * min(p ** i, p ** len(frontier) * _reach(mods, widths, gcds))
        slot = {j: s for s, j in enumerate(frontier + (i,))}
        terms = []
        for k, group in enumerate(added[i]):
            terms.append(tuple((c, tuple((slot[j], e) for j, e in enumerate(exps) if e))
                               for exps, c in group.items()))
            lo, hi = _value_range(group, p)
            widths[k] += hi - lo
            gcds[k] = gcd(gcds[k], *group.values())
        frontier = tuple(j for j in slot if last_use[j] > i)
        steps.append((tuple(slot[j] for j in frontier), terms))
    return work, steps, widths, gcds


def _frontier_histogram(p, steps, mods, count_modulus):
    """Counts mod count_modulus of (f_1 mod m_1, ...) over one component,
    by the frontier DP that ``_elimination`` planned as ``steps``.

    The states are a dict from frontier values to a dict from residue
    tuples to counts; the terms added at a step depend on the frontier
    values and the new variable only, so they are evaluated once per
    frontier value and shift all of its residue tuples alike.
    """
    states = {(): {(0,) * len(mods): 1}}
    for keep, terms in steps:
        out = {}
        for frontier, hist in states.items():
            for x in range(p):
                a = frontier + (x,)
                shift = [sum(c * prod(a[s] ** e for s, e in factors)
                             for c, factors in group) % mk
                         for group, mk in zip(terms, mods)]
                target = out.setdefault(tuple([a[s] for s in keep]), {})
                if not any(shift):
                    for r, count in hist.items():
                        target[r] = target.get(r, 0) + count
                    continue
                for r, count in hist.items():
                    r = tuple(map(mod, map(add, r, shift), mods))
                    target[r] = target.get(r, 0) + count
        states = out
    return {r: count % count_modulus for r, count in states[()].items()}


def _subcube_values(polys, p, n, mk, dtype):
    """Values mod mk of each polynomial (a dict over n-variable exponent
    vectors) at every point of [0, p-1]^n, one row per polynomial; the
    last variable varies fastest."""
    import numpy as np

    size = p ** n
    rest = np.arange(size, dtype=np.int64)
    digits = [None] * n
    for j in reversed(range(n)):
        rest, digits[j] = np.divmod(rest, p)
    powers: dict = {}
    out = np.zeros((len(polys), size), dtype=dtype)
    for row, terms in zip(out, polys):
        for exps, coeff in terms.items():
            t = np.full(size, coeff % mk, dtype=dtype)
            for j, e in enumerate(exps):
                if e:
                    dp = powers.get((j, e))
                    if dp is None:
                        table = np.array([pow(x, e, mk) for x in range(p)], dtype=dtype)
                        dp = powers[(j, e)] = table[digits[j]]
                    t *= dp
                    t %= mk
            row += t  # on int64 each t < mk < 2^31, so the sum cannot overflow
        row %= mk
    return out


def _low_rank(terms, na, nb):
    """Pairs (u_j, v_j) of polynomials in the first na and the last nb
    variables with sum_j u_j * v_j equal to ``terms``.

    The pure-A terms form one pair and the pure-B terms another; the
    mixed terms are grouped by their A-monomial or by their B-monomial,
    whichever side has fewer distinct ones.  So there are never more
    pairs than terms.
    """
    one_a, one_b = (0,) * na, (0,) * nb
    pure_a, pure_b, by_a, by_b = {}, {}, {}, {}
    for exps, c in terms.items():
        ea, eb = exps[:na], exps[na:]
        if eb == one_b:
            pure_a[ea] = c
        elif ea == one_a:
            pure_b[eb] = c
        else:
            by_a.setdefault(ea, {})[eb] = c
            by_b.setdefault(eb, {})[ea] = c
    pairs = [(pure_a, {one_b: 1})] if pure_a else []
    if pure_b:
        pairs.append(({one_a: 1}, pure_b))
    if len(by_a) <= len(by_b):
        return pairs + [({ea: 1}, v) for ea, v in by_a.items()]
    return pairs + [(u, {eb: 1}) for eb, u in by_b.items()]


def _component_histogram(p, comp, mods, count_modulus):
    """Counts mod count_modulus of (f_1 mod m_1, ...) over one component's
    points, as row blocks of a matrix product on numpy.

    The variables split into A and B, B the last half capped at
    ``CHUNK`` points.  Each f_k is a sum of r_k products u_j(A) v_j(B)
    (``_low_rank``), so its values on the component form the matrix
    U_k V_k mod m_k, where U_k (p^|A| x r_k) and V_k (r_k x p^|B|) hold
    the factors on the two sub-cubes.  A work unit is a block of U rows
    covering at most ``CHUNK`` points; on int64 the product is summed
    in column groups small enough that no sum of products overflows, and
    reduced mod m_k after each, and where int64 cannot hold a product or
    a key (``fits_int64``) the arrays hold Python integers.  The blocks
    run one after another, each merged into the histogram as it ends.
    """
    import numpy as np

    dtype = np.int64 if fits_int64(mods) else object
    nb = (len(comp.variables) + 1) // 2
    while p ** nb > CHUNK:
        nb -= 1
    na = len(comp.variables) - nb
    factors = []
    for terms, mk in zip(comp.terms, mods):
        pairs = _low_rank(terms, na, nb)
        U = _subcube_values([u for u, _ in pairs], p, na, mk, dtype).T
        V = _subcube_values([v for _, v in pairs], p, nb, mk, dtype)
        # a group's products of two residues sum to at most 2^63 - 1
        group = max(len(pairs), 1) if dtype is object else \
            (2 ** 63 - 1) // max((mk - 1) ** 2, 1)
        factors.append((U, V, mk, group))
    rows = CHUNK // p ** nb
    merged: dict = {}
    for start in range(0, p ** na, rows):
        key = 0
        for U, V, mk, group in factors:
            part = U[start:start + rows]
            val = part[:, :group] @ V[:group] % mk
            for s in range(group, len(V), group):
                val += part[:, s:s + group] @ V[s:s + group] % mk
                val %= mk
            key = key * mk + val
        keys, counts = np.unique(key, return_counts=True)
        for key, count in zip(keys.tolist(), counts.tolist()):
            merged[key] = merged.get(key, 0) + count
    hist = {}
    for key, count in merged.items():
        residues = []
        for mk in reversed(mods):
            key, r = divmod(key, mk)
            residues.append(r)
        hist[tuple(residues[::-1])] = count % count_modulus
    return hist


def _convolve(hist_a, hist_b, mods, count_modulus):
    """Cyclic convolution of two histograms over Z_m1 x ... x Z_mK; tuples
    whose count vanishes mod count_modulus are dropped."""
    out: dict = {}
    for rb, cb in hist_b.items():
        for ra, ca in hist_a.items():
            r = tuple(map(mod, map(add, ra, rb), mods))
            out[r] = out.get(r, 0) + ca * cb
    return {r: c % count_modulus for r, c in out.items() if c % count_modulus}


def residue_histogram(p: int, fact: Factorisation, mods, count_modulus: int,
                      ceiling: int | None = None, tables: int = 0) -> dict:
    """Counts mod ``count_modulus`` of (f_1 mod m_1, ..., f_K mod m_K) over
    the cube, as a dict from each residue tuple to its count (tuples with
    count 0 may be left out).

    Each component of ``fact`` is enumerated alone, by one of two plans
    chosen from bounds computed before any work: the frontier DP
    (``_frontier_histogram``), unless its bound D (``_elimination``)
    exceeds both ``CHUNK`` and the p^|C| points of the component, in
    which case the row-block product (``_component_histogram``, the only
    code that runs numpy) enumerates the points.  The component
    histograms are combined by cyclic convolution.

    Every component is planned first, and CeilingExceeded refuses the sum
    before any work if its bound exceeds ``ceiling`` (None:
    ``DEFAULT_CEILING``):
    each plan's D steps or p^|C| points, plus the ``tables`` entries the
    caller builds afterwards, plus the entry pairs of each convolution,
    with each histogram no larger than its points and the residue tuples
    its sums can reach (``_reach``).
    """
    plans, required, acc = [], tables, 1
    widths, gcds = [0] * len(mods), [0] * len(mods)  # of the components so far
    for comp in fact.components:
        work, steps, comp_widths, comp_gcds = _elimination(p, comp, mods)
        points = p ** len(comp.variables)
        dense = work > max(CHUNK, points)
        size = min(points, _reach(mods, comp_widths, comp_gcds))
        widths = list(map(add, widths, comp_widths))
        gcds = list(map(gcd, gcds, comp_gcds))
        required += (points if dense else work) + acc * size
        acc = min(acc * size, _reach(mods, widths, gcds))
        plans.append((comp, None if dense else steps))
    if ceiling is None:
        ceiling = DEFAULT_CEILING
    if required > ceiling:
        raise CeilingExceeded(required=required, ceiling=ceiling)
    hist = {tuple(c % mk for c, mk in zip(fact.constants, mods)):
            pow(p, fact.free, count_modulus)}
    for comp, steps in plans:
        part = (_frontier_histogram(p, steps, mods, count_modulus) if steps else
                _component_histogram(p, comp, mods, count_modulus))
        hist = _convolve(hist, part, mods, count_modulus)
    return hist


def fold_poly_values(spec: CubeSpec, polys, ceiling: int | None = None) -> dict:
    """Exact histogram of (f_1(x), ..., f_m(x)) over the cube: a dict from
    each occurring value tuple to its exact count.

    Over the cube f_k takes values in a box [lo_k, lo_k + w_k], so its
    residue mod m_k = w_k + 1 recovers it; ``residue_histogram`` counts
    those residues with the count modulus p^n + 1, which leaves every
    count exact.
    """
    for f in polys:
        if f.n_vars != spec.n_vars:
            raise ValueError("polynomial variable count does not match cube")
    p = spec.p
    fact = factorise(spec.n_vars, polys)
    boxes = [_value_range({e: c for e, c in f.terms.items() if any(e)}, p)
             for f in polys]
    lows = [c + lo for c, (lo, _) in zip(fact.constants, boxes)]
    mods = [hi - lo + 1 for lo, hi in boxes]
    hist = residue_histogram(p, fact, mods, p ** spec.n_vars + 1, ceiling)
    return {tuple((r - low) % mk + low for r, low, mk in zip(residues, lows, mods)):
            count for residues, count in hist.items()}
