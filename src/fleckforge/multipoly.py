"""Sparse multivariate integer polynomials and factorised cube sums.

Polynomials are stored as dictionaries mapping monomials, tuples of
(variable, exponent) pairs with 0-based variables increasing and exponents
>= 1, to nonzero integer coefficients; e.g. 17 + 2*x1*x2 - 19*x1^6*x3^12 is
    {(): 17, ((0, 1), (1, 1)): 2, ((0, 6), (2, 12)): -19}

A small precedence-climbing parser accepts the text grammar
``x1 + 3*(x2 - x1)^2`` (variables x1..xN, integer literals, + - * ^,
parentheses; exponents are nonnegative integer literals).  It works on
plain term dicts, adding sums in place, and builds one ``MultiPoly`` at
the end, which validates the terms and drops zero coefficients once.
Its products are charged their pairs of 64-bit coefficient words
against the same ceiling as the cube sums.
``MultiPoly`` itself has no arithmetic: it is a validated record.

A sum over [0, p-1]^n of a function of (f_1(x), ..., f_m(x)) depends
only on how often each value tuple occurs.  ``factorise`` splits the
variables into the connected components of the graph that links two
variables sharing a term, and ``residue_histogram``, the one enumerator,
counts the tuples (f_k(x) mod m_k)_k over each component and convolves
the component histograms (dicts from residue tuples to counts).  It
plans each component before any work, and refuses a sum whose plans
exceed the ceiling: the frontier DP, whose state is the values of the
assigned variables that a later term still uses with the residues of
the partial sums, so a chain costs a few thousand steps where its cube
has millions of points; or, for a dense component, whose DP bound
exceeds both ``CHUNK`` and its p^|C| points, rows of packed byte fields
(``_component_histogram``).  The counts are exact, on Python integers,
in the caller's thread, from nothing but the arguments.
``fold_poly_values`` takes each m_k a power of two above twice the
largest |f_k| its terms allow, so the residues recover the exact values.
"""
from __future__ import annotations

import re
import sys
from collections import Counter
from functools import cache
from itertools import islice
from math import gcd, prod
from operator import add, lt, mod

from .exceptions import charge


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients: a validated
    record of nonzero terms, with no arithmetic of its own."""

    __slots__ = ("n_vars", "terms", "_total_degree")

    def __init__(self, n_vars: int, terms=None):
        if n_vars < 0:
            raise ValueError(f"n_vars must be >= 0, got {n_vars}")
        self.n_vars = n_vars
        clean = {}
        for mono, c in (terms or {}).items():
            if mono:
                try:
                    variables, exponents = zip(*mono)
                except (TypeError, ValueError):  # not pairs, e.g. dense (1, 0)
                    raise ValueError(f"{mono} is not a tuple of (variable, exponent) "
                                     "pairs") from None
                if variables[0] < 0 or variables[-1] >= n_vars \
                        or not all(map(lt, variables, variables[1:])):
                    raise ValueError(f"{mono} needs increasing variables in 0..{n_vars - 1}")
                if min(exponents) < 1:
                    raise ValueError(f"exponent below 1 in {mono}")
            if c != 0:
                clean[tuple(mono)] = int(c)
        self.terms = clean
        self._total_degree = max((sum(e for _, e in m) for m in clean), default=None)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        return f"MultiPoly({self.n_vars}, {render_poly(self)!r})"


def total_degree(f: MultiPoly) -> int:
    """Maximum degree of a term; the zero polynomial has no degree."""
    if f._total_degree is None:
        raise ValueError("the zero polynomial has no total degree")
    return f._total_degree


# --- parser -----------------------------------------------------------------

class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


# space, then an integer, a variable, an operator or a stray character; \d is
# a decimal digit, as int() reads it (str.isdigit also passes superscripts)
_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d*)|([-+*^()])|(\S))")


def _tokenize(text: str):
    tokens = []
    # the scan stops before trailing space (rstrip strips what \s matches):
    # finditer would retry \s* from each of its positions, k^2 / 2 steps
    for m in _TOKEN.finditer(text, 0, len(text.rstrip())):
        kind = m.lastindex
        token, at = m[kind], m.start(kind)
        if kind == 1:
            tokens.append(("int", int(token), at))
        elif kind == 2 and token:
            tokens.append(("var", int(token), at - 1))
        elif kind == 2:
            raise ParseError("variable needs an index, e.g. x1", at - 1)
        elif kind == 3:
            tokens.append((token, token, at))
        else:
            raise ParseError(f"unexpected character {token!r}", at)
    tokens.append(("end", None, len(text)))
    return tokens


def _words(terms) -> int:
    """64-bit words of the coefficients of (monomial, coefficient) pairs."""
    return sum(-(-c.bit_length() // 64) for _, c in terms)


def _monomial_product(m1: tuple, m2: tuple) -> tuple:
    """The product of two monomials: their pairs in one tuple, concatenated
    when one's variables all come before the other's, else merged in
    variable order, with a shared variable's exponents added."""
    if not m1 or not m2 or m1[-1][0] < m2[0][0]:
        return m1 + m2
    if m2[-1][0] < m1[0][0]:
        return m2 + m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, v2 = m1[i][0], m2[j][0]
        if v1 < v2:
            out.append(m1[i])
            i += 1
        elif v2 < v1:
            out.append(m2[j])
            j += 1
        else:
            out.append((v1, m1[i][1] + m2[j][1]))
            i += 1
            j += 1
    return (*out, *m1[i:], *m2[j:])


class _Parser:
    """Precedence climbing over + - (prec 1), * (prec 2), ^ (literal exponent)
    on term dicts, monomial -> coefficient, that may hold zeros.

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
        skipped.  It is charged first, the 64-bit words of the left
        coefficients times those of the right (the pairs of terms, when
        every coefficient is below 2^64), and CeilingExceeded refuses it
        if the running total would pass the ceiling."""
        left = [(e, c) for e, c in a.items() if c]
        right = [(e, c) for e, c in b.items() if c]
        self.pairs += _words(left) * _words(right)
        charge(self.pairs, self.ceiling)
        out: dict = {}
        for m1, c1 in left:
            for m2, c2 in right:
                key = _monomial_product(m1, m2)
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
            for mono, c in right.items():
                left[mono] = left.get(mono, 0) + sign * c

    def atom(self) -> dict:
        kind, value, at = self.next()
        n = self.n_vars
        if kind == "int":
            base = {(): value}
        elif kind == "var":
            if not 1 <= value <= n:
                raise ParseError(f"variable x{value} out of range 1..{n}", at)
            base = {((value - 1, 1),): 1}
        elif kind == "(":
            base = self.expression(1)
            kind2, _, at2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", at2)
        elif kind == "-":
            # unary minus binds tighter than + - but looser than ^
            return {mono: -c for mono, c in self.expression(2).items()}
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
        result = {(): 1}  # square and multiply
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

    Expanding products multiplies the number of terms and the size of
    the coefficients, so it is charged: CeilingExceeded refuses a parse
    whose products' pairs of 64-bit coefficient words would add up to
    more than ``ceiling`` (None: ``exceptions.DEFAULT_CEILING``), before
    the product that would pass it.
    """
    MultiPoly(n_vars)  # refuses a negative n_vars before any variable is read
    parser = _Parser(_tokenize(text), n_vars, ceiling)
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
    for mono in sorted(f.terms, key=lambda m: (-sum(e for _, e in m), [(v, -e) for v, e in m])):
        c = f.terms[mono]
        factors = [f"x{v + 1}" if e == 1 else f"x{v + 1}^{e}" for v, e in mono]
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


class CubeSpec:
    """The enumeration domain [0, p-1]^n_vars."""

    __slots__ = ("p", "n_vars")

    def __init__(self, p: int, n_vars: int):
        self.p = p
        self.n_vars = n_vars


class Component:
    """Variables linked through shared terms, and each polynomial's terms
    on them, in monomials that number a variable by its place in ``variables``."""

    __slots__ = ("variables", "terms")

    def __init__(self, variables: tuple[int, ...], terms: tuple[dict, ...]):
        self.variables = variables
        self.terms = terms


class Factorisation:
    """f_k(x) = constants[k] + sum over components C of f_k restricted to C.

    The ``free`` variables appear in no term; each multiplies every count
    by p and is never enumerated.
    """

    __slots__ = ("components", "constants", "free")

    def __init__(self, components: tuple[Component, ...],
                 constants: tuple[int, ...], free: int):
        self.components = components
        self.constants = constants
        self.free = free


def factorise(n_vars: int, polys) -> Factorisation:
    """Split the variables into the connected components of the graph that
    links two variables when some term of some polynomial uses both.

    Components are ordered by their smallest variable.
    """
    parent: dict[int, int] = {}  # union-find over the variables some term uses

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for f in polys:
        for mono in f.terms:
            for v, _ in mono:
                parent.setdefault(v, v)
                parent[find(v)] = find(mono[0][0])
    groups: dict[int, list[int]] = {}
    for j in sorted(parent):
        groups.setdefault(find(j), []).append(j)
    slot = {root: i for i, root in enumerate(groups)}
    variables = list(groups.values())
    place = {j: i for group in variables for i, j in enumerate(group)}
    terms = [[{} for _ in polys] for _ in variables]
    for k, f in enumerate(polys):
        for mono, c in f.terms.items():
            if mono:
                terms[slot[find(mono[0][0])]][k][tuple((place[v], e) for v, e in mono)] = c
    return Factorisation(
        components=tuple(Component(tuple(v), tuple(t))
                         for v, t in zip(variables, terms)),
        constants=tuple(f.terms.get((), 0) for f in polys),
        free=n_vars - len(parent))


def _value_range(terms: dict, p: int, m: int) -> tuple[int, int]:
    """Bounds on a polynomial's values over [0, p-1]^n, for a modulus m: a
    term's degree is capped at m's bit length, where (p-1)^degree already
    exceeds m, so the window min(m, width / g + 1) stays m."""
    lo = hi = 0
    for mono, c in terms.items():
        degree = min(sum(e for _, e in mono), m.bit_length())
        extreme = c * (p - 1) ** degree
        lo, hi = lo + min(extreme, 0), hi + max(extreme, 0)
    return lo, hi


def _reach(mods, widths, gcds) -> int:
    """How many residue tuples sums can reach whose k-th has a value range of
    width w_k and coefficients of gcd g_k: at most w_k // g_k + 1 and m_k."""
    return prod(min(mk, w // (g or 1) + 1) for mk, w, g in zip(mods, widths, gcds))


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
        for mono, c in terms.items():
            last = mono[-1][0]
            added[last][k][mono] = c
            for j, _ in mono:
                last_use[j] = max(last_use[j], last)
    work, steps, frontier = 0, [], ()
    widths, gcds = [0] * len(mods), [0] * len(mods)
    for i in range(n):
        work += p * min(p ** i, p ** len(frontier) * _reach(mods, widths, gcds))
        slot = {j: s for s, j in enumerate(frontier + (i,))}
        terms = []
        for k, group in enumerate(added[i]):
            terms.append(tuple((c, tuple((slot[j], e) for j, e in mono))
                               for mono, c in group.items()))
            lo, hi = _value_range(group, p, mods[k])
            widths[k] += hi - lo
            gcds[k] = gcd(gcds[k], *group.values())
        frontier = tuple(j for j in slot if last_use[j] > i)
        steps.append((tuple(slot[j] for j in frontier), terms))
    return work, steps, widths, gcds


def _frontier_histogram(p, steps, mods, start=None):
    """Counts of (f_1 mod m_1, ...) over one component, by the frontier
    DP that ``_elimination`` planned as ``steps``.  Its initial state is
    ``start``, a (residue tuple, count) pair, else (zeros, 1), so every
    residue tuple is shifted by start's and every count scaled by its count.

    The states are a dict from frontier values to a dict from residue
    tuples to counts; the terms added at a step depend on the frontier
    values and the new variable only, so they are evaluated once per
    frontier value, from tables of powers mod m_k, and shift all of its
    residue tuples alike.
    """
    states = {(): dict([start or ((0,) * len(mods), 1)])}
    power = cache(lambda e, mk: [pow(x, e, mk) for x in range(p)])  # x^e mod m_k
    for keep, terms in steps:
        terms = [[(c % mk, [(s, power(e, mk)) for s, e in factors]) for c, factors in group]
                 for group, mk in zip(terms, mods)]
        out = {}
        for frontier, hist in states.items():
            for x in range(p):
                a = frontier + (x,)
                shift = [sum(c * prod(t[a[s]] for s, t in factors)
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
    return states[()]


def _cube_values(terms, p, n, m):
    """Values mod m of a polynomial (a dict over monomials in the variables
    0..n-1) at every point of [0, p-1]^n, the last variable fastest."""
    if n == 0:
        return [sum(terms.values()) % m]
    parts: dict = {}  # f = sum_e x_n^e g_e, each g_e in one variable fewer
    for mono, c in terms.items():
        e = mono[-1][1] if mono and mono[-1][0] == n - 1 else 0
        parts.setdefault(e, {})[mono[:-1] if e else mono] = c
    out = [0] * p ** n
    for e, g in parts.items():
        xe = [pow(x, e, m) for x in range(p)]
        out = list(map(add, out, [y * z for y in _cube_values(g, p, n - 1, m) for z in xe]))
    return [v % m for v in out]


def _low_rank(terms, na):
    """Pairs (u_j, v_j) of polynomials in the first na variables and in the
    rest (renumbered from 0) with sum_j u_j * v_j equal to ``terms``.

    The pure-A terms form one pair and the pure-B terms another; the
    mixed terms are grouped by their A-monomial or by their B-monomial,
    whichever side has fewer distinct ones.  So there are never more
    pairs than terms.
    """
    pure_a, pure_b, by_a, by_b = {}, {}, {}, {}
    for mono, c in terms.items():
        ea = tuple(pair for pair in mono if pair[0] < na)
        eb = tuple((v - na, e) for v, e in mono[len(ea):])
        if not eb:
            pure_a[ea] = c
        elif not ea:
            pure_b[eb] = c
        else:
            by_a.setdefault(ea, {})[eb] = c
            by_b.setdefault(eb, {})[ea] = c
    pairs = [(pure_a, {(): 1})] if pure_a else []
    if pure_b:
        pairs.append(({(): 1}, pure_b))
    if len(by_a) <= len(by_b):
        return pairs + [({ea: 1}, v) for ea, v in by_a.items()]
    return pairs + [(u, {eb: 1}) for eb, u in by_b.items()]


def _windows(p, comp, mods):
    """(g_k, lo_k / g_k, M_k) for each f_k on one component: g_k is the gcd of
    its coefficients there (1 if none), [lo_k, hi_k] its value range, and
    f_k / g_k mod M_k = min(m_k, (hi_k - lo_k) / g_k + 1) fixes f_k mod m_k."""
    windows = []
    for terms, mk in zip(comp.terms, mods):
        g = gcd(*terms.values()) or 1
        lo, hi = _value_range(terms, p, mk)
        windows.append((g, lo // g, min(mk, (hi - lo) // g + 1)))
    return windows


def _component_histogram(p, comp, mods, start=None):
    """Counts of (f_1 mod m_1, ...) over one component's points, on Python
    integers, every residue tuple shifted by that of ``start``, a (residue
    tuple, count) pair, and every count scaled by its count (None: zeros, 1).

    The variables split into A and B, B the last half capped at ``CHUNK``
    points.  Each f_k / g_k is a sum of products u_j(A) v_j(B)
    (``_low_rank``), and its values mod M_k (``_windows``) fix f_k mod m_k.
    The row of an A-point is one integer with a field of whole bytes per
    B-point, and in it a sub-field per f_k for the sum of its pairs'
    residues; a pair has a row per value of u, or scales one mask of ones
    when v is constant.  Blocks of at most ``CHUNK`` points are counted in
    ``sys.byteorder``: one-byte sub-fields are reduced mod M_k by
    ``bytes.translate``, and a joint key of at most 256 values is counted
    by ``bytes.count``.  Each distinct key is mapped back once, and
    shifted and scaled by ``start`` there.
    """
    windows = _windows(p, comp, mods)
    moduli = [window for *_, window in windows]
    nb = next(k for k in range((len(comp.variables) + 1) // 2, -1, -1) if p ** k <= CHUNK)
    na = len(comp.variables) - nb
    pairs = [_low_rank({e: c // g for e, c in terms.items()}, na)
             for terms, (g, *_) in zip(comp.terms, windows)]
    sizes = [max(1, -(-(len(js) * (m - 1)).bit_length() // 8))
             for js, m in zip(pairs, moduli)]
    offsets = [sum(sizes[:k]) for k in range(len(sizes))]
    width = sum(sizes) if sum(sizes) > 8 else 1 << (sum(sizes) - 1).bit_length()

    def pack(values, at):  # the row with each value at byte ``at`` of its field
        return int.from_bytes(bytes(values) if width == 1 else b"".join(
            v.to_bytes(width, "little") for v in values), "little") << 8 * at

    addends = []  # per pair: u's values on A, and the row of each value
    for js, at, m in zip(pairs, offsets, moduli):
        for u, v in js:
            us, vs = _cube_values(u, p, na, m), _cube_values(v, p, nb, m)
            if len(set(vs)) == 1:  # a multiple of one mask, formed for each A-point
                mask = pack([1] * len(vs), at)
                addends.append((us, lambda t, c=vs[0], m=m, mask=mask: t * c % m * mask))
            else:
                addends.append((us, {t: pack([t * x % m for x in vs], at)
                                     for t in set(us)}.__getitem__))

    joint = max(sizes) == 1 and prod(moduli) <= 256  # one byte holds the joint key
    places = [prod(moduli[k + 1:]) if joint else 1 for k in range(len(moduli))]
    digits = (list(zip(places, moduli)) if joint else
              [(256 ** at, 256 ** size) for at, size in zip(offsets, sizes)])
    ends = [at if sys.byteorder == "little" else width - 1 - at for at in offsets]
    tables = [bytes(v % m * place for v in range(256)) for m, place in zip(moduli, places)]
    rows = (sum(row_of(us[a]) for us, row_of in addends) for a in range(p ** na))
    per_block, merged = CHUNK // p ** nb, Counter()
    while blob := b"".join(row.to_bytes(width * p ** nb, sys.byteorder)
                           for row in islice(rows, per_block)):
        if joint:
            keys = blob.translate(tables[0]) if width == 1 else sum(
                int.from_bytes(blob[end::width].translate(table), "little")
                for end, table in zip(ends, tables)).to_bytes(len(blob) // width, "little")
            merged.update({k: n for k in range(prod(moduli)) if (n := keys.count(k))})
            continue
        if max(sizes) == 1:  # every sub-field one byte, reduced mod M_k
            blob = bytearray(blob)
            for end, table in zip(ends, tables):
                blob[end::width] = blob[end::width].translate(table)
        if width <= 8:
            merged.update(memoryview(blob).cast({2: "H", 4: "I", 8: "Q"}[width]))
        else:
            merged.update(int.from_bytes(blob[i:i + width], sys.byteorder)
                          for i in range(0, len(blob), width))
    shift, factor = start or ((0,) * len(mods), 1)
    hist: dict = {}
    for key, count in merged.items():
        r = tuple((s + g * (base + (key // place % radix - base) % window)) % mk
                  for s, mk, (g, base, window), (place, radix)
                  in zip(shift, mods, windows, digits))
        hist[r] = hist.get(r, 0) + count * factor  # distinct keys may share residues
    return hist


def _convolve(hist_a, hist_b, mods):
    """Cyclic convolution of two histograms over Z_m1 x ... x Z_mK."""
    out: dict = {}
    for rb, cb in hist_b.items():
        for ra, ca in hist_a.items():
            r = tuple(map(mod, map(add, ra, rb), mods))
            out[r] = out.get(r, 0) + ca * cb
    return out


def _plan(p: int, fact: Factorisation, mods, bits: int,
          ceiling: int | None, tables: int = 0) -> list:
    """Each component of ``fact`` with its plan, chosen from bounds computed
    before any work: the frontier DP's steps (``_elimination``), or None
    when its bound D exceeds both ``CHUNK`` and the component's p^|C| points
    and the row-block product (``_component_histogram``) enumerates them.

    CeilingExceeded refuses the sum if its bound exceeds ``ceiling`` (None:
    ``exceptions.DEFAULT_CEILING``): each plan's D steps or p^|C| points,
    plus the entry pairs of each convolution, with each histogram no larger
    than its points and the residue tuples its sums can reach (``_reach``),
    all charged the 64-bit words of a ``bits``-bit number (the largest m_k),
    plus the ``tables`` entries the caller builds afterwards.  The bounds
    read each m_k only up to the number of points, so moduli capped at p^n
    give the same plans and charge.  A second charge is the square of the
    64-bit words of p^free, which ``residue_histogram`` forms, as
    ``padic.PrimePower`` charges p^a, when p^free may exceed one word.
    """
    plans, required, acc = [], 0, 1
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
    charge(-(-bits // 64) * required + tables, ceiling)
    words = fact.free * p.bit_length() // 64 + 1
    if words > 1:  # a p^free below 2^64 is formed at once
        charge(words * words, ceiling)
    return plans


def residue_histogram(p: int, fact: Factorisation, mods,
                      ceiling: int | None = None, tables: int = 0,
                      plans: list | None = None) -> dict:
    """Exact counts of (f_1 mod m_1, ..., f_K mod m_K) over the cube, as a
    dict from each occurring residue tuple to its count: each component by
    its plan (``_plan``, charged the 64-bit words of the largest m_k, unless
    the caller has planned and passes ``plans``), the histograms combined
    by cyclic convolution.  The first component's enumeration starts
    from the constants and the p^free points of the free variables."""
    if plans is None:
        plans = _plan(p, fact, mods, max(mods, default=1).bit_length(), ceiling, tables)
    start = (tuple(c % mk for c, mk in zip(fact.constants, mods)), p ** fact.free)
    if not plans:
        return dict([start])
    hist = None
    for comp, steps in plans:
        part = (_frontier_histogram(p, steps, mods, start) if steps else
                _component_histogram(p, comp, mods, start))
        hist = part if hist is None else _convolve(hist, part, mods)
        start = None
    return hist


def fold_poly_values(spec: CubeSpec, polys, ceiling: int | None = None) -> dict:
    """Exact histogram of (f_1(x), ..., f_m(x)) over the cube: a dict from
    each occurring value tuple to its exact count.

    Over the cube a term c*x^e is below 2^(bitlen(c) + ceil(|e| * L / 64)),
    where (p - 1)^64 <= 2^L, so L / 64 exceeds log2(p - 1) by less than
    1/64.  With T_k the largest such bound of f_k's nonconstant terms,
    |f_k - c_k| < 2^(T_k + bitlen(#terms)) = m_k / 2, c_k the constant
    term, so f_k mod m_k recovers f_k.  The sum is planned and charged the
    words of the largest m_k on moduli capped at 2^(n * bitlen(p)) >= p^n,
    before any m_k is formed.
    """
    for f in polys:
        if f.n_vars != spec.n_vars:
            raise ValueError("polynomial variable count does not match cube")
    p, fact = spec.p, factorise(spec.n_vars, polys)
    L = ((p - 1) ** 64 - 1).bit_length()
    bits = [max((c.bit_length() + -(-sum(x for _, x in e) * L // 64)
                 for e, c in f.terms.items() if e),
                default=0) + len(f.terms).bit_length() + 1 for f in polys]
    cap = spec.n_vars * p.bit_length()
    plans = _plan(p, fact, [1 << min(b, cap) for b in bits], max(bits, default=0) + 1, ceiling)
    mods = [1 << b for b in bits]
    hist = residue_histogram(p, fact, mods, plans=plans)
    return {tuple((r - c + m // 2) % m - m // 2 + c
                  for r, c, m in zip(residues, fact.constants, mods)): count
            for residues, count in hist.items()}
