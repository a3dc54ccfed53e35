"""Sparse multivariate integer polynomials and factorised cube sums.

Polynomials are stored as dictionaries mapping exponent vectors to
nonzero integer coefficients, e.g. 17 + 2*x1*x2 - 19*x1^6*x3^12 over
three variables is
    {(0,0,0): 17, (1,1,0): 2, (6,0,12): -19}

A small precedence-climbing parser accepts the text grammar
``x1 + 3*(x2 - x1)^2`` (variables x1..xN, integer literals, + - * ^,
parentheses; exponents are nonnegative integer literals).

A sum over [0, p-1]^n of a function of (f_1(x), ..., f_m(x)) depends
only on how often each value tuple occurs.  ``factorise`` splits the
variables into the connected components of the graph that links two
variables sharing a term; the value histogram over the cube is then the
convolution of the per-component histograms, so only sum_C p^|C| points
are visited.  ``fold_poly_values`` walks each component with exact
integers, substituting variables one at a time so that only the terms
involving the changed variable are recomputed at each step.  The
enumeration ceiling bounds the points visited plus the convolution work.
"""
from __future__ import annotations

import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import prod
from operator import add

from .exceptions import CeilingExceeded

DEFAULT_CEILING = 10 ** 8


def enumeration_ceiling() -> int:
    """Work guard for cube sums (see check_ceiling); FLECKFORGE_CEILING overrides."""
    raw = os.environ.get("FLECKFORGE_CEILING")
    return int(raw) if raw else DEFAULT_CEILING


class MultiPoly:
    """Sparse multivariate polynomial with integer coefficients."""

    __slots__ = ("n_vars", "terms", "_total_degree")

    def __init__(self, n_vars: int, terms=None):
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

    @classmethod
    def constant(cls, n_vars: int, c: int) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: c})

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "MultiPoly":
        # index is 0-based
        exps = [0] * n_vars
        exps[index] = 1
        return cls(n_vars, {tuple(exps): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (isinstance(other, MultiPoly)
                and self.n_vars == other.n_vars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.n_vars, frozenset(self.terms.items())))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        merged = dict(self.terms)
        for exps, c in other.terms.items():
            merged[exps] = merged.get(exps, 0) + c
        return MultiPoly(self.n_vars, merged)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.n_vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other: "MultiPoly") -> "MultiPoly":
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return MultiPoly(self.n_vars, out)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative exponent")
        result = MultiPoly.constant(self.n_vars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

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
    """Precedence climbing over + - (prec 1), * (prec 2), ^ (literal exponent)."""

    def __init__(self, tokens, n_vars):
        self.tokens = tokens
        self.pos = 0
        self.n_vars = n_vars

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> MultiPoly:
        poly = self.expression(1)
        kind, _, at = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {kind!r}", at)
        return poly

    def expression(self, min_prec: int) -> MultiPoly:
        left = self.atom()
        while True:
            kind, _, _ = self.peek()
            prec = {"+": 1, "-": 1, "*": 2}.get(kind, 0)
            if prec < min_prec or prec == 0:
                return left
            self.next()
            right = self.expression(prec + 1)
            if kind == "+":
                left = left + right
            elif kind == "-":
                left = left - right
            else:
                left = left * right

    def atom(self) -> MultiPoly:
        kind, value, at = self.next()
        if kind == "int":
            base = MultiPoly.constant(self.n_vars, value)
        elif kind == "var":
            if not 1 <= value <= self.n_vars:
                raise ParseError(
                    f"variable x{value} out of range 1..{self.n_vars}", at)
            base = MultiPoly.variable(self.n_vars, value - 1)
        elif kind == "(":
            base = self.expression(1)
            kind2, _, at2 = self.next()
            if kind2 != ")":
                raise ParseError("expected ')'", at2)
        elif kind == "-":
            # unary minus binds tighter than + - but looser than ^
            return -self.expression(2)
        else:
            raise ParseError(f"unexpected {kind!r}", at)
        return self.exponent(base)

    def exponent(self, base: MultiPoly) -> MultiPoly:
        kind, _, _ = self.peek()
        if kind != "^":
            return base
        self.next()
        kind, value, at = self.next()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal", at)
        return base ** value


def parse_poly(text: str, n_vars: int) -> MultiPoly:
    """Parse the text grammar into expanded, normalized sparse form."""
    return _Parser(_tokenize(text), n_vars).parse()


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

CHUNK = 1 << 16  # points per enumeration chunk; a component this small runs in-process


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


def check_ceiling(points, value_counts, caps, ceiling: int | None,
                  tables: int = 0) -> None:
    """Refuse a factorised sum whose work bound exceeds the ceiling.

    The bound is the number of points enumerated, ``sum(points)``, plus
    the entry pairs formed by each convolution, plus the entries of any
    lookup ``tables`` built beforehand.  Component i's histogram has at
    most min(points[i], value_counts[i]) entries; the histogram
    accumulated over components 0..i has at most the product of those
    sizes and at most ``caps[i]`` entries.
    """
    required, acc = sum(points) + tables, 1
    for size, cap in zip(map(min, points, value_counts), caps):
        required += acc * size
        acc = min(acc * size, cap)
    if ceiling is None:
        ceiling = enumeration_ceiling()
    if required > ceiling:
        raise CeilingExceeded(required=required, ceiling=ceiling)


def _value_range(terms: dict, p: int) -> tuple[int, int]:
    """Bounds on a polynomial's values over [0, p-1]^n."""
    lo = hi = 0
    for exps, c in terms.items():
        extreme = c * (p - 1) ** sum(exps)
        lo, hi = lo + min(extreme, 0), hi + max(extreme, 0)
    return lo, hi


def _partition(values, blocks: int):
    """Split a list into <= blocks contiguous chunks of near-equal size."""
    n = len(values)
    blocks = max(1, min(blocks, n))
    out = []
    start = 0
    for i in range(blocks):
        stop = start + n // blocks + (1 if i < n % blocks else 0)
        out.append(values[start:stop])
        start = stop
    return out


def _substitute_first(terms: dict, value: int) -> dict:
    """Substitute the first variable; exponent keys shrink by one entry.

    Terms not involving the variable are carried over in one dict copy;
    only the dependent terms are recomputed.
    """
    base = {}
    dependent = []
    for exps, c in terms.items():
        if exps[0]:
            dependent.append((exps[0], exps[1:], c))
        else:
            base[exps[1:]] = c
    out = dict(base)
    for e0, rest, c in dependent:
        out[rest] = out.get(rest, 0) + c * value ** e0
    return out


def _histogram_block(p: int, n_vars: int, term_dicts, first_values) -> Counter:
    """Counts of the value tuples over the points whose first coordinate
    lies in ``first_values`` (n_vars >= 1)."""
    hist: Counter = Counter()

    def rec(dicts, vars_left) -> None:
        if vars_left == 1:
            # univariate tail: evaluate each remaining polynomial directly
            flats = [[(e[0], c) for e, c in d.items()] for d in dicts]
            hist.update(tuple(sum(c * x ** e if e else c for e, c in flat)
                              for flat in flats) for x in range(p))
            return
        for v in range(p):
            rec([_substitute_first(d, v) for d in dicts], vars_left - 1)

    for v0 in first_values:
        dicts = [_substitute_first(d, v0) for d in term_dicts]
        if n_vars == 1:
            hist[tuple(d.get((), 0) for d in dicts)] += 1
        else:
            rec(dicts, n_vars - 1)
    return hist


def _value_histogram(p: int, comp: Component, workers: int) -> Counter:
    n = len(comp.variables)
    if workers <= 1 or p ** n <= CHUNK:
        return _histogram_block(p, n, comp.terms, range(p))
    blocks = _partition(list(range(p)), workers)
    hist: Counter = Counter()
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        futures = [pool.submit(_histogram_block, p, n, comp.terms, blk)
                   for blk in blocks]
        for f in futures:
            hist.update(f.result())
    return hist


def _convolve(left: Counter, right: Counter) -> Counter:
    """Histogram of u + v for u, v drawn from independent histograms."""
    out: Counter = Counter()
    for u, cu in left.items():
        for v, cv in right.items():
            out[tuple(map(add, u, v))] += cu * cv
    return out


def fold_poly_values(spec: CubeSpec, polys, leaf, workers: int = 1,
                     ceiling: int | None = None) -> int:
    """Exact sum of leaf((f_1(x), ..., f_m(x))) over the cube.

    The sum depends only on how often each tuple of exact values occurs.
    Each connected component of the variables (see ``factorise``) is
    walked alone by incremental substitution into a histogram of value
    tuples, and the histograms are combined by convolution: values add,
    counts multiply.  ``leaf`` maps a value tuple to an integer; it is
    called in this process, once per distinct tuple.  A component larger
    than one chunk is split over ``workers`` processes by the range of
    its first variable; the sum does not depend on the split.
    """
    for f in polys:
        if f.n_vars != spec.n_vars:
            raise ValueError("polynomial variable count does not match cube")
    p = spec.p
    fact = factorise(spec.n_vars, polys)
    ranges = [[_value_range(t, p) for t in comp.terms] for comp in fact.components]
    # value tuples over components 0..i lie in a box with these side widths
    caps, widths = [], [0] * len(polys)
    for r in ranges:
        widths = [w + hi - lo for w, (lo, hi) in zip(widths, r)]
        caps.append(prod(w + 1 for w in widths))
    check_ceiling([p ** len(comp.variables) for comp in fact.components],
                  [prod(hi - lo + 1 for lo, hi in r) for r in ranges], caps,
                  ceiling)
    hist = Counter({fact.constants: p ** fact.free})
    for comp in fact.components:
        hist = _convolve(hist, _value_histogram(p, comp, workers))
    return sum(count * leaf(values) for values, count in hist.items())
