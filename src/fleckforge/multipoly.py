"""Sparse multivariate integer polynomials and exhaustive cube enumeration.

Polynomials are stored as dictionaries mapping exponent vectors to
nonzero integer coefficients, e.g. 17 + 2*x1*x2 - 19*x1^6*x3^12 over
three variables is
    {(0,0,0): 17, (1,1,0): 2, (6,0,12): -19}

A small precedence-climbing parser accepts the text grammar
``x1 + 3*(x2 - x1)^2`` (variables x1..xN, integer literals, + - * ^,
parentheses; exponents are nonnegative integer literals).

The enumeration engine, ``fold_poly_values``, walks [0, p-1]^n and folds
an exact integer per point.  It substitutes variables one at a time so
that only the terms involving the changed variable are recomputed at
each step.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .exceptions import CeilingExceeded

DEFAULT_CEILING = 10 ** 8


def enumeration_ceiling() -> int:
    """Point-count guard for cube enumeration; FLECKFORGE_CEILING overrides."""
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

@dataclass(frozen=True)
class CubeSpec:
    """The enumeration domain [0, p-1]^n_vars."""

    p: int
    n_vars: int

    @property
    def size(self) -> int:
        return self.p ** self.n_vars


def _check_ceiling(spec: CubeSpec, ceiling: int | None) -> None:
    if ceiling is None:
        ceiling = enumeration_ceiling()
    if spec.size > ceiling:
        raise CeilingExceeded(required=spec.size, ceiling=ceiling)


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


def _fold_values_block(p: int, n_vars: int, term_dicts, leaf, first_values) -> int:
    if n_vars == 0:
        return leaf(tuple(d.get((), 0) for d in term_dicts))

    def rec(dicts, vars_left) -> int:
        if vars_left == 1:
            # univariate tail: evaluate each remaining polynomial directly
            flats = [[(e[0], c) for e, c in d.items()] for d in dicts]
            subtotal = 0
            for x in range(p):
                subtotal += leaf(tuple(
                    sum(c * x ** e if e else c for e, c in flat)
                    for flat in flats))
            return subtotal
        subtotal = 0
        for v in range(p):
            subtotal += rec([_substitute_first(d, v) for d in dicts],
                            vars_left - 1)
        return subtotal

    total = 0
    for v0 in first_values:
        if n_vars == 1:
            total += leaf(tuple(
                sum(c * v0 ** e[0] if e[0] else c for e, c in d.items())
                for d in term_dicts))
        else:
            total += rec([_substitute_first(d, v0) for d in term_dicts],
                         n_vars - 1)
    return total


def fold_poly_values(spec: CubeSpec, polys, leaf, workers: int = 1,
                     ceiling: int | None = None) -> int:
    """Exact sum of leaf((f_1(x), ..., f_m(x))) over the cube.

    The polynomials are evaluated by incremental substitution: walking
    the cube with the last variable fastest, each step recomputes only
    the terms involving the changed variable.  ``leaf`` maps the tuple
    of exact polynomial values at a point to an integer contribution.
    With workers > 1 the first variable's range is split into contiguous
    blocks handed to a process pool, so ``leaf`` must be picklable and
    free of shared mutable state; the sum does not depend on the split.
    """
    _check_ceiling(spec, ceiling)
    for f in polys:
        if f.n_vars != spec.n_vars:
            raise ValueError("polynomial variable count does not match cube")
    dicts = [dict(f.terms) for f in polys]
    if workers <= 1 or spec.n_vars == 0 or spec.p == 1:
        return _fold_values_block(spec.p, spec.n_vars, dicts, leaf,
                                  range(spec.p))
    blocks = _partition(list(range(spec.p)), workers)
    with ProcessPoolExecutor(max_workers=len(blocks)) as pool:
        futures = [pool.submit(_fold_values_block, spec.p, spec.n_vars,
                               dicts, leaf, blk) for blk in blocks]
        return sum(f.result() for f in futures)
