"""Reference evaluators the tests check the library against.

Import as ``from oracles import eval_poly``: pytest puts this directory
on ``sys.path`` because ``tests/`` is not a package.
"""
from fleckforge.multipoly import MultiPoly


def monomial(exps) -> tuple:
    """The monomial of a dense exponent vector, as ``MultiPoly`` keys its
    terms: monomial((2, 0, 1)) == ((0, 2), (2, 1))."""
    return tuple((j, e) for j, e in enumerate(exps) if e)


def eval_poly(f: MultiPoly, point) -> int:
    """Exact value of f at an integer point, term by term."""
    if len(point) != f.n_vars:
        raise ValueError(f"point has {len(point)} coordinates, need {f.n_vars}")
    total = 0
    for mono, c in f.terms.items():
        v = c
        for j, e in mono:
            v *= point[j] ** e
        total += v
    return total


def fleck_bound(n: int, p: int) -> int:
    """Fleck's lower bound on ord_p of the restricted sum at a = 1, f = 1:
    floor((n - 1)/(p - 1))."""
    return (n - 1) // (p - 1)


def weisman_bound(n: int, pp) -> int:
    """Weisman's lower bound on ord_p of the restricted sum at a >= 1,
    f = 1: floor((n - p^(a-1))/phi(p^a))."""
    p, a = pp.p, pp.a
    return (n - p ** (a - 1)) // (p ** a - p ** (a - 1))
