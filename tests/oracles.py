"""Reference evaluators the tests check the library against.

Import as ``from oracles import eval_poly``: pytest puts this directory
on ``sys.path`` because ``tests/`` is not a package.
"""
from fleckforge.multipoly import MultiPoly


def eval_poly(f: MultiPoly, point) -> int:
    """Exact value of f at an integer point, term by term."""
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
