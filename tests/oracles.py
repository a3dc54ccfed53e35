"""Reference evaluators the tests check the library against.

Import as ``from oracles import eval_poly``: pytest puts this directory
on ``sys.path`` because ``tests/`` is not a package.
"""
from math import factorial

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


def diagonal_valuation(p: int, coeffs, degrees):
    """Stickelberger's valuation of the zero count N over F_p^n of the
    diagonal form f = sum_i a_i x_i^(d_i), with no enumeration.

    N = p^(n-1) + ((p-1)/p) sum prod_i chi_i(a_i^-1) g(chi_i), the sum over
    nontrivial characters with chi_i^(d_i) = 1 and prod_i chi_i = 1
    (Ireland-Rosen, A Classical Introduction to Modern Number Theory, 8.7).
    With chi_i = omega^(-k_i), omega the Teichmueller character, a tuple is
    admissible when each k_i is in 1..p-2, (p-1) | k_i d_i and
    (p-1) | sum k_i, and Stickelberger's congruence g(omega^(-k)) ==
    -lambda^k / k! mod lambda^(k+1), lambda = zeta_p - 1 (Washington,
    Introduction to Cyclotomic Fields, 6.13), gives its term's leading part.

    Returns (t, S): t the least sum k_i / (p-1) over admissible tuples, S
    the sum over the tuples reaching it of prod_i a_i^(k_i) / k_i! mod p.
    Then ord_p(N - p^(n-1)) is t - 1 if S != 0, and at least t otherwise.
    None means no tuple is admissible, and N = p^(n-1).
    """
    q = p - 1
    best = {0: (0, 1)}  # sum k_i mod q -> (least sum k_i, S over the tuples reaching it)
    for a, d in zip(coeffs, degrees):
        terms = [(k, pow(a, k, p) * pow(factorial(k), -1, p) % p)
                 for k in range(1, q) if k * d % q == 0]
        out = {}
        for r, (total, s) in best.items():
            for k, term in terms:
                key, reached = (r + k) % q, total + k
                least, acc = out.get(key, (reached, 0))
                if reached < least:
                    out[key] = (reached, s * term % p)
                elif reached == least:
                    out[key] = (reached, (acc + s * term) % p)
        best = out
    if 0 not in best:
        return None
    total, s = best[0]
    return total // q, s
