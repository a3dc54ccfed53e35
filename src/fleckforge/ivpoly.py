"""One-variable integer-valued polynomials in the binomial basis.

A polynomial is stored as its coefficient list [c_0, ..., c_l] with
f(x) = sum_j c_j * C(x, j); the c_j are exactly the forward differences
of f at 0.
"""
from __future__ import annotations

from .padic import binom_int  # noqa: F401  unused here; tracers wrap it at this name


class IntegerValuedPoly:
    """f(x) = sum_j coeffs[j] * C(x, j), with integer coefficients.

    The zero polynomial is the empty coefficient list.  Trailing zeros
    are permitted (the declared degree bound is len(coeffs) - 1).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(int(c) for c in coeffs)

    @property
    def degree_bound(self) -> int:
        """Declared degree bound l; -1 for the empty (zero) polynomial."""
        return len(self.coeffs) - 1


def eval_ivp(f: IntegerValuedPoly, x: int) -> int:
    """Evaluate sum_j c_j * C(x, j) exactly, building the binomial row iteratively."""
    total = 0
    b = 1  # C(x, 0)
    for j, c in enumerate(f.coeffs):
        if j > 0:
            b = b * (x - j + 1) // j
        total += c * b
    return total


def forward_differences(values: list[int]) -> list[int]:
    """Forward differences at 0 of the table [f(0), ..., f(d)].

    Returns [D^0 f(0), ..., D^d f(0)] computed by the difference
    triangle.  Empty input gives empty output.
    """
    row = list(values)
    out = []
    while row:
        out.append(row[0])
        row = [row[i + 1] - row[i] for i in range(len(row) - 1)]
    return out


def ivp_from_values(values: list[int]) -> IntegerValuedPoly:
    """The unique polynomial of degree <= l agreeing with [f(0), ..., f(l)]."""
    return IntegerValuedPoly(forward_differences(values))


def monomials_to_ivp(monomial_coeffs: list[int]) -> IntegerValuedPoly:
    """Convert [a_0, ..., a_l] for sum_j a_j x^j into the binomial basis."""
    l = len(monomial_coeffs) - 1
    if l < 0:
        return IntegerValuedPoly()
    values = []
    for x in range(l + 1):
        v = 0
        for a in reversed(monomial_coeffs):
            v = v * x + a
        values.append(v)
    return ivp_from_values(values)
