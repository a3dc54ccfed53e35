"""One-variable integer-valued polynomials in the binomial basis.

A polynomial is stored as its coefficient list [c_0, ..., c_l] with
f(x) = sum_j c_j * C(x, j); the c_j are exactly the forward differences
of f at 0.  Also provides the exact determinant form of the truncation
remainder of the forward-difference interpolation series.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import binom_int  # noqa: F401  unused here; tracers wrap it at this name


@dataclass(frozen=True)
class IntegerValuedPoly:
    """f(x) = sum_j coeffs[j] * C(x, j), with integer coefficients.

    The zero polynomial is the empty coefficient list.  Trailing zeros
    are permitted (the declared degree bound is len(coeffs) - 1).
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        object.__setattr__(self, "coeffs", tuple(int(c) for c in coeffs))

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


def _det_bareiss(rows):
    """Exact determinant by fraction-free (Bareiss) elimination.

    Entries may be ints or Fractions; every division performed is exact.
    """
    m = [list(r) for r in rows]
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if isinstance(num, Fraction) or isinstance(prev, Fraction):
                    m[i][j] = num / prev
                else:
                    m[i][j] = num // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def newton_remainder(values, x, fx, d=None):
    """Exact truncation remainder of the forward-difference series at degree d.

    ``values`` is the table [f(0), ..., f(d)], ``fx`` the value f(x) at the
    query point ``x`` (int, Fraction, or anything exact).  Returns the ratio
    of the bordered (d+2)x(d+2) node/value determinant to the d x d
    power-matrix determinant; this equals
    f(x) - sum_{n<=d} D^n f(0) * C(x, n) whenever both sides are defined,
    and is 0 if f is a polynomial of degree <= d.
    """
    if d is None:
        d = len(values) - 1
    if len(values) != d + 1:
        raise ValueError(f"need d+1 = {d + 1} values, got {len(values)}")
    x = Fraction(x)

    top = []
    for i, fi in enumerate(values):
        top.append([i ** j for j in range(d + 1)] + [fi])
    top.append([x ** j for j in range(d + 1)] + [Fraction(fx)])
    numerator = _det_bareiss(top)

    bottom = [[i ** j for j in range(1, d + 1)] for i in range(1, d + 1)]
    denominator = _det_bareiss(bottom)
    if denominator == 0:
        # Nodes 0..d are distinct, so this cannot happen.
        raise ArithmeticError("singular node matrix in remainder determinant")
    return Fraction(numerator) / Fraction(denominator)


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
