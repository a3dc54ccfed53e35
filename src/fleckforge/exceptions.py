"""Shared exception types, and the work ceiling that one of them enforces."""
from __future__ import annotations

DEFAULT_CEILING = 10 ** 8  # steps a computation may be charged, unless its caller says


class TheoremViolation(Exception):
    """A proved statement failed on a concrete instance whose hypotheses
    hold: a divisibility or congruence, or a degree or valuation bound of
    a synthesised polynomial.  Always indicates an implementation bug,
    never a user error."""


class CeilingExceeded(Exception):
    """The work a function charges before doing it is above the ceiling:
    the one its caller passed, else ``DEFAULT_CEILING``.  Each function
    that does the work charges it (``charge``); what each one charges is
    stated in its docstring."""

    def __init__(self, required: int, ceiling: int):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"enumeration needs {required} steps, ceiling is {ceiling}")


def charge(required: int, ceiling: int | None = None) -> None:
    """Refuse ``required`` steps of work above ``ceiling`` (None:
    ``DEFAULT_CEILING``) with CeilingExceeded."""
    if ceiling is None:
        ceiling = DEFAULT_CEILING
    if required > ceiling:
        raise CeilingExceeded(required=required, ceiling=ceiling)
