"""Shared exception types."""


class TheoremViolation(Exception):
    """A proved statement failed on a concrete instance whose hypotheses
    hold: a divisibility or congruence, or a degree or valuation bound of
    a synthesised polynomial.  Always indicates an implementation bug,
    never a user error."""


class CeilingExceeded(Exception):
    """A cube sum's work bound (the planned enumeration's steps, the
    convolution pairs and, on the modular engine, the F-table entries,
    whatever the moduli), or a parse's charge (per product, the 64-bit
    coefficient words of one factor times those of the other), is above
    the ceiling: the one its caller passed, else
    ``multipoly.DEFAULT_CEILING``."""

    def __init__(self, required: int, ceiling: int):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"enumeration needs {required} steps, ceiling is {ceiling}")
