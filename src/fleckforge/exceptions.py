"""Shared exception types."""


class TheoremViolation(Exception):
    """A proved divisibility or congruence statement failed on a concrete
    instance whose hypotheses hold.  Always indicates an implementation
    bug, never a user error."""


class GuaranteeError(RuntimeError):
    """An internal valuation guarantee failed during synthesis; indicates
    an implementation bug."""


class CeilingExceeded(Exception):
    """A cube sum's work bound (the planned enumeration's steps, the
    convolution pairs and the F-table entries) is above the ceiling: the
    one its caller passed, else ``multipoly.DEFAULT_CEILING``."""

    def __init__(self, required: int, ceiling: int):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"enumeration needs {required} steps, ceiling is {ceiling}")
