"""Shared exception types, and the request's work ceiling that one of them enforces."""

DEFAULT_CEILING = 10 ** 8  # steps a computation may be charged outside any ceiling block
_running = DEFAULT_CEILING  # the ceiling of the innermost open ceiling block


class TheoremViolation(Exception):
    """A proved statement failed on a concrete instance whose hypotheses
    hold: a divisibility or congruence, or a degree or valuation bound of
    a synthesised polynomial.  Always indicates an implementation bug,
    never a user error."""


class CeilingExceeded(Exception):
    """The work a function charges before doing it (``charge``; what each
    one charges is stated in its docstring) is above the running ceiling."""

    def __init__(self, required: int, ceiling: int):
        self.required = required
        self.ceiling = ceiling
        super().__init__(
            f"enumeration needs {required} steps, ceiling is {ceiling}")


class ceiling:
    """``with ceiling(limit):`` charges the work inside the block against
    ``limit`` (None: ``DEFAULT_CEILING``), then restores the outer one."""

    def __init__(self, limit: int | None):
        self.limit = DEFAULT_CEILING if limit is None else limit

    def __enter__(self):
        global _running
        self.outer, _running = _running, self.limit

    def __exit__(self, *exc_info):
        global _running
        _running = self.outer


def charge(required: int) -> None:
    """Refuse ``required`` steps of work above the running ceiling."""
    if required > _running:
        raise CeilingExceeded(required=required, ceiling=_running)
