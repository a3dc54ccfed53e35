"""fleckforge: exact congruence sums, binomial-basis polynomial synthesis,
and divisibility verification over prime fields by factorised cube sums."""

__version__ = "0.1.0"
