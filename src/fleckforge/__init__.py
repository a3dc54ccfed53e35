"""fleckforge: exact congruence sums, binomial-basis polynomial synthesis,
and divisibility verification over prime fields by factorised cube sums."""

from .axkatz import (
    CongruenceSystem,
    Constraint,
    DivisibilityVerdict,
    axkatz_prime_verify,
    chevalley_warning_verify,
    corollary11_verify,
    hypothesis_16,
    lemma22_verify,
    theorem12_sum,
    verify_theorem12,
)
from .exceptions import CeilingExceeded, TheoremViolation
from .fleck import (
    FleckReport,
    check_lemma21,
    factorial_bound,
    fleck_bound,
    gkp_identity_check,
    restricted_sum,
    wan_bound,
    weisman_bound,
)
from .ivpoly import (
    IntegerValuedPoly,
    eval_ivp,
    forward_differences,
    ivp_from_values,
    monomials_to_ivp,
)
from .multipoly import (
    CubeSpec,
    MultiPoly,
    ParseError,
    fold_poly_values,
    parse_poly,
    render_poly,
    total_degree,
)
from .padic import (
    INFINITE,
    PrimePower,
    binom_int,
    is_prime,
    ord_factorial,
    ord_int,
    phi_prime_power,
)
from .wilson import (
    NewtonPoly,
    ResidueTable,
    bound_M,
    max_degree,
    synthesize,
    verify_theorem11,
)

__version__ = "0.1.0"
