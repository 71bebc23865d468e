"""High-precision Diophantine approximation exponents and parametric
geometry of numbers.

Three layers: ``numerics`` (precision-carrying scalars, certified root
finding), ``bounds`` (every closed-form and implicit-equation exponent
constant), and ``pgn`` (integer-vector enumeration, minimal points,
successive-minima profiles, empirical exponent estimation).
"""

from .bounds import (
    BoundContext,
    BoundsError,
    ClassicalN2,
    ConstantsReport,
    DegenerateContext,
    DomainError,
    DualBoundSet,
    HypothesisViolated,
    MuValue,
    NotRegularGraph,
    beta_for_equality,
    chi_estimate,
    classical_low_dim,
    constants_report,
    dual_bounds,
    dual_to_psi,
    integer_approx_exponents,
    laurent_odd_bound,
    lefths_solve,
    mm_defect,
    mu,
    regular_graph_duals,
    regular_graph_lambda_bound,
    sigma,
    tau,
    theta,
    transfer_dual,
)
from .numerics import (
    DEFAULT_PRECISION_BITS,
    DEFAULT_TOL,
    InvalidBracket,
    InvalidPoint,
    NoConvergence,
    NumericsError,
    PrecisionReal,
    e_value,
    exp,
    find_root,
    format_real,
    golden_value,
    liouville_value,
    log,
    pi_value,
    scan_brackets,
    sqrt,
    sqrt2_value,
)
from .pgn import (
    ApproxVector,
    ExponentEstimates,
    InsufficientData,
    InsufficientRank,
    MinimalPointSequence,
    PgnError,
    ProfileSample,
    RationalDependence,
    TargetPoint,
    TheoremVReport,
    build_q_grid,
    check_theorem_v,
    enumerate_candidates,
    estimate_exponents,
    intersection_diagnostics,
    minimal_points,
    minkowski_defect,
    profile,
    undominated_candidates,
    vector_L,
    vector_min_point,
)

__version__ = "0.1.0"
