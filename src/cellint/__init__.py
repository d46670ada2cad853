"""Workbench for exact p-adic cell-based integration and exponential-sum analysis.

Evaluates integrals of simple q-exponential functions over explicit p-adic
cells in closed form, cross-checks them against brute-force residue-sum
oracles, verifies cell-decomposition certificates, and measures decay rates
of multivariate p-adic exponential sums.
"""

from .cells import (
    Bound,
    BoxDomain,
    CellLevel,
    CellTower,
    CosetSpec,
    DecompositionCertificate,
    NormDescription,
    check_norm_description,
    check_partition,
    contains,
    certificate_from_dict,
    certificate_to_dict,
    fiber_measure,
    fiber_valuation_range,
    load_certificate,
    load_terms,
    point_cell,
    save_certificate,
    terms_from_dict,
    tower_measure,
    unit_ball_coset_cell,
    zp_nonzero_cell,
)
from .errors import (
    AllVanishedError,
    BoundVanishedError,
    BudgetExceededError,
    CellintError,
    CertificateMismatchError,
    DivergentError,
    ExponentTooLargeError,
    ExprSyntaxError,
    FloatOverflowError,
    InvalidArgumentError,
    NonIntegralCoefficientsError,
    NotPIntegralError,
    UnknownVariableError,
    ValOfZeroError,
    ZeroCosetError,
    ZeroDenominatorError,
    ZeroInputError,
)
from .expsums import (
    DecayFit,
    ExpSumResult,
    additive_character,
    bound_check,
    decay_fit,
    dominance_warning,
    exp_sum,
    fourier_check,
    normalized_kloosterman,
    singular_series,
)
from .formula_dsl import (
    FracNormPower,
    IntegerPower,
    Norm,
    Product,
    QExpExpr,
    RationalConst,
    ScalarMultiple,
    Sum,
    Val,
    evaluate,
    evaluate_fractional,
    format_expr,
    parse_expr,
    parse_poly,
)
from .oracle import (
    OracleResult,
    count_solutions,
    monte_carlo_integrate,
    riemann_integrate,
    riemann_sums,
    solution_histogram,
    stabilization_check,
)
from .padic_core import (
    DEFAULT_BUDGET,
    INF,
    PrimeContext,
    coset_membership,
    coset_representatives,
    hensel_level,
    is_nth_power,
    is_prime,
    norm,
    residue,
    shell_coset_measure,
    unit_coset_density,
    valuation,
)
from .polynomials import Polynomial, format_poly
from .qexp_sum import (
    CellTermSpec,
    KRange,
    LatticeFactor,
    LatticeTermSpec,
    TermOnCell,
    decide_integrability,
    eulerian_polynomial,
    integrate_explicit_tower,
    krange_from_bounds,
    mixed_sum,
    power_sum,
    shell_sum,
)
from .rootval import RootScaledValue

__version__ = "0.1.0"
