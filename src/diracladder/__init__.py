"""Bound states of the radial Dirac-Coulomb problem by ladder operators.

The closed-form solution lives in `channels` (quantum numbers and energies),
`ladder` (the operator algebra acting on generalized-Laguerre coefficient
vectors) and `radial` (assembly of the physical two-component wavefunction).
`oracle` re-derives everything numerically: high-order quadrature for norms
and inner products, direct substitution into the coupled first-order system,
and a two-sided shooting eigensolver that knows nothing about the algebra.
`verify` bundles both sides into pass/fail suites, `cli` exposes the lot.
"""

__version__ = "0.1.0"

from .channels import (
    BoundState,
    Channel,
    bound_energy,
    make_channel,
    mu_from_energy,
    spectrum_table,
    state_from_energy,
    zeta_from_charge,
)
from .errors import (
    DiracLadderError,
    DomainError,
    InvalidQuantumNumber,
    NoSignChange,
    NotAnEigenfunction,
    PrecisionLimit,
    QuadratureFailure,
    StiffnessFailure,
    Supercritical,
    SupercriticalChannelWarning,
    UnphysicalState,
    WrongBranch,
)
from .ladder import (
    LadderFunction,
    OperatorMatrix,
    apply_casimir,
    apply_lowering,
    apply_omega3,
    apply_raising,
    c_minus,
    c_plus,
    commutator_check,
    ground_ladder_function,
    matrix_representation,
    negative_branch_ground,
    positive_operator_check,
    raise_to_rank,
)
from .oracle import (
    QuadratureSpec,
    ShootingConfig,
    ShootingResult,
    compare_spectrum,
    component_norm_integral,
    divergence_check,
    inner_product,
    laguerre_weighted_integral,
    matching_determinant,
    matching_scan,
    ode_residual,
    shooting_solution,
    shooting_solve,
    truncated_norms,
)
from .radial import (
    RadialSolution,
    WavefunctionTable,
    build_solution,
    count_radial_nodes,
    evaluate_on_grid,
    physical_norm_integral,
    physical_normalize,
)
from .report import CheckResult, VerificationReport
from .verify import SUITE_NAMES, run_suite, run_suites

__all__ = [
    "__version__",
    "BoundState", "Channel", "bound_energy", "make_channel", "mu_from_energy",
    "spectrum_table", "state_from_energy", "zeta_from_charge",
    "DiracLadderError", "DomainError", "InvalidQuantumNumber", "NoSignChange",
    "NotAnEigenfunction", "PrecisionLimit", "QuadratureFailure",
    "StiffnessFailure", "Supercritical", "SupercriticalChannelWarning",
    "UnphysicalState", "WrongBranch",
    "LadderFunction", "OperatorMatrix", "apply_casimir", "apply_lowering",
    "apply_omega3", "apply_raising", "c_minus", "c_plus", "commutator_check",
    "ground_ladder_function", "matrix_representation", "negative_branch_ground",
    "positive_operator_check", "raise_to_rank",
    "QuadratureSpec", "ShootingConfig", "ShootingResult", "compare_spectrum",
    "component_norm_integral", "divergence_check", "inner_product",
    "laguerre_weighted_integral",
    "matching_determinant", "matching_scan", "ode_residual",
    "shooting_solution", "shooting_solve", "truncated_norms",
    "RadialSolution", "WavefunctionTable", "build_solution",
    "count_radial_nodes", "evaluate_on_grid", "physical_norm_integral",
    "physical_normalize",
    "CheckResult", "VerificationReport",
    "SUITE_NAMES", "run_suite", "run_suites",
]
