"""Higher-order weighted Dirichlet-type integrals on the unit disc.

Analytic functions are truncated Taylor series, measures are atoms plus a
multiple of arc length, and every weighted integral is computable by two
independent routes (coefficient series / boundary decomposition, and disc
quadrature).  Verification suites compare the routes and probe the shift
operator's isometry structure.
"""

from .dirichlet import (
    AtomicDecomposition,
    DirichletResult,
    DouglasCertificate,
    atomic_decompose,
    dilation_factor,
    dirichlet_atomic_order_zero,
    dirichlet_kernel_section,
    dirichlet_sigma,
    dirichlet_sigma_inner,
    dirichlet_weighted,
    douglas_decompose,
    local_bergman_kernel,
    local_bergman_kernel_series,
    multiplier_norm_upper,
    multiplier_seminorm_upper,
    szego_kernel_energy,
)
from .functions import (
    AnalyticFunction,
    BoundaryDivergenceError,
    InexactDivisionError,
    add,
    boundary_value,
    derivative,
    dilate,
    divide_by_root,
    evaluate,
    multiply,
    scale,
)
from .measures import (
    Arc,
    Atom,
    CircleMeasure,
    MeasureTuple,
    szego_potential,
)
from .operators import (
    DefectKernelCheck,
    DefectReport,
    GramSection,
    defect_kernel_check,
    defect_sequence,
    forward_differences,
    gram_section,
    tuple_norm_sq,
)
from .quadrature import (
    QuadratureSpec,
    SingularIntegrandError,
    integrate_disc,
    poisson_weighted_energy,
)
from .suites import SUITES, VerificationReport, run_all, run_suite

__all__ = [
    "AnalyticFunction",
    "Arc",
    "Atom",
    "AtomicDecomposition",
    "BoundaryDivergenceError",
    "CircleMeasure",
    "DefectKernelCheck",
    "DefectReport",
    "DirichletResult",
    "DouglasCertificate",
    "GramSection",
    "InexactDivisionError",
    "MeasureTuple",
    "QuadratureSpec",
    "SUITES",
    "SingularIntegrandError",
    "VerificationReport",
    "add",
    "atomic_decompose",
    "boundary_value",
    "defect_kernel_check",
    "defect_sequence",
    "derivative",
    "dilate",
    "dilation_factor",
    "dirichlet_atomic_order_zero",
    "dirichlet_kernel_section",
    "dirichlet_sigma",
    "dirichlet_sigma_inner",
    "dirichlet_weighted",
    "divide_by_root",
    "douglas_decompose",
    "evaluate",
    "forward_differences",
    "gram_section",
    "integrate_disc",
    "local_bergman_kernel",
    "local_bergman_kernel_series",
    "multiplier_norm_upper",
    "multiplier_seminorm_upper",
    "multiply",
    "poisson_weighted_energy",
    "run_all",
    "run_suite",
    "scale",
    "szego_kernel_energy",
    "szego_potential",
    "tuple_norm_sq",
]
