"""Numerical verification and falsification of plurisubharmonicity.

Four interchangeable characterizations drive the toolkit: the cylinder
sub-mean-value inequality, a Bochner-type energy identity for weighted
(0,1)-forms, sharp/coarse weighted estimate witnesses, and weighted
extension inequalities for holomorphic functions.
"""

__version__ = "0.1.0"

from .errors import (
    ContinuityRequiredError,
    DegenerateWeightError,
    InsufficientNodesError,
    MetricNotPositiveError,
    PoleInStencilError,
    PshlabError,
    SingularGramError,
    WeightOverflowError,
)
from .geometry import (
    CylinderSample,
    DomainBox,
    HolomorphicCylinder,
    QuadratureRule,
    cylinder_volume,
    random_unitary,
    sample_cylinder,
    unit_ball,
)
from .fields import (
    HermitianField,
    ScalarField,
    check_lower_bound,
    get_field,
    get_omega,
    levi_form,
    zero_omega,
)
from .meanvalue import (
    MeanValueReport,
    classify_psh,
    cylinder_mean,
    submean_test,
)
from .bochner import (
    FormField01,
    GridDiscretization,
    bochner_residual,
    dbar_01,
    dbar_star,
    make_grid,
)
from .witness import (
    CoarseChainReport,
    WitnessCertificate,
    alpha_from_f,
    build_alpha_eps,
    build_psi_delta,
    build_psi_s,
    build_witness_form,
    coarse_constant_growth,
    coarse_rhs_bound,
    cutoff,
    cutoff_deriv,
    estimate_functional_E,
    modulus_of_continuity,
    scan_sharp_witness,
)
from .extension import (
    ExtensionReport,
    best_extension_constant,
    coarse_extension_bound,
    constant_one,
    exp_linear,
    jensen_chain_check,
    optimal_extension_margin,
    polynomial,
)
from .dbar1d import (
    SolveResult,
    cauchy_transform,
    hormander_ratio,
    weighted_bergman_projection,
)
