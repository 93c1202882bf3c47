"""Natural tangent-space model reduction for 1D kinetic equations.

Builds reduced symmetric-hyperbolic moment systems by orthogonal
projection onto ansatz-manifold tangent spaces under weighted-L2
metrics, integrates both the reduced and the full kinetic dynamics,
and certifies the structural properties numerically: hyperbolicity,
conservation, entropy dissipation, propagation-speed bounds, linear
stability, and an a posteriori error bound.
"""

from .ansatz import (
    AnsatzPoint,
    ConservativeMoment,
    EntropyClosure,
    HermitePerturbation,
    sample_valid_point,
)
from .errors import (
    BlowUpError,
    ConfigurationError,
    DegenerateChartError,
    InversionError,
    KinReduceError,
    ParameterError,
    RealizabilityError,
    StepError,
)
from .error_estimator import (
    ErrorReport,
    actual_error,
    build_error_report,
    gronwall_bound,
    lipschitz_estimate,
)
from .kinetic import (
    CollisionModel,
    DistributionField,
    MomentState,
    SpatialMesh,
    collision_invariants,
    entropy,
    entropy_production,
    flux_existence_check,
    maxwellian,
)
from .projection import (
    ReducedCoefficients,
    assemble_coefficients,
    project_initial,
    residual,
)
from .quadrature import (
    QuadratureRule,
    default_half_width,
    gauss_hermite_rule,
    integrate,
    truncated_rule,
)
from .reduced_solver import ReducedState, run_reduced, spectral_radius, step
from .reference_solver import relaxation_step, run_reference, transport_step
from .stability import (
    AuditSample,
    HermiteSpace,
    assemble_yong_report,
    gusc_check,
    hyperbolicity_audit,
    linearized_collision_matrix,
    propagation_speed_audit,
    yong_conditions_check,
)

__version__ = "0.1.0"
