"""Approximate joint triangularization of nearly commuting matrix sets.

The package finds an orthogonal frame U that simultaneously pushes a
collection of matrices close to upper triangular form, evaluates a priori
and a posteriori error certificates for the recovered frame, and applies
the method to symmetric rank-d tensor decomposition.
"""

from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    JointTriError,
    LogBranchAmbiguous,
    NearDefective,
    NegativeDeterminant,
    NoComparableFrame,
    NonFiniteOutput,
    NonUnitBeta,
    NoSeparatingBeta,
    RankDeficient,
    SingularOperator,
    SingularY,
    SingularZ,
    ZeroColumnSum,
)
from .linalg import (
    low_part,
    lower_index,
    orthogonal_log,
    skew_exp,
    unvec,
    vec,
)
from .triangularize import (
    DescentTrace,
    MatrixSet,
    OptimizerConfig,
    find_separating_beta,
    gradient,
    hessian_form,
    loss,
)
from .bounds import (
    GroundTruthModel,
    a_posteriori_bound,
    a_priori_bound,
    eigenvalue_error_bound,
    explicit_bound,
    hessian_constants,
    init_noise_threshold,
    inverse_spectral_norm,
    predicted_direction,
    t_beta,
)
from .tensor import (
    Tensor3,
    component_error_bound,
    component_gamma,
    estimate_components,
    first_order_model,
    match_columns,
    observable_matrices,
    recover_scales,
    tensor_from_components,
)
from .harness import (
    GeneratorSpec,
    converge,
    gen_components,
    gen_ground_truth,
    gen_tensor,
    nearest_exact_frame,
    sample_noise,
    sigma_sweep,
    verify_bounds,
    verify_component_bound,
)

__all__ = [
    "DegenerateSpectrum", "DimensionMismatch",
    "JointTriError", "LogBranchAmbiguous",
    "NearDefective", "NegativeDeterminant", "NoComparableFrame",
    "NonFiniteOutput", "NonUnitBeta",
    "NoSeparatingBeta", "RankDeficient", "SingularOperator", "SingularY",
    "SingularZ", "ZeroColumnSum",
    "low_part", "lower_index", "orthogonal_log", "skew_exp",
    "unvec", "vec",
    "DescentTrace", "MatrixSet", "OptimizerConfig",
    "find_separating_beta", "gradient", "hessian_form", "loss",
    "GroundTruthModel", "a_posteriori_bound", "a_priori_bound",
    "eigenvalue_error_bound", "explicit_bound", "hessian_constants",
    "init_noise_threshold", "inverse_spectral_norm", "predicted_direction",
    "t_beta",
    "Tensor3", "component_error_bound", "component_gamma",
    "estimate_components", "first_order_model", "match_columns",
    "observable_matrices", "recover_scales",
    "tensor_from_components",
    "GeneratorSpec", "converge", "gen_components", "gen_ground_truth",
    "gen_tensor", "nearest_exact_frame", "sample_noise", "sigma_sweep",
    "verify_bounds", "verify_component_bound",
]

__version__ = "0.1.0"
