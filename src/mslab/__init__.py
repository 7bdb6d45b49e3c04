"""Numerical lab for reproducing-kernel geometry in model subspaces.

Construction and evaluation of finitely represented inner functions,
interpolation-theoretic scalars, finite Gram certificates, level-set
(Clark) families, and the two decomposition pipelines that split kernel
families into certified Riesz basic parts.
"""

__version__ = "0.1.0"

from .carleson import (
    CarlesonReport,
    carleson_constant,
    carleson_report,
    earl_bound,
    embedding_sup,
    interpolation_threshold,
    pseudohyperbolic,
)
from .clark import (
    ClarkFamily,
    herglotz_residual,
    level_set,
    level_sets,
    stability_margin,
    variation_along_path,
)
from .decompose import (
    Arc,
    ArcSystem,
    Partition,
    PartitionPart,
    PartCertificate,
    build_arc_system,
    count_per_square,
    decompose_by_squares,
    rate_comparability,
    select_arc_system,
    split_by_interpolation,
    uncovered_region_report,
)
from .errors import (
    CertificationError,
    ConfigError,
    MslabError,
    NumericDomainError,
    OnSpectrumError,
)
from .gram import (
    FrameBounds,
    GramMatrix,
    bessel_constant_estimate,
    extremal_eigs,
    gram,
    hankel_distance_lb,
    riesz_verdict,
)
from .inner import (
    InnerFunction,
    boundary_derivative,
    derivative,
    eval_inner,
    kernel,
    kernel_norm_sq,
    log_derivative,
    spectrum_distance,
)
from .points import PointSequence, UnitPoint
from .pw import ExpSystem, exp_inner, pw_gram, pw_split, shift_off_axis

__all__ = [
    "__version__",
    "Arc",
    "ArcSystem",
    "CarlesonReport",
    "CertificationError",
    "ClarkFamily",
    "ConfigError",
    "ExpSystem",
    "FrameBounds",
    "GramMatrix",
    "InnerFunction",
    "MslabError",
    "NumericDomainError",
    "OnSpectrumError",
    "Partition",
    "PartitionPart",
    "PartCertificate",
    "PointSequence",
    "UnitPoint",
    "bessel_constant_estimate",
    "boundary_derivative",
    "build_arc_system",
    "carleson_constant",
    "carleson_report",
    "count_per_square",
    "decompose_by_squares",
    "derivative",
    "earl_bound",
    "embedding_sup",
    "eval_inner",
    "exp_inner",
    "extremal_eigs",
    "gram",
    "hankel_distance_lb",
    "herglotz_residual",
    "interpolation_threshold",
    "kernel",
    "kernel_norm_sq",
    "level_set",
    "level_sets",
    "log_derivative",
    "pseudohyperbolic",
    "pw_gram",
    "pw_split",
    "rate_comparability",
    "riesz_verdict",
    "select_arc_system",
    "shift_off_axis",
    "spectrum_distance",
    "split_by_interpolation",
    "stability_margin",
    "uncovered_region_report",
    "variation_along_path",
]
