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
    interpolation_threshold,
)
from .clark import (
    ClarkFamily,
    level_set,
    level_sets,
    variation_along_path,
)
from .decompose import (
    Arc,
    ArcSystem,
    Partition,
    PartitionPart,
    PartCertificate,
    build_arc_system,
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
    extremal_eigs,
    gram,
    hankel_distance_lb,
)
from .inner import (
    InnerFunction,
    derivative,
    log_derivative,
    spectrum_distance,
)
from .points import PointSequence
from .pw import ExpSystem, pw_gram, pw_split

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
    "build_arc_system",
    "carleson_constant",
    "carleson_report",
    "decompose_by_squares",
    "derivative",
    "earl_bound",
    "extremal_eigs",
    "gram",
    "hankel_distance_lb",
    "interpolation_threshold",
    "level_set",
    "level_sets",
    "log_derivative",
    "pw_gram",
    "pw_split",
    "rate_comparability",
    "select_arc_system",
    "spectrum_distance",
    "split_by_interpolation",
    "uncovered_region_report",
    "variation_along_path",
]
