"""Numerical lab for reproducing-kernel geometry in model subspaces.

Construction and evaluation of finitely represented inner functions,
interpolation-theoretic scalars, finite Gram certificates, level-set
(Clark) families, and the two decomposition pipelines that split kernel
families into certified Riesz basic parts.
"""

__version__ = "0.1.0"

from .carleson import (
    CarlesonReport,
    carleson_report,
    earl_bound,
    interpolation_threshold,
)
from .clark import (
    ClarkFamily,
    level_set,
    level_sets,
)
from .decompose import (
    ArcSystem,
    Partition,
    build_arc_system,
    decompose_by_squares,
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
from .inner import (
    InnerFunction,
    spectrum_distance,
)
from .points import PointSequence
from .pw import ExpSystem, pw_gram, pw_split

__all__ = [
    "__version__",
    "ArcSystem",
    "CarlesonReport",
    "CertificationError",
    "ClarkFamily",
    "ConfigError",
    "ExpSystem",
    "InnerFunction",
    "MslabError",
    "NumericDomainError",
    "OnSpectrumError",
    "Partition",
    "PointSequence",
    "build_arc_system",
    "carleson_report",
    "decompose_by_squares",
    "earl_bound",
    "interpolation_threshold",
    "level_set",
    "level_sets",
    "pw_gram",
    "pw_split",
    "spectrum_distance",
    "split_by_interpolation",
    "uncovered_region_report",
]
