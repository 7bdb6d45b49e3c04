"""The package's export list: every name resolves, none repeats, star import works."""

import mslab

# The public surface, pinned so that it only changes on purpose.
EXPORTED = [
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
    "rate_comparability",
    "select_arc_system",
    "spectrum_distance",
    "split_by_interpolation",
    "uncovered_region_report",
]


def test_every_exported_name_resolves_once() -> None:
    names = mslab.__all__
    assert names == EXPORTED
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mslab, name)]
    assert missing == []


def test_star_import_binds_every_exported_name() -> None:
    scope: dict = {}
    exec("from mslab import *", scope)
    assert set(mslab.__all__) <= set(scope)


def test_removed_square_names_are_not_exported() -> None:
    gone = {
        "CarlesonSquare",
        "SquareSystem",
        "build_squares",
        "select_level_count",
        "uncovered_region_delta",
        "count_per_square",
        "UnitPoint",
        "point_by_id",
        "close_to",
        # scalar twins of the array formulas, and pass-through wrappers
        "eval_inner",
        "boundary_derivative",
        "kernel_norm_sq",
        "kernel",
        "pseudohyperbolic",
        "embedding_sup",
        "exp_inner",
        "shift_off_axis",
        "herglotz_residual",
        "stability_margin",
        "riesz_verdict",
        "bessel_constant_estimate",
        # an aliased grid estimate, reached by no command
        "hankel_distance_lb",
        # one object per arc; the arc system holds arrays
        "Arc",
        # reached by no command: path variation inside the disk
        "derivative",
        "log_derivative",
        "variation_along_path",
    }
    assert gone.isdisjoint(mslab.__all__)
    assert not any(hasattr(mslab, name) for name in gone)
    assert "select_arc_system" in mslab.__all__
