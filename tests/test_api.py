"""The package's export list: every name resolves, none repeats, star import works."""

import mslab


def test_every_exported_name_resolves_once() -> None:
    names = mslab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mslab, name)]
    assert missing == []


def test_star_import_binds_every_exported_name() -> None:
    scope: dict = {}
    exec("from mslab import *", scope)
    assert set(mslab.__all__) <= set(scope)


def test_removed_square_names_are_not_exported() -> None:
    gone = {"CarlesonSquare", "SquareSystem", "build_squares", "select_level_count", "uncovered_region_delta"}
    assert gone.isdisjoint(mslab.__all__)
    assert not any(hasattr(mslab, name) for name in gone)
    assert "select_arc_system" in mslab.__all__
