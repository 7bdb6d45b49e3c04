"""The square pipeline's membership lookup and grouping against their reference loops.

``locate_reference`` scans each arc's square by the rule the per-arc square
objects carried, and ``square_parts_reference`` (conftest) is the grouping
loop the pipeline ran before one lexsort replaced it: bucket dicts, and
each sub-part's margins against its squares' anchors matched by index.  On a seeded
corpus of atom-truncated and plain systems, given and default level
counts, boundary points, anchors, squares holding several points and
non-empty uncovered buckets, every located square must agree with the scan
and the whole report must equal the one made with both references
patched in.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import (
    assert_same_arc_system,
    locate_reference,
    part_table,
    partition_text,
    square_parts_reference,
)

import mslab.decompose as decompose
from mslab.decompose import build_arc_system, decompose_by_squares
from mslab.inner import InnerFunction
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi
CAP = 48  # points per arc between atoms: enough to truncate near each atom


def _points(rng: np.random.Generator, arcs) -> PointSequence:
    """Clusters in a few squares, boundary points, anchors, deep and scattered points.

    Labels are out of sequence, angle and square order.
    """
    values: list[complex] = []
    angles: list[float] = []  # NaN: the value is classified

    def at(z: complex = 0j, angle: float = math.nan) -> None:
        values.append(z)
        angles.append(angle)

    lo, hi, inner = arcs.lo.tolist(), arcs.hi.tolist(), arcs.inner_radius.tolist()
    for a in rng.choice(len(arcs), size=min(3, len(arcs)), replace=False).tolist():
        for _ in range(int(rng.integers(2, 5))):
            t = lo[a] + rng.uniform(0.05, 0.95) * (hi[a] - lo[a])
            r = 1.0 - rng.uniform(0.05, 0.95) * (1.0 - inner[a])
            at(r * cmath.exp(1j * t))
        at(angle=lo[a] + rng.uniform(0.05, 0.95) * (hi[a] - lo[a]))
    for a in rng.choice(len(arcs), size=min(2, len(arcs)), replace=False).tolist():
        at(angle=hi[a])  # the anchor: margin 0
        at(angle=hi[a] + 5e-13)  # past hi, within tolerance
        at(angle=lo[a] + 3e-13)  # the previous arc's point
    for _ in range(3):
        at(0.4 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI)))
    for _ in range(6):
        r = math.sqrt(rng.uniform(0.5, 1.0)) * (1.0 - 1e-9)
        at(r * cmath.exp(1j * rng.uniform(0, TWO_PI)))
    return PointSequence.from_mixed(values, angles, 3 * rng.permutation(len(values)) + 5)


def _corpus() -> list[tuple[InnerFunction, PointSequence, int | None]]:
    """(Theta, sequence, level count) triples; level count None leaves the pipeline's default of 8."""
    rng = np.random.default_rng(10)
    out = []
    for k in range(16):
        degree = 1 + k % 5
        radii = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, degree))
        zeros = tuple(complex(r * cmath.exp(1j * a)) for r, a in zip(radii, rng.uniform(0, TWO_PI, degree)))
        atoms = ((float(rng.uniform(0, TWO_PI)), 0.5),) if k % 3 == 0 else ()
        theta = InnerFunction(blaschke_zeros=zeros, singular_atoms=atoms)
        level_count = (None, 4, 8, 16)[k % 4]
        arcs = build_arc_system(theta, 8 if level_count is None else level_count, CAP)
        out.append((theta, _points(rng, arcs), level_count))
    return out


CORPUS = _corpus()


def _square_table(seq: PointSequence, arcs, located: np.ndarray) -> tuple:
    """The reference's sub-parts as the pipeline's table: members, offsets, routes, margins."""
    parts = square_parts_reference(seq, arcs, located)
    members, offsets = part_table([idx for idx, _, _ in parts])
    margins = np.array([m for _, _, part_margins in parts for m in part_margins], dtype=float)
    return members, offsets, tuple(route for _, route, _ in parts), margins


@pytest.fixture(scope="module")
def reports() -> list[tuple]:
    """Each case's partition, and the partition made with the reference loops patched in."""
    out = []
    for theta, seq, level_count in CORPUS:
        given = () if level_count is None else (level_count,)
        got = decompose_by_squares(theta, seq, *given, max_points_per_arc=CAP)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose.ArcSystem, "locate", locate_reference)
            mp.setattr(decompose, "_square_parts", _square_table)
            want = decompose_by_squares(theta, seq, *given, max_points_per_arc=CAP)
        out.append((got, want))
    return out


def test_corpus_covers_truncation_boundary_points_deep_squares_and_uncovered(reports) -> None:
    assert any(got.arcs.truncated for got, _ in reports)
    assert any(not got.arcs.truncated for got, _ in reports)
    assert {None, 4, 8, 16} <= {level_count for _, _, level_count in CORPUS}
    assert all(seq.boundary.any() for _, seq, _ in CORPUS)
    assert max(got.global_info["max_per_square"] for got, _ in reports) >= 3
    assert all(
        any(route.startswith("uncovered") for route in got.route) for got, _ in reports
    )


def test_locate_matches_scan_on_corpus(reports) -> None:
    for (_, seq, _), (got, _) in zip(CORPUS, reports):
        assert np.array_equal(got.arcs.locate(seq.z), locate_reference(got.arcs, seq.z))


def test_square_parts_match_reference(reports) -> None:
    for (theta, seq, _), (got, _) in zip(CORPUS, reports):
        located = got.arcs.locate(seq.z)
        members, offsets, routes, margins = decompose._square_parts(seq, got.arcs, located)
        ref_members, ref_offsets, ref_routes, ref_margins = _square_table(seq, got.arcs, located)
        assert np.array_equal(members, ref_members)
        assert np.array_equal(offsets, ref_offsets)
        assert routes == ref_routes
        assert margins.tolist() == ref_margins.tolist()


def test_reports_match_with_reference_loops(reports) -> None:
    for (_, seq, _), (got, want) in zip(CORPUS, reports):
        assert partition_text(got, seq.ids) == partition_text(want, seq.ids)
        assert_same_arc_system(got.arcs, want.arcs)
