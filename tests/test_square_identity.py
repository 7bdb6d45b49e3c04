"""The square pipeline's membership lookup and grouping against their reference loops.

``locate_reference`` scans each arc's square by the rule the per-arc square
objects carried, and ``square_parts_reference`` (conftest) is the grouping
loop the pipeline ran before one lexsort replaced it: bucket dicts and an
anchor Clark family per sub-part, with ``stability_margin``.  On a seeded
corpus of atom-truncated and plain systems, fixed and selected level
counts, boundary points, anchors, squares holding several points and
non-empty uncovered buckets, every located square must agree with the scan
and the whole report must equal the one made with both references
patched in.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import locate_reference, square_parts_reference

import mslab.decompose as decompose
from mslab.decompose import build_arc_system, decompose_by_squares, select_arc_system
from mslab.inner import InnerFunction
from mslab.points import PointSequence, UnitPoint

TWO_PI = 2.0 * math.pi
CAP = 48  # points per arc between atoms: enough to truncate near each atom


def _points(rng: np.random.Generator, arcs) -> list[UnitPoint]:
    """Clusters in a few squares, boundary points, anchors, deep and scattered points."""
    pts = []
    picks = rng.choice(len(arcs.arcs), size=min(3, len(arcs.arcs)), replace=False)
    for a in picks.tolist():
        arc = arcs.arcs[a]
        for _ in range(int(rng.integers(2, 5))):
            t = arc.lo + rng.uniform(0.05, 0.95) * arc.length
            r = 1.0 - rng.uniform(0.05, 0.95) * (1.0 - arc.inner_radius)
            pts.append(UnitPoint.from_complex(r * cmath.exp(1j * t)))
        pts.append(UnitPoint.boundary(arc.lo + rng.uniform(0.05, 0.95) * arc.length))
    for a in rng.choice(len(arcs.arcs), size=min(2, len(arcs.arcs)), replace=False).tolist():
        arc = arcs.arcs[a]
        pts.append(UnitPoint.boundary(arc.hi))  # the anchor: margin 0
        pts.append(UnitPoint.boundary(arc.hi + 5e-13))  # past hi, within tolerance
        pts.append(UnitPoint.boundary(arc.lo + 3e-13))  # the previous arc's point
    for _ in range(3):
        pts.append(UnitPoint.from_complex(0.4 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))))
    for _ in range(6):
        r = math.sqrt(rng.uniform(0.5, 1.0)) * (1.0 - 1e-9)
        pts.append(UnitPoint.from_complex(r * cmath.exp(1j * rng.uniform(0, TWO_PI))))
    return pts


def _corpus() -> list[tuple[InnerFunction, PointSequence, int | None]]:
    """(Theta, sequence, level count) triples; level count None lets the pipeline pick."""
    rng = np.random.default_rng(10)
    out = []
    for k in range(16):
        degree = 1 + k % 5
        radii = 0.8 * np.sqrt(rng.uniform(0.0, 1.0, degree))
        zeros = tuple(complex(r * cmath.exp(1j * a)) for r, a in zip(radii, rng.uniform(0, TWO_PI, degree)))
        atoms = ((float(rng.uniform(0, TWO_PI)), 0.5),) if k % 3 == 0 else ()
        theta = InnerFunction(blaschke_zeros=zeros, singular_atoms=atoms)
        level_count = (None, 4, 8, 16)[k % 4]
        if level_count is None:
            arcs, _ = select_arc_system(theta, samples=4096, max_points_per_arc=CAP)
        else:
            arcs = build_arc_system(theta, level_count, CAP)
        pts = _points(rng, arcs)
        # labels out of sequence, angle and square order
        ids = 3 * rng.permutation(len(pts)) + 5
        out.append((theta, PointSequence.from_points(pts, ids), level_count))
    return out


CORPUS = _corpus()


@pytest.fixture(scope="module")
def reports() -> list[tuple]:
    """Each case's partition, and the partition made with the reference loops patched in."""
    out = []
    for theta, seq, level_count in CORPUS:
        got = decompose_by_squares(theta, seq, level_count, max_points_per_arc=CAP)

        def reference_parts(seq, arcs, located, theta=theta):
            return square_parts_reference(theta, seq, arcs, located)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose.ArcSystem, "locate", locate_reference)
            mp.setattr(decompose, "_square_parts", reference_parts)
            want = decompose_by_squares(theta, seq, level_count, max_points_per_arc=CAP)
        out.append((got, want))
    return out


def test_corpus_covers_truncation_boundary_points_deep_squares_and_uncovered(reports) -> None:
    assert any(got.arcs.truncated for got, _ in reports)
    assert any(not got.arcs.truncated for got, _ in reports)
    assert {None, 4, 8, 16} <= {level_count for _, _, level_count in CORPUS}
    assert all(any(p.is_boundary for p in seq.points) for _, seq, _ in CORPUS)
    assert max(got.global_info["max_per_square"] for got, _ in reports) >= 3
    assert all(
        any(p.route.startswith("uncovered") for p in got.parts) for got, _ in reports
    )


def test_locate_matches_scan_on_corpus(reports) -> None:
    for (_, seq, _), (got, _) in zip(CORPUS, reports):
        z = list(seq.values)
        assert np.array_equal(got.arcs.locate(z), locate_reference(got.arcs, z))


def test_square_parts_match_reference(reports) -> None:
    for (theta, seq, _), (got, _) in zip(CORPUS, reports):
        located = got.arcs.locate(seq.values)
        new = decompose._square_parts(seq, got.arcs, located)
        ref = square_parts_reference(theta, seq, got.arcs, located)
        assert len(new) == len(ref)
        for (idx, route, margins), (ref_idx, ref_route, ref_margins) in zip(new, ref):
            assert np.array_equal(idx, ref_idx)
            assert route == ref_route
            assert margins == ref_margins


def test_reports_match_with_reference_loops(reports) -> None:
    for got, want in reports:
        assert got.to_json_dict() == want.to_json_dict()
        assert got.arcs == want.arcs
