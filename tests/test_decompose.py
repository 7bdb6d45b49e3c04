import cmath
import math

import numpy as np
import pytest

from conftest import composite_gauss_legendre, random_blaschke

from mslab.carleson import carleson_constant, earl_bound
from mslab.decompose import (
    build_arc_system,
    build_squares,
    count_per_square,
    decompose_by_squares,
    greedy_interpolating_cover,
    mills_split,
    rate_comparability,
    select_level_count,
    split_by_interpolation,
    uncovered_region_delta,
    uncovered_region_report,
)
from mslab.errors import CertificationError, NumericDomainError
from mslab.inner import InnerFunction, boundary_derivative, eval_inner
from mslab.points import PointSequence, UnitPoint

TWO_PI = 2.0 * math.pi


def _random_interior(rng: np.random.Generator, n: int, rmax: float = 0.9) -> PointSequence:
    pts = [
        rmax * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(n)
    ]
    return PointSequence.from_complex(pts)


# ---------------------------------------------------------------------------
# greedy cover and two-way splits
# ---------------------------------------------------------------------------

def test_cover_keeps_good_sequence_whole() -> None:
    seq = PointSequence.from_complex([0.5, -0.5])
    parts = greedy_interpolating_cover(seq, 0.5)
    assert len(parts) == 1


def test_cover_separates_collapsed_pair() -> None:
    seq = PointSequence.from_complex([0.0, 1e-9])
    parts = greedy_interpolating_cover(seq, 0.5)
    assert sorted(len(p) for p in parts) == [1, 1]


def test_cover_random_post_verified() -> None:
    rng = np.random.default_rng(51)
    seq = _random_interior(rng, 20)
    floor = 0.3
    parts = greedy_interpolating_cover(seq, floor)
    seen = sorted(i for p in parts for i in p.ids)
    assert seen == sorted(seq.ids)
    for p in parts:
        assert carleson_constant(p) >= floor


def test_mills_pair_to_singletons() -> None:
    seq = PointSequence.from_complex([0.0, 0.5])
    a, b = mills_split(seq)
    assert len(a) == 1 and len(b) == 1
    assert carleson_constant(a) == 1.0 >= math.sqrt(0.5)


def test_mills_antipodal_quadruple() -> None:
    seq = PointSequence.from_complex([0.5, -0.5, 0.5j, -0.5j])
    delta = carleson_constant(seq)
    a, b = mills_split(seq)
    da, db = carleson_constant(a), carleson_constant(b)
    assert da == pytest.approx(0.8) and db == pytest.approx(0.8)
    assert min(da, db) >= math.sqrt(delta)


def test_mills_halves_nonempty_and_never_lose_separation() -> None:
    rng = np.random.default_rng(53)
    for _ in range(10):
        seq = _random_interior(rng, int(rng.integers(2, 12)))
        delta = carleson_constant(seq)
        a, b = mills_split(seq)
        assert len(a) >= 1 and len(b) >= 1
        assert len(a) + len(b) == len(seq)
        assert min(carleson_constant(a), carleson_constant(b)) >= delta - 1e-14


def test_mills_singleton() -> None:
    seq = PointSequence.from_complex([0.2])
    a, b = mills_split(seq)
    assert len(a) == 1 and len(b) == 0


# ---------------------------------------------------------------------------
# interpolation-constant splitting
# ---------------------------------------------------------------------------

def test_split_trivial_gamma_zero() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    partition = split_by_interpolation(z2, PointSequence.from_complex([0.0]))
    assert len(partition.parts) == 1
    cert = partition.parts[0].certificate
    assert cert.gamma == 0.0
    assert cert.dist_bound == 0.0
    assert cert.frame_bounds.lambda_min == pytest.approx(1.0)


def test_split_ring_end_to_end() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    ring = PointSequence.from_complex(
        [0.9 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]
    )
    partition = split_by_interpolation(theta, ring)
    gamma = partition.global_info["gamma"]
    assert gamma == pytest.approx(
        max(abs(eval_inner(theta, p)) for p in ring.points)
    )
    assert partition.all_ids() == tuple(range(10))
    for part in partition.parts:
        cert = part.certificate
        # re-derive the certificate from scratch
        sub = ring.subset(part.ids)
        delta = carleson_constant(sub)
        assert cert.delta_j == pytest.approx(delta, rel=1e-12)
        assert cert.earl_value == pytest.approx(earl_bound(delta), rel=1e-12)
        assert cert.dist_bound == pytest.approx(gamma * earl_bound(delta), rel=1e-12)
        assert cert.dist_bound < 1.0
        assert cert.frame_bounds.lambda_min > 0.0


def test_split_certificate_arithmetic_example() -> None:
    # gamma = 1/9 and a part with separation 0.8 bounds the distance by 4/9
    assert earl_bound(0.8) * (1.0 / 9.0) == pytest.approx(4.0 / 9.0, rel=1e-12)


def test_split_rejects_boundary_points() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    seq = PointSequence.from_points([UnitPoint.boundary(0.3)])
    with pytest.raises(CertificationError):
        split_by_interpolation(z3, seq)


def test_split_rejects_empty() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    with pytest.raises(NumericDomainError):
        split_by_interpolation(z2, PointSequence((), ()))


def test_split_accepts_plain_evaluator() -> None:
    seq = PointSequence.from_complex([0.1, -0.3j])
    partition = split_by_interpolation(lambda z: 0.2 * z, seq)
    for part in partition.parts:
        assert part.certificate.frame_bounds is None
        assert part.certificate.dist_bound < 1.0


def test_split_depth_cap_fails_loudly() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    seq = PointSequence.from_complex([0.9, 0.9 + 1e-4j, 0.9 - 1e-4j, 0.9005])
    with pytest.raises(CertificationError, match="depth"):
        split_by_interpolation(theta, seq, max_depth=0)


def test_pipelines_are_deterministic() -> None:
    rng = np.random.default_rng(71)
    theta = random_blaschke(rng, 4)
    seq = _random_interior(rng, 15, rmax=0.6)
    first = split_by_interpolation(theta, seq)
    second = split_by_interpolation(theta, seq)
    assert first.to_json_dict() == second.to_json_dict()
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    pts = PointSequence.from_complex([0.2, 0.99 * cmath.exp(0.1j), -0.3j])
    assert (
        decompose_by_squares(z3, pts, 8).to_json_dict()
        == decompose_by_squares(z3, pts, 8).to_json_dict()
    )


# ---------------------------------------------------------------------------
# arcs, squares, uncovered region
# ---------------------------------------------------------------------------

def test_arcs_z2_four_levels() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    arcs = build_arc_system(z2, 4)
    assert len(arcs.arcs) == 8
    for arc in arcs.arcs:
        assert arc.length == pytest.approx(TWO_PI / 8, abs=1e-10)
        assert arc.mass == pytest.approx(0.25, rel=1e-9)


def test_arcs_degree_one_single_level() -> None:
    z1 = InnerFunction(blaschke_zeros=(0,))
    arcs = build_arc_system(z1, 1)
    assert len(arcs.arcs) == 1
    assert arcs.arcs[0].length == pytest.approx(TWO_PI)
    assert arcs.arcs[0].mass == pytest.approx(1.0, rel=1e-9)


def test_arcs_blaschke_pair_mass_oracle() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    n_levels = 8
    arcs = build_arc_system(theta, n_levels)
    assert len(arcs.arcs) == 16
    lengths = {round(a.length, 12) for a in arcs.arcs}
    assert len(lengths) > 1  # nonuniform
    for arc in arcs.arcs:
        oracle = composite_gauss_legendre(
            lambda t: np.array(
                [boundary_derivative(theta, cmath.exp(1j * s)) for s in np.atleast_1d(t)]
            )
            / TWO_PI,
            arc.lo,
            arc.hi,
            panels=64,
        ).real
        assert abs(arc.mass - oracle) <= 1e-9
        assert abs(arc.mass - 1.0 / n_levels) <= 1e-6 / n_levels
    assert arcs.total_mass == pytest.approx(theta.degree, rel=1e-6)


def test_arcs_with_atom_truncate_cleanly() -> None:
    theta = InnerFunction(
        blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)
    )
    arcs = build_arc_system(theta, 4, max_points_per_arc=48)
    assert arcs.truncated
    assert len(arcs.arcs) > 4
    for arc in arcs.arcs:
        assert abs(arc.mass * 4 - 1.0) <= 1e-6
        # the dropped zone straddles the atom: no surviving arc contains it
        assert not arc.contains_angle(math.pi)


def test_squares_pipeline_with_atom() -> None:
    theta = InnerFunction(
        blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)
    )
    seq = PointSequence.from_complex([0.2, 0.4j, 0.99])
    partition = decompose_by_squares(theta, seq, 4, max_points_per_arc=48)
    assert partition.all_ids() == (0, 1, 2)
    assert partition.arcs == build_arc_system(theta, 4, max_points_per_arc=48)
    assert "square system truncated near the spectrum" in partition.flags


def test_squares_geometry() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    squares = build_squares(build_arc_system(z2, 4))
    sq = squares.squares[0]
    assert sq.inner_radius == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-10)
    mid = 0.5 * (sq.lo + sq.hi)
    assert sq.contains(0.99 * cmath.exp(1j * mid))
    assert not sq.contains(0.999 * cmath.exp(1j * (sq.hi + 0.5)))
    assert not sq.contains(0.5 * cmath.exp(1j * mid))


def test_anchor_point_belongs_to_its_own_square() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    squares = build_squares(build_arc_system(z3, 4))
    for sq in squares.squares:
        owner = squares.square_of(UnitPoint.boundary(sq.anchor_angle))
        assert owner is not None and owner.arc_index == sq.arc_index


def test_uncovered_delta_power_brackets() -> None:
    for d in (2, 3):
        zd = InnerFunction(blaschke_zeros=(0,) * d)
        for n_levels in (8, 16):
            squares = build_squares(build_arc_system(zd, n_levels))
            delta = uncovered_region_delta(zd, squares, 2048)
            assert delta == pytest.approx((1 - 1 / (n_levels * d)) ** d, rel=1e-9)
            assert math.exp(-2 / n_levels) <= delta <= math.exp(-1 / (2 * n_levels))


def test_uncovered_delta_degree_one_single_square() -> None:
    z1 = InnerFunction(blaschke_zeros=(0,))
    squares = build_squares(build_arc_system(z1, 1))
    assert uncovered_region_delta(z1, squares, 64) == pytest.approx(0.0, abs=1e-12)


def test_uncovered_delta_random_strictly_below_one() -> None:
    rng = np.random.default_rng(59)
    theta = random_blaschke(rng, 6)
    squares = build_squares(build_arc_system(theta, 16))
    report = uncovered_region_report(theta, squares, 2048)
    assert report.delta < 1.0
    assert report.log_modulus_worst_const > 0.0


def test_count_per_square_cases() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    squares = build_squares(build_arc_system(z3, 8))
    deep = PointSequence.from_complex([0.1, -0.2j, 0.3])
    m, counts = count_per_square(squares, deep)
    assert m == 0 and sum(counts) == 0
    anchors = PointSequence.from_points(
        [UnitPoint.boundary(sq.anchor_angle) for sq in squares.squares[:5]]
    )
    m, counts = count_per_square(squares, anchors)
    assert m == 1 and sum(counts) == 5
    one_sq = squares.squares[0]
    mid = 0.5 * (one_sq.lo + one_sq.hi)
    cluster = PointSequence.from_complex(
        [(1 - 1e-4 * (k + 1)) * cmath.exp(1j * mid) for k in range(5)]
    )
    m, counts = count_per_square(squares, cluster)
    assert m == 5


# ---------------------------------------------------------------------------
# full square decomposition
# ---------------------------------------------------------------------------

def test_squares_pipeline_clark_family_input() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    seq = PointSequence.from_points(
        [UnitPoint.boundary(TWO_PI * k / 3) for k in range(3)]
    )
    partition = decompose_by_squares(z3, seq, 4)
    assert len(partition.parts) == 1
    part = partition.parts[0]
    assert part.route.startswith("square:")
    assert part.ids == (0, 1, 2)
    assert part.stability_margins == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
    assert part.certificate.frame_bounds.lambda_min == pytest.approx(1.0, abs=1e-10)


def test_squares_pipeline_clustered_corpus() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    pts = []
    for root in range(3):
        base = TWO_PI * root / 3
        for off in (0.05, 0.12, 0.20):
            pts.append(0.999 * cmath.exp(1j * (base + off * (TWO_PI / 24))))
    seq = PointSequence.from_complex(pts)
    partition = decompose_by_squares(z3, seq, 8)
    assert partition.global_info["max_per_square"] == 3
    square_parts = [p for p in partition.parts if p.route.startswith("square:")]
    assert len(square_parts) == 3
    for part in partition.parts:
        assert part.certificate.frame_bounds.lambda_min > 0.0
    assert partition.all_ids() == tuple(range(9))
    # shape precondition: within one part, at most one point per square
    squares = build_squares(build_arc_system(z3, 8))
    for part in square_parts:
        owners = [squares.square_of(seq.point_by_id(i)).arc_index for i in part.ids]
        assert len(set(owners)) == len(owners)


def test_squares_pipeline_deep_ring_routed_to_interpolation() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    ring = PointSequence.from_complex(
        [0.3 * cmath.exp(2j * math.pi * k / 7) for k in range(7)]
    )
    partition = decompose_by_squares(z3, ring, 8)
    assert all(p.route == "uncovered:interp" for p in partition.parts)
    delta_region = partition.global_info["delta_uncovered"]
    for p in partition.parts:
        assert p.certificate.gamma == pytest.approx(delta_region)
        assert p.certificate.dist_bound < 1.0


def test_squares_pipeline_rejects_spectrum_point() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    with pytest.raises(NumericDomainError, match="point 0"):
        decompose_by_squares(theta, PointSequence.from_complex([0.5]), 8)


def test_squares_pipeline_mixed_membership() -> None:
    rng = np.random.default_rng(61)
    theta = random_blaschke(rng, 3)
    pts = [
        0.5 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(6)
    ]
    squares = build_squares(build_arc_system(theta, 8))
    near = [
        (sq.inner_radius + 0.6 * (1 - sq.inner_radius))
        * cmath.exp(1j * (0.5 * (sq.lo + sq.hi)))
        for sq in squares.squares[:4]
    ]
    seq = PointSequence.from_complex(pts + near)
    partition = decompose_by_squares(theta, seq, 8)
    routes = {p.route for p in partition.parts}
    assert any(r.startswith("square:") for r in routes)
    assert any(r.startswith("uncovered") for r in routes)
    assert partition.all_ids() == tuple(range(10))


def test_rate_comparability_shrinks_with_level_count() -> None:
    rng = np.random.default_rng(67)
    theta = random_blaschke(rng, 4, rmax=0.7)
    spreads = {}
    for n_levels in (8, 16, 32):
        arcs = build_arc_system(theta, n_levels)
        spreads[n_levels] = rate_comparability(theta, arcs)
        assert spreads[n_levels] <= 4.0
    assert spreads[32] <= spreads[8] + 1e-9
    assert spreads[32] < 1.5


def test_select_level_count_power_function() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    assert select_level_count(z3) == 8


def test_auto_level_count_used_when_omitted() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    seq = PointSequence.from_complex([0.1, 0.2j])
    partition = decompose_by_squares(z2, seq)
    assert partition.global_info["level_count"] == 8
    # the selected arc system travels on the partition, outside the report
    assert partition.arcs == build_arc_system(z2, 8)
    assert "arcs" not in partition.to_json_dict()


def test_mixed_clouds_decompose_cleanly() -> None:
    # interior, near-boundary, and exact boundary points together, with the
    # level count auto-selected
    rng = np.random.default_rng(8080)
    for _ in range(6):
        theta = random_blaschke(rng, int(rng.integers(1, 6)), rmax=0.75)
        pts = []
        for _ in range(int(rng.integers(3, 10))):
            z = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            pts.append(UnitPoint.from_complex(z))
        for _ in range(int(rng.integers(1, 6))):
            z = (1 - 10 ** rng.uniform(-5, -2)) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            pts.append(UnitPoint.from_complex(z))
        for _ in range(int(rng.integers(0, 4))):
            pts.append(UnitPoint.boundary(rng.uniform(0, TWO_PI)))
        seq = PointSequence.from_points(pts)
        partition = decompose_by_squares(theta, seq)
        assert partition.all_ids() == tuple(sorted(seq.ids))
        for part in partition.parts:
            assert part.certificate.frame_bounds.lambda_min >= 0.0
            if part.route == "uncovered:interp":
                cert = part.certificate
                assert cert.gamma * cert.earl_value < 1.0
        for pid, p in seq:
            if p.is_boundary:
                owner = [q for q in partition.parts if pid in q.ids]
                assert len(owner) == 1 and owner[0].route.startswith("square:")
