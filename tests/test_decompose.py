import cmath
import math

import numpy as np
import pytest

from conftest import (
    arc_mass_oracle,
    blaschke_values,
    boundary_rate_oracle,
    composite_gauss_legendre,
    locate_reference,
    random_blaschke,
    split_at_gamma,
    square_contains_reference,
)

from mslab.carleson import carleson_constant, earl_bound, log_distance_matrix
from mslab.decompose import (
    _mills_halves,
    build_arc_system,
    decompose_by_squares,
    modulus_rank,
    rate_comparability,
    select_arc_system,
    split_by_interpolation,
    uncovered_region_report,
)
from mslab.errors import CertificationError, NumericDomainError
from mslab.inner import InnerFunction
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


def _random_interior(rng: np.random.Generator, n: int, rmax: float = 0.9) -> PointSequence:
    pts = [
        rmax * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(n)
    ]
    return PointSequence.from_complex(pts)


# ---------------------------------------------------------------------------
# two-way (Mills) splits
# ---------------------------------------------------------------------------

def _mills_split(seq: PointSequence) -> tuple[PointSequence, PointSequence]:
    """The splitter's two halves of a whole sequence, as subsequences."""
    rank = modulus_rank(np.abs(seq.z), seq.ids)
    halves = _mills_halves(log_distance_matrix(seq), np.arange(len(seq)), rank)
    return tuple(seq.subset(idx) for idx in halves)


def test_mills_pair_to_singletons() -> None:
    seq = PointSequence.from_complex([0.0, 0.5])
    a, b = _mills_split(seq)
    assert len(a) == 1 and len(b) == 1
    assert carleson_constant(a) == 1.0 >= math.sqrt(0.5)


def test_mills_antipodal_quadruple() -> None:
    seq = PointSequence.from_complex([0.5, -0.5, 0.5j, -0.5j])
    delta = carleson_constant(seq)
    a, b = _mills_split(seq)
    da, db = carleson_constant(a), carleson_constant(b)
    assert da == pytest.approx(0.8) and db == pytest.approx(0.8)
    assert min(da, db) >= math.sqrt(delta)


def test_mills_halves_nonempty_and_never_lose_separation() -> None:
    rng = np.random.default_rng(53)
    for _ in range(10):
        seq = _random_interior(rng, int(rng.integers(2, 12)))
        delta = carleson_constant(seq)
        a, b = _mills_split(seq)
        assert len(a) >= 1 and len(b) >= 1
        assert len(a) + len(b) == len(seq)
        assert min(carleson_constant(a), carleson_constant(b)) >= delta - 1e-14


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
    # at gamma = 0, delta* is the smallest delta with a finite phi
    delta_star = partition.global_info["delta_star"]
    assert math.isfinite(earl_bound(delta_star))
    assert earl_bound(math.nextafter(delta_star, 0.0)) == math.inf


@pytest.mark.parametrize(
    "points, gamma",
    [([0.0, 1e-100, 0.5], 1e-300), ([0.0, 5e-10], 1e-20)],
    ids=["1e-100 apart at gamma 1e-300", "5e-10 apart at gamma 1e-20"],
)
def test_split_keeps_one_part_at_a_tiny_gamma(points, gamma) -> None:
    # delta* = 2 sqrt(gamma)/(1 + gamma) lies below the separation of the
    # whole sequence, and gamma * phi(delta) < 1 there: one part certifies
    partition = split_at_gamma(PointSequence.from_complex(points), gamma)
    assert [p.ids for p in partition.parts] == [tuple(range(len(points)))]
    assert partition.parts[0].certificate.dist_bound < 1.0
    assert partition.global_info["delta_star"] == pytest.approx(2.0 * math.sqrt(gamma), rel=1e-15)


def test_split_floors_delta_star_at_a_subnormal_gamma() -> None:
    # 2 sqrt(gamma)/(1 + gamma) = 2e-160 lies below the smallest delta with a
    # finite phi; delta* stays at that floor, so the point 1e-157 from 0 is not
    # merged into a part that would fail its re-verification
    seq = PointSequence.from_complex([0.0, 1e-157, 0.5])
    partition = split_at_gamma(seq, 1e-320)
    assert partition.global_info["delta_star"] == 2.0 / math.sqrt(np.finfo(float).max)
    assert sorted(p.ids for p in partition.parts) == [(0, 2), (1,)]


def test_split_ring_end_to_end() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    ring = PointSequence.from_complex(
        [0.9 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]
    )
    partition = split_by_interpolation(theta, ring)
    gamma = partition.global_info["gamma"]
    assert gamma == pytest.approx(np.abs(blaschke_values(theta, ring.z)).max())
    assert partition.all_ids() == tuple(range(10))
    for part in partition.parts:
        cert = part.certificate
        # re-derive the certificate from scratch
        sub = ring.subset(np.flatnonzero(np.isin(ring.ids, part.ids)))
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
    seq = PointSequence.from_angles([0.3])
    with pytest.raises(CertificationError):
        split_by_interpolation(z3, seq)


def test_split_rejects_empty() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    with pytest.raises(NumericDomainError):
        split_by_interpolation(z2, PointSequence((), (), ()))


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
            lambda t: boundary_rate_oracle(theta, t) / TWO_PI,
            arc.lo,
            arc.hi,
            panels=64,
        ).real
        assert abs(arc.mass - oracle) <= 1e-9
        assert abs(arc.mass - 1.0 / n_levels) <= 1e-6 / n_levels
    assert arcs.total_mass == pytest.approx(theta.degree, rel=1e-6)


# The zero 1e-9 from the circle sits at angle 0, where the oracle's nodes
# resolve it; at 8 levels its level points keep the 1e-6 mass check.
_MASS_CASES = {
    "blaschke": (random_blaschke(np.random.default_rng(5), 5), 8),
    "atom, truncated": (InnerFunction(blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)), 4),
    "zero at 1 - 1e-9": (InnerFunction(blaschke_zeros=(1 - 1e-9, 0.5j)), 8),
}


@pytest.mark.parametrize("name", sorted(_MASS_CASES))
def test_arc_masses_match_the_integrated_rate(name: str) -> None:
    # masses are (Phi(hi) - Phi(lo))/2pi; the oracle integrates the rate
    # |Theta'| of its own formula over every arc, independently of Phi
    theta, n_levels = _MASS_CASES[name]
    arcs = build_arc_system(theta, n_levels, max_points_per_arc=48)
    assert arcs.truncated == bool(theta.singular_atoms)
    for arc in arcs.arcs:
        oracle = arc_mass_oracle(theta, arc.lo, arc.hi)
        assert abs(arc.mass - oracle) <= 1e-9 * oracle
        assert abs(arc.mass - 1.0 / n_levels) <= 1e-6 / n_levels


def test_arcs_with_atom_truncate_cleanly() -> None:
    theta = InnerFunction(
        blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)
    )
    arcs = build_arc_system(theta, 4, max_points_per_arc=48)
    assert arcs.truncated
    assert len(arcs.arcs) > 4
    for arc in arcs.arcs:
        assert abs(arc.mass * 4 - 1.0) <= 1e-6
        # the dropped zone straddles the atom: no surviving arc's square holds it
        assert not square_contains_reference(arc, cmath.exp(1j * math.pi))
    assert arcs.locate([cmath.exp(1j * math.pi), 0.999 * cmath.exp(1j * math.pi)]).tolist() == [-1, -1]


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
    arcs = build_arc_system(z2, 4)
    arc = arcs.arcs[0]
    assert arc.inner_radius == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-10)
    mid = 0.5 * (arc.lo + arc.hi)
    pts = [
        0.99 * cmath.exp(1j * mid),
        0.999 * cmath.exp(1j * (arc.hi + 0.5)),
        0.5 * cmath.exp(1j * mid),
    ]
    assert arcs.locate(pts)[0] == 0
    assert arcs.locate(pts)[1] != 0
    assert arcs.locate(pts)[2] == -1


def test_anchor_point_belongs_to_its_own_square() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    arcs = build_arc_system(z3, 4)
    anchors = PointSequence.from_angles([arc.hi for arc in arcs.arcs]).z
    assert arcs.locate(anchors).tolist() == list(range(len(arcs.arcs)))


def test_uncovered_delta_power_brackets() -> None:
    for d in (2, 3):
        zd = InnerFunction(blaschke_zeros=(0,) * d)
        for n_levels in (8, 16):
            delta = uncovered_region_report(zd, build_arc_system(zd, n_levels), 2048).delta
            assert delta == pytest.approx((1 - 1 / (n_levels * d)) ** d, rel=1e-9)
            assert math.exp(-2 / n_levels) <= delta <= math.exp(-1 / (2 * n_levels))


def test_uncovered_delta_degree_one_single_square() -> None:
    z1 = InnerFunction(blaschke_zeros=(0,))
    arcs = build_arc_system(z1, 1)
    assert uncovered_region_report(z1, arcs, 64).delta == pytest.approx(0.0, abs=1e-12)


def test_uncovered_delta_random_strictly_below_one() -> None:
    rng = np.random.default_rng(59)
    theta = random_blaschke(rng, 6)
    report = uncovered_region_report(theta, build_arc_system(theta, 16), 2048)
    assert report.delta < 1.0


def test_located_counts_and_max_per_square() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    arcs = build_arc_system(z3, 8)

    def counts(seq: PointSequence) -> np.ndarray:
        located = arcs.locate(seq.z)
        return np.bincount(located[located >= 0], minlength=len(arcs.arcs))

    def max_per_square(seq: PointSequence) -> int:
        return decompose_by_squares(z3, seq, 8).global_info["max_per_square"]

    deep = PointSequence.from_complex([0.1, -0.2j, 0.3])
    assert counts(deep).sum() == 0 and max_per_square(deep) == 0
    anchors = PointSequence.from_angles([arc.hi for arc in arcs.arcs[:5]])
    assert counts(anchors).max() == 1 and counts(anchors).sum() == 5
    assert max_per_square(anchors) == 1
    one = arcs.arcs[0]
    mid = 0.5 * (one.lo + one.hi)
    cluster = PointSequence.from_complex(
        [(1 - 1e-4 * (k + 1)) * cmath.exp(1j * mid) for k in range(5)]
    )
    assert counts(cluster).max() == 5 and counts(cluster)[0] == 5
    assert max_per_square(cluster) == 5


@pytest.mark.parametrize(
    "theta, levels",
    [
        (InnerFunction(blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)), 4),
        (InnerFunction(blaschke_zeros=(0, 0)), 4),
        (InnerFunction(blaschke_zeros=(0, 0, 0)), 8),
        (random_blaschke(np.random.default_rng(61), 3), 8),
        (InnerFunction(blaschke_zeros=(0,)), 1),
    ],
)
def test_square_lookup_agrees_with_linear_scan(theta: InnerFunction, levels: int) -> None:
    arcs = build_arc_system(theta, levels, max_points_per_arc=48)
    assert arcs.truncated == bool(theta.singular_atoms)
    rng = np.random.default_rng(levels)
    pts = list(
        np.sqrt(rng.uniform(0.5, 1.0, 400)) * np.exp(1j * rng.uniform(-4.0, 8.0, 400))
    )
    for arc in arcs.arcs:
        depth = 0.5 * (1.0 + arc.inner_radius)
        for end in (arc.lo, arc.hi):
            for shift in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12):
                pts.append(depth * cmath.exp(1j * (end + shift)))
                pts.append(cmath.exp(1j * (end + shift)))
        pts.append(arc.inner_radius * cmath.exp(1j * 0.5 * (arc.lo + arc.hi)))
        pts.append(0.999 * arc.inner_radius * cmath.exp(1j * 0.5 * (arc.lo + arc.hi)))
    found = arcs.locate(pts)
    assert found.tolist() == locate_reference(arcs, pts).tolist()
    assert (found >= 0).any() and ((found < 0).any() or levels == 1)
    for z in pts[:50]:
        assert arcs.locate([z]).tolist() == locate_reference(arcs, [z]).tolist()


# ---------------------------------------------------------------------------
# full square decomposition
# ---------------------------------------------------------------------------

def test_squares_pipeline_clark_family_input() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    seq = PointSequence.from_angles([TWO_PI * k / 3 for k in range(3)])
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
    arcs = build_arc_system(z3, 8)
    for part in square_parts:
        owners = arcs.locate(seq.z[np.isin(seq.ids, part.ids)]).tolist()
        assert min(owners) >= 0 and len(set(owners)) == len(owners)


def test_squares_pipeline_splits_a_near_coincident_boundary_pair() -> None:
    # |1 - conj(z_j) z_i| < 1e-14 only matters inside one part's section
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    angles = [TWO_PI * k / 3 + 0.1 for k in range(3)] + [0.1 + 2e-15]
    seq = PointSequence.from_angles(angles)
    assert abs(1.0 - seq.z[3].conjugate() * seq.z[0]) < 1e-14
    partition = decompose_by_squares(z3, seq, 4)
    assert partition.all_ids() == (0, 1, 2, 3)
    owner = {pid: k for k, part in enumerate(partition.parts) for pid in part.ids}
    assert owner[0] != owner[3]
    for part in partition.parts:
        assert part.certificate.frame_bounds.lambda_max >= 1.0 - 1e-12


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
    arcs = build_arc_system(theta, 8)
    near = [
        (arc.inner_radius + 0.6 * (1 - arc.inner_radius))
        * cmath.exp(1j * (0.5 * (arc.lo + arc.hi)))
        for arc in arcs.arcs[:4]
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
    arcs, region = select_arc_system(z3)
    assert arcs.level_count == 8
    assert arcs == build_arc_system(z3, 8)
    assert region == uncovered_region_report(z3, arcs, 2048)
    assert region.delta < 0.9


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
        pts, angles = [], []
        for _ in range(int(rng.integers(3, 10))):
            z = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            pts.append(z)
            angles.append(math.nan)
        for _ in range(int(rng.integers(1, 6))):
            z = (1 - 10 ** rng.uniform(-5, -2)) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            pts.append(z)
            angles.append(math.nan)
        for _ in range(int(rng.integers(0, 4))):
            pts.append(0j)
            angles.append(rng.uniform(0, TWO_PI))
        seq = PointSequence.from_mixed(pts, angles)
        partition = decompose_by_squares(theta, seq)
        assert partition.all_ids() == tuple(sorted(seq.ids))
        for part in partition.parts:
            assert part.certificate.frame_bounds.lambda_min >= 0.0
            if part.route == "uncovered:interp":
                cert = part.certificate
                assert cert.gamma * cert.earl_value < 1.0
        for pid in seq.ids[seq.boundary].tolist():
            owner = [q for q in partition.parts if pid in q.ids]
            assert len(owner) == 1 and owner[0].route.startswith("square:")
