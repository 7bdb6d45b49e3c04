import cmath
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import (
    arc_mass_oracle,
    assert_same_arc_system,
    blaschke_values,
    boundary_rate_oracle,
    carleson_delta_oracle,
    composite_gauss_legendre,
    earl_oracle,
    all_ids,
    locate_reference,
    modulus_sq_exact,
    part_ids,
    partition_text,
    random_blaschke,
    split_at_gamma,
    square_contains_reference,
)

from mslab import decompose
from mslab.carleson import carleson_report, earl_bound
from mslab.decompose import (
    build_arc_system,
    decompose_by_squares,
    split_by_interpolation,
    uncovered_region_report,
)
from mslab.errors import CertificationError, ConfigError, NumericDomainError
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
# interpolation-constant splitting
# ---------------------------------------------------------------------------

def test_split_trivial_gamma_zero() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    partition = split_by_interpolation(z2, PointSequence.from_complex([0.0]))
    assert len(partition.parts) == 1
    assert partition.gamma[0] == 0.0
    assert partition.dist_bound[0] == 0.0
    assert partition.lambda_min[0] == pytest.approx(1.0)
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
    assert part_ids(partition, range(len(points))) == [tuple(range(len(points)))]
    assert partition.dist_bound[0] < 1.0
    assert partition.global_info["delta_star"] == pytest.approx(2.0 * math.sqrt(gamma), rel=1e-15)


def test_split_floors_delta_star_at_a_subnormal_gamma() -> None:
    # 2 sqrt(gamma)/(1 + gamma) = 2e-160 lies below the smallest delta with a
    # finite phi; delta* stays at that floor, so the point 1e-157 from 0 is not
    # merged into a part that would fail its re-verification
    seq = PointSequence.from_complex([0.0, 1e-157, 0.5])
    partition = split_at_gamma(seq, 1e-320)
    assert partition.global_info["delta_star"] == 2.0 / math.sqrt(np.finfo(float).max)
    assert sorted(part_ids(partition, seq.ids)) == [(0, 2), (1,)]


def test_split_ring_end_to_end() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    ring = PointSequence.from_complex(
        [0.9 * cmath.exp(2j * math.pi * k / 10) for k in range(10)]
    )
    partition = split_by_interpolation(theta, ring)
    gamma = partition.global_info["gamma"]
    assert gamma == pytest.approx(np.abs(blaschke_values(theta, ring.z)).max())
    assert all_ids(partition, ring.ids) == tuple(range(10))
    for k, ids in enumerate(part_ids(partition, ring.ids)):
        # re-derive the certificate from scratch
        sub = ring.subset(np.flatnonzero(np.isin(ring.ids, ids)))
        delta = carleson_report(sub).delta
        assert partition.delta_j[k] == pytest.approx(delta, rel=1e-12)
        assert partition.earl_value[k] == pytest.approx(earl_bound(delta), rel=1e-12)
        assert partition.dist_bound[k] == pytest.approx(gamma * earl_bound(delta), rel=1e-12)
        assert partition.dist_bound[k] < 1.0
        assert partition.lambda_min[k] > 0.0


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


def test_split_tight_quadruple_certifies_without_error() -> None:
    # four points within 5e-4 of each other split with no error, and every
    # part's certificate is re-derived from scratch
    theta = InnerFunction(blaschke_zeros=(0.5,))
    seq = PointSequence.from_complex([0.9, 0.9 + 1e-4j, 0.9 - 1e-4j, 0.9005])
    partition = split_by_interpolation(theta, seq)
    assert all_ids(partition, seq.ids) == (0, 1, 2, 3)
    assert partition.flags == ()
    for k, ids in enumerate(part_ids(partition, seq.ids)):
        delta = carleson_delta_oracle(seq.z[list(ids)].tolist())
        assert partition.delta_j[k] == pytest.approx(delta, rel=1e-12)
        assert partition.dist_bound[k] < 1.0
        assert partition.lambda_min[k] > 0.0


@pytest.mark.parametrize(
    "clusters, size, parts", [(6, 5, 16), (8, 7, 29), (12, 3, 18)], ids=["6x5", "8x7", "12x3"]
)
def test_split_ring_of_clusters_part_counts(clusters, size, parts) -> None:
    # clusters of radius 1e-3 centred at 0.6 e^{2 pi i k/clusters}, all with
    # the same orientation, at gamma 0.3: the points of one cluster clash
    # with each other, so their clash degrees tie and the row-sum tie-break
    # picks the order (by degree alone, stably, gives 20/35/24 parts).
    # These counts stay put when every point moves by 1e-12 relative; on
    # clusters turned with their centres they do not.
    points = [
        0.6 * cmath.exp(2j * math.pi * k / clusters) + 1e-3 * cmath.exp(2j * math.pi * j / size)
        for k in range(clusters)
        for j in range(size)
    ]
    seq = PointSequence.from_complex(points)
    partition = split_at_gamma(seq, 0.3)
    assert len(partition.parts) == parts
    assert all_ids(partition, seq.ids) == tuple(range(clusters * size))
    delta_star = partition.global_info["delta_star"]
    for k, ids in enumerate(part_ids(partition, seq.ids)):
        delta = carleson_delta_oracle([points[i] for i in ids])
        assert partition.delta_j[k] == pytest.approx(delta, rel=1e-9)
        assert delta >= delta_star * (1.0 - 1e-12)
        assert 0.3 * earl_oracle(delta) < 1.0


def test_pipelines_are_deterministic() -> None:
    rng = np.random.default_rng(71)
    theta = random_blaschke(rng, 4)
    seq = _random_interior(rng, 15, rmax=0.6)
    first = split_by_interpolation(theta, seq)
    second = split_by_interpolation(theta, seq)
    assert partition_text(first, seq.ids) == partition_text(second, seq.ids)
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    pts = PointSequence.from_complex([0.2, 0.99 * cmath.exp(0.1j), -0.3j])
    assert (
        partition_text(decompose_by_squares(z3, pts, 8), pts.ids)
        == partition_text(decompose_by_squares(z3, pts, 8), pts.ids)
    )


# ---------------------------------------------------------------------------
# arcs, squares, uncovered region
# ---------------------------------------------------------------------------

def test_arcs_z2_four_levels() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    arcs = build_arc_system(z2, 4)
    assert len(arcs) == 8
    assert arcs.hi - arcs.lo == pytest.approx(np.full(8, TWO_PI / 8), abs=1e-10)
    assert arcs.mass == pytest.approx(np.full(8, 0.25), rel=1e-9)
    for name in ("lo", "hi", "level", "mass", "rate"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(arcs, name)[0] = 0


def test_arcs_degree_one_single_level() -> None:
    z1 = InnerFunction(blaschke_zeros=(0,))
    arcs = build_arc_system(z1, 1)
    assert len(arcs) == 1
    assert arcs.hi[0] - arcs.lo[0] == pytest.approx(TWO_PI)
    assert arcs.mass[0] == pytest.approx(1.0, rel=1e-9)


def test_arcs_blaschke_pair_mass_oracle() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    n_levels = 8
    arcs = build_arc_system(theta, n_levels)
    assert len(arcs) == 16
    lengths = {round(length, 12) for length in (arcs.hi - arcs.lo).tolist()}
    assert len(lengths) > 1  # nonuniform
    for lo, hi, mass in zip(arcs.lo.tolist(), arcs.hi.tolist(), arcs.mass.tolist()):
        oracle = composite_gauss_legendre(
            lambda t: boundary_rate_oracle(theta, t) / TWO_PI,
            lo,
            hi,
            panels=64,
        ).real
        assert abs(mass - oracle) <= 1e-9
        assert abs(mass - 1.0 / n_levels) <= 1e-6 / n_levels
    assert math.fsum(arcs.mass) == pytest.approx(theta.degree, rel=1e-6)


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
    for lo, hi, mass in zip(arcs.lo.tolist(), arcs.hi.tolist(), arcs.mass.tolist()):
        oracle = arc_mass_oracle(theta, lo, hi)
        assert abs(mass - oracle) <= 1e-9 * oracle
        assert abs(mass - 1.0 / n_levels) <= 1e-6 / n_levels


def test_arcs_with_atom_truncate_cleanly() -> None:
    theta = InnerFunction(
        blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)
    )
    arcs = build_arc_system(theta, 4, max_points_per_arc=48)
    assert arcs.truncated
    assert len(arcs) > 4
    assert np.abs(arcs.mass * 4 - 1.0).max() <= 1e-6
    for lo, hi in zip(arcs.lo.tolist(), arcs.hi.tolist()):
        # the dropped zone straddles the atom: no surviving arc's square holds it
        assert not square_contains_reference(lo, hi, cmath.exp(1j * math.pi))
    assert arcs.locate([cmath.exp(1j * math.pi), 0.999 * cmath.exp(1j * math.pi)]).tolist() == [-1, -1]


def test_squares_pipeline_with_atom() -> None:
    theta = InnerFunction(
        blaschke_zeros=(0.3,), singular_atoms=((math.pi, 0.8),)
    )
    seq = PointSequence.from_complex([0.2, 0.4j, 0.99])
    partition = decompose_by_squares(theta, seq, 4, max_points_per_arc=48)
    assert all_ids(partition, seq.ids) == (0, 1, 2)
    assert_same_arc_system(partition.arcs, build_arc_system(theta, 4, max_points_per_arc=48))
    assert "square system truncated near the spectrum" in partition.flags


def test_squares_geometry() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    arcs = build_arc_system(z2, 4)
    assert arcs.inner_radius[0] == pytest.approx(1.0 - 1.0 / 8.0, abs=1e-10)
    mid = 0.5 * (arcs.lo[0] + arcs.hi[0])
    pts = [
        0.99 * cmath.exp(1j * mid),
        0.999 * cmath.exp(1j * (arcs.hi[0] + 0.5)),
        0.5 * cmath.exp(1j * mid),
    ]
    assert arcs.locate(pts)[0] == 0
    assert arcs.locate(pts)[1] != 0
    assert arcs.locate(pts)[2] == -1


def test_anchor_point_belongs_to_its_own_square() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    arcs = build_arc_system(z3, 4)
    anchors = PointSequence.from_angles(arcs.hi).z
    assert arcs.locate(anchors).tolist() == list(range(len(arcs)))


def test_uncovered_delta_power_brackets() -> None:
    for d in (2, 3):
        zd = InnerFunction(blaschke_zeros=(0,) * d)
        for n_levels in (8, 16):
            delta = uncovered_region_report(zd, build_arc_system(zd, n_levels)).delta
            assert delta == pytest.approx((1 - 1 / (n_levels * d)) ** d, rel=1e-9)
            assert math.exp(-2 / n_levels) <= delta <= math.exp(-1 / (2 * n_levels))


def test_uncovered_delta_degree_one_single_square() -> None:
    z1 = InnerFunction(blaschke_zeros=(0,))
    arcs = build_arc_system(z1, 1)
    assert uncovered_region_report(z1, arcs).delta == pytest.approx(0.0, abs=1e-12)


def _modulus_exact(theta: InnerFunction, w: complex) -> float:
    """|Theta(w)|: |B(w)|^2 and each atom's 2 m (1 - |w|^2)/|tau - w|^2 exact in
    rationals, at the atoms' float points tau, then one exp and one sqrt."""
    x, y = Fraction(w.real), Fraction(w.imag)
    gap = 1 - x * x - y * y
    taus = theta._terms.taus.ravel().tolist()
    exponent = sum(
        2 * Fraction(m) * gap / ((x - Fraction(t.real)) ** 2 + (y - Fraction(t.imag)) ** 2)
        for t, (_, m) in zip(taus, theta.singular_atoms)
    )
    return math.sqrt(float(modulus_sq_exact(theta.blaschke_zeros, w)) * math.exp(-float(exponent)))


_UNCOVERED_CASES = {
    "degree 26": (random_blaschke(np.random.default_rng(33), 26, rmax=0.95).blaschke_zeros, (), 16),
    # squares of depth ~1e-6 next to the atoms: there the complex values
    # lose 8e3 ulps of |Theta| to 1 - |w|^2 left implicit in (tau + w)/(tau - w)
    "atoms": ((0.65 + 0.24j, -0.12 + 0.76j, -0.21 - 0.33j), ((1.62, 0.82), (1.85, 0.14)), 8),
}


@pytest.mark.parametrize("name", sorted(_UNCOVERED_CASES))
def test_uncovered_delta_is_the_sup_of_the_modulus_at_its_samples(monkeypatch, name) -> None:
    # the sup comes from the real log-modulus kernel, as exp(max S/2); it is
    # within 4 ulps of the largest exact |Theta| at the same samples
    zeros, atoms, levels = _UNCOVERED_CASES[name]
    theta = InnerFunction(blaschke_zeros=zeros, singular_atoms=atoms)
    arcs = build_arc_system(theta, levels, max_points_per_arc=64)
    samples = []
    kernel = decompose._log_modulus_sq
    monkeypatch.setattr(
        decompose, "_log_modulus_sq", lambda terms, z, gap: samples.append(z) or kernel(terms, z, gap)
    )
    delta = uncovered_region_report(theta, arcs).delta
    (z,) = samples
    # the float values rank the samples to far better than 1e-8
    values = np.abs(blaschke_values(theta, z))
    top = z[values >= (1.0 - 1e-8) * values.max()].tolist()
    want = max(_modulus_exact(theta, w) for w in top)
    assert abs(delta - want) <= 4.0 * np.spacing(want)


def test_uncovered_delta_random_strictly_below_one() -> None:
    rng = np.random.default_rng(59)
    theta = random_blaschke(rng, 6)
    report = uncovered_region_report(theta, build_arc_system(theta, 16))
    assert report.delta < 1.0


def test_located_counts_and_max_per_square() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    arcs = build_arc_system(z3, 8)

    def counts(seq: PointSequence) -> np.ndarray:
        located = arcs.locate(seq.z)
        return np.bincount(located[located >= 0], minlength=len(arcs))

    def max_per_square(seq: PointSequence) -> int:
        return decompose_by_squares(z3, seq, 8).global_info["max_per_square"]

    deep = PointSequence.from_complex([0.1, -0.2j, 0.3])
    assert counts(deep).sum() == 0 and max_per_square(deep) == 0
    anchors = PointSequence.from_angles(arcs.hi[:5])
    assert counts(anchors).max() == 1 and counts(anchors).sum() == 5
    assert max_per_square(anchors) == 1
    mid = 0.5 * (arcs.lo[0] + arcs.hi[0])
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
    for lo, hi, inner in zip(arcs.lo.tolist(), arcs.hi.tolist(), arcs.inner_radius.tolist()):
        depth = 0.5 * (1.0 + inner)
        for end in (lo, hi):
            for shift in (-2e-12, -1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12):
                pts.append(depth * cmath.exp(1j * (end + shift)))
                pts.append(cmath.exp(1j * (end + shift)))
        pts.append(inner * cmath.exp(1j * 0.5 * (lo + hi)))
        pts.append(0.999 * inner * cmath.exp(1j * 0.5 * (lo + hi)))
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
    assert partition.route[0].startswith("square:")
    assert part_ids(partition, seq.ids) == [(0, 1, 2)]
    assert tuple(partition.margins) == pytest.approx((0.0, 0.0, 0.0), abs=1e-9)
    assert partition.lambda_min[0] == pytest.approx(1.0, abs=1e-10)


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
    square_parts = [
        ids for ids, route in zip(part_ids(partition, seq.ids), partition.route)
        if route.startswith("square:")
    ]
    assert len(square_parts) == 3
    assert (partition.lambda_min > 0.0).all()
    assert all_ids(partition, seq.ids) == tuple(range(9))
    # shape precondition: within one part, at most one point per square
    arcs = build_arc_system(z3, 8)
    for ids in square_parts:
        owners = arcs.locate(seq.z[np.isin(seq.ids, ids)]).tolist()
        assert min(owners) >= 0 and len(set(owners)) == len(owners)


def test_squares_pipeline_splits_a_near_coincident_boundary_pair() -> None:
    # |1 - conj(z_j) z_i| < 1e-14 only matters inside one part's section
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    angles = [TWO_PI * k / 3 + 0.1 for k in range(3)] + [0.1 + 2e-15]
    seq = PointSequence.from_angles(angles)
    assert abs(1.0 - seq.z[3].conjugate() * seq.z[0]) < 1e-14
    partition = decompose_by_squares(z3, seq, 4)
    assert all_ids(partition, seq.ids) == (0, 1, 2, 3)
    owner = {pid: k for k, ids in enumerate(part_ids(partition, seq.ids)) for pid in ids}
    assert owner[0] != owner[3]
    assert (partition.lambda_max >= 1.0 - 1e-12).all()


def test_squares_pipeline_deep_ring_routed_to_interpolation() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    ring = PointSequence.from_complex(
        [0.3 * cmath.exp(2j * math.pi * k / 7) for k in range(7)]
    )
    partition = decompose_by_squares(z3, ring, 8)
    assert all(route == "uncovered:interp" for route in partition.route)
    delta_region = partition.global_info["delta_uncovered"]
    for k in range(len(partition.parts)):
        assert partition.gamma[k] == pytest.approx(delta_region)
        assert partition.dist_bound[k] < 1.0


def test_squares_pipeline_rejects_spectrum_point() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    with pytest.raises(NumericDomainError, match="point 0"):
        decompose_by_squares(theta, PointSequence.from_complex([0.5]), 8)


@pytest.mark.parametrize(
    "refused, error, message",
    [
        (lambda: decompose_by_squares(InnerFunction(blaschke_zeros=(0.5,)), PointSequence((), (), ()), 8),
         NumericDomainError, "cannot decompose an empty sequence"),
        (lambda: decompose_by_squares(InnerFunction(), PointSequence.from_complex([0.5]), 8),
         NumericDomainError, "constant inner function: nothing to decompose"),
        (lambda: build_arc_system(InnerFunction(blaschke_zeros=(0.5,)), 0),
         ConfigError, "level count must be at least 1"),
        (lambda: build_arc_system(InnerFunction(), 4),
         NumericDomainError, "constant inner function admits no arc system"),
    ],
    ids=["empty-sequence", "constant-theta", "zero-levels", "constant-theta-arcs"],
)
def test_square_pipeline_refusals(refused, error, message) -> None:
    with pytest.raises(error) as exc:
        refused()
    assert str(exc.value) == message


def test_squares_pipeline_mixed_membership() -> None:
    rng = np.random.default_rng(61)
    theta = random_blaschke(rng, 3)
    pts = [
        0.5 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(6)
    ]
    arcs = build_arc_system(theta, 8)
    near = [
        (inner + 0.6 * (1 - inner)) * cmath.exp(1j * (0.5 * (lo + hi)))
        for lo, hi, inner in zip(
            arcs.lo[:4].tolist(), arcs.hi[:4].tolist(), arcs.inner_radius[:4].tolist()
        )
    ]
    seq = PointSequence.from_complex(pts + near)
    partition = decompose_by_squares(theta, seq, 8)
    routes = set(partition.route)
    assert any(r.startswith("square:") for r in routes)
    assert any(r.startswith("uncovered") for r in routes)
    assert all_ids(partition, seq.ids) == tuple(range(10))


_NESTING_CASES = {
    "z^3": InnerFunction(blaschke_zeros=(0, 0, 0)),
    "zeros": InnerFunction(blaschke_zeros=(0.99 * cmath.exp(1j), 0.5, -0.3j)),
    "one_atom": InnerFunction(singular_atoms=((0.0, 1.0),)),
    "zeros_and_atoms": InnerFunction(
        blaschke_zeros=(0.3 + 0.2j, -0.6j), singular_atoms=((1.0, 0.5), (4.0, 2.0))
    ),
}


@pytest.mark.parametrize("name", sorted(_NESTING_CASES))
def test_doubling_the_level_count_nests_the_arcs_and_cannot_lower_the_sup(name) -> None:
    # why the default level count is a small one (8): N/2's level points
    # are among N's, so doubling N never lowers the uncovered sup
    theta = _NESTING_CASES[name]
    systems = [build_arc_system(theta, 2**k, 64) for k in range(3, 9)]
    for half, full in zip(systems, systems[1:]):
        assert np.isin(half.hi, full.hi).all()
    sups = [uncovered_region_report(theta, arcs).delta for arcs in systems]
    assert sups == sorted(sups)


def test_the_uncovered_region_is_sampled_once_per_square_split(monkeypatch) -> None:
    calls = []
    report = decompose.uncovered_region_report
    monkeypatch.setattr(
        decompose, "uncovered_region_report", lambda *args: calls.append(args) or report(*args)
    )
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    seq = PointSequence.from_complex([0.1, 0.2j, 0.99])
    for given in ((), (16,)):
        decompose_by_squares(z2, seq, *given)
        assert len(calls) == 1
        calls.clear()


def test_auto_level_count_used_when_omitted() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    seq = PointSequence.from_complex([0.1, 0.2j])
    partition = decompose_by_squares(z2, seq)
    assert partition.global_info["level_count"] == 8
    # the default arc system travels on the partition, outside the report
    assert_same_arc_system(partition.arcs, build_arc_system(z2, 8))
    assert "arcs" not in json.loads(partition_text(partition, seq.ids))


def test_select_level_count_power_function() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    partition = decompose_by_squares(z3, PointSequence.from_complex([0.1, 0.2j]))
    assert partition.global_info["level_count"] == 8
    assert_same_arc_system(partition.arcs, build_arc_system(z3, 8))
    assert uncovered_region_report(z3, partition.arcs).delta < 0.9


def test_zeros_next_to_the_circle_split_at_the_default_level_count() -> None:
    # one zero at 1 - 10^u, u in [-5, -2], and up to two inside |z| < 0.8:
    # every sequence splits at N = 8 with finite, nonnegative frame bounds
    rng = np.random.default_rng(31)
    for _ in range(12):
        zeros = [(1 - 10 ** rng.uniform(-5, -2)) * cmath.exp(1j * rng.uniform(0, TWO_PI))]
        for _ in range(int(rng.integers(0, 3))):
            zeros.append(0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI)))
        n = int(rng.integers(10, 30))
        pts = (1 - 10 ** rng.uniform(-3, -1, n)) * np.exp(1j * rng.uniform(0, TWO_PI, n))
        theta, seq = InnerFunction(blaschke_zeros=tuple(zeros)), PointSequence.from_complex(pts.tolist())
        partition = decompose_by_squares(theta, seq, max_points_per_arc=64)
        assert partition.global_info["level_count"] == 8
        assert all_ids(partition, seq.ids) == tuple(range(n))
        assert np.isfinite(partition.lambda_min).all() and (partition.lambda_min >= 0.0).all()


def test_mixed_clouds_decompose_cleanly() -> None:
    # interior, near-boundary, and exact boundary points together, with the
    # default level count
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
        assert all_ids(partition, seq.ids) == tuple(sorted(seq.ids))
        for k, route in enumerate(partition.route):
            assert partition.lambda_min[k] >= 0.0
            if route == "uncovered:interp":
                assert partition.gamma[k] * partition.earl_value[k] < 1.0
        parts = part_ids(partition, seq.ids)
        for pid in seq.ids[seq.boundary].tolist():
            owner = [k for k, ids in enumerate(parts) if pid in ids]
            assert len(owner) == 1 and partition.route[owner[0]].startswith("square:")
