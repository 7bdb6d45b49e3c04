import cmath
import math

import numpy as np
import pytest

from conftest import (
    blaschke_values_on_circle,
    cell_rate_bound_oracle,
    random_blaschke,
    simpson_fixed,
)

from mslab.clark import (
    _level_branches,
    _solve_on_branch,
    build_arg_branch,
    herglotz_residual,
    level_set,
    level_sets,
    stability_margin,
    variation_along_path,
)
from mslab.errors import ConfigError, NumericDomainError
from mslab.gram import gram
from mslab.inner import InnerFunction, boundary_derivative, eval_inner, rate_bound
from mslab.points import PointSequence, UnitPoint

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# argument branches
# ---------------------------------------------------------------------------

def test_branch_identity_function() -> None:
    theta = InnerFunction(blaschke_zeros=(0,))
    branch = build_arg_branch(theta, (0.0, TWO_PI))
    assert branch.total_increase == pytest.approx(TWO_PI, abs=1e-12)
    for t in (0.3, 1.2, 4.0):
        assert branch.value_at(t) == pytest.approx(t, abs=1e-9)


def test_branch_cube_total() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    branch = build_arg_branch(z3, (0.0, TWO_PI))
    assert branch.total_increase == pytest.approx(6 * math.pi, abs=1e-10)


def test_branch_rate_peaks_at_zero_angle() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    branch = build_arg_branch(theta, (0.0, TWO_PI))
    assert branch.total_increase == pytest.approx(TWO_PI, abs=1e-10)
    # rate (1 - 0.25)/|e^{i t} - 0.5|^2 peaks at 3 for t = 0
    h = 1e-4
    slope = (branch.value_at(h) - branch.value_at(0.0)) / h
    assert slope == pytest.approx(3.0, rel=1e-3)


def test_branch_secants_match_rate() -> None:
    rng = np.random.default_rng(31)
    theta = random_blaschke(rng, 4)
    branch = build_arg_branch(theta, (0.0, TWO_PI))
    thetas = branch.thetas
    values = branch.values
    mids = 0.5 * (thetas[:-1] + thetas[1:])
    secants = np.diff(values) / np.diff(thetas)
    for m, s in zip(mids[::7], secants[::7]):
        rate = boundary_derivative(theta, cmath.exp(1j * m))
        assert abs(s - rate) <= 1e-6 * rate


def test_branch_unwrap_certified_near_boundary_zeros() -> None:
    # rate spikes of height ~2e6 at the angles of zeros 1e-6 inside the
    # circle: every cell's width times an independent bound of the rate on
    # it stays below pi/2, so no cell can hide a full turn of argument
    zeros = tuple((1 - 1e-6) * cmath.exp(1j * a) for a in (0.4, 2.5, 4.1)) + (0.5j,)
    theta = InnerFunction(blaschke_zeros=zeros)
    branch = build_arg_branch(theta, (0.0, TWO_PI))
    assert branch.total_increase == pytest.approx(4 * TWO_PI, abs=1e-9)
    lo, hi = branch.thetas[:-1], branch.thetas[1:]
    oracle = np.array([cell_rate_bound_oracle(theta, a, b) for a, b in zip(lo, hi)])
    assert np.max((hi - lo) * oracle) < 0.5 * math.pi
    assert rate_bound(theta, lo, hi) == pytest.approx(oracle, rel=1e-8)


def test_branch_rejects_atom_in_arc() -> None:
    theta = InnerFunction(singular_atoms=((1.0, 0.5),))
    with pytest.raises(NumericDomainError):
        build_arg_branch(theta, (0.5, 1.5))


def test_branch_rejects_constant() -> None:
    with pytest.raises(NumericDomainError):
        build_arg_branch(InnerFunction(), (0.0, 1.0))


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_set_cube_roots() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    assert len(fam) == 3
    assert fam.angles == pytest.approx((0.0, TWO_PI / 3, 2 * TWO_PI / 3), abs=1e-10)
    assert fam.derivs == pytest.approx((3.0, 3.0, 3.0))
    assert fam.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert not fam.truncated


def test_level_set_minus_one() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, -1.0)
    assert fam.angles == pytest.approx(
        (math.pi / 3, math.pi, 5 * math.pi / 3), abs=1e-10
    )


def test_level_set_against_dense_scan_oracle() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    fam = level_set(theta, 1.0)
    assert len(fam) == 2
    for p in fam.points:
        assert abs(eval_inner(theta, p) - 1.0) <= 1e-10
    # oracle: sign changes of the wrapped argument on a dense grid
    grid = np.linspace(0.0, TWO_PI, 1_000_001)
    vals = blaschke_values_on_circle(theta, grid)
    arg = np.angle(vals)
    crossings = []
    for i in range(len(grid) - 1):
        a, b = arg[i], arg[i + 1]
        if a <= 0.0 < b and b - a < math.pi:
            crossings.append(0.5 * (grid[i] + grid[i + 1]))
    assert len(crossings) == 2
    for found, expect in zip(sorted(fam.angles), sorted(crossings)):
        assert abs(found - expect) <= 1e-5


def _oracle_roots(theta: InnerFunction, alpha: complex, n_grid: int) -> list[float]:
    """Roots of Theta = alpha from a dense grid, refined by bisection on the
    conftest evaluator: arg(Theta/alpha) crosses 0 upwards at each root."""
    def phase(t: float) -> float:
        return float(np.angle(blaschke_values_on_circle(theta, np.array([t]))[0] / alpha))

    grid = np.linspace(0.0, TWO_PI, n_grid + 1)
    arg = np.angle(blaschke_values_on_circle(theta, grid) / alpha)
    roots = []
    for i in np.flatnonzero((arg[:-1] <= 0.0) & (arg[1:] > 0.0) & (arg[1:] - arg[:-1] < math.pi)):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if phase(mid) <= 0.0:
                lo = mid
            else:
                hi = mid
        roots.append(0.5 * (lo + hi))
    return roots


def test_level_set_degree_64_against_dense_scan_oracle() -> None:
    theta = random_blaschke(np.random.default_rng(71), 64)
    alpha = cmath.exp(2.2j)
    fam = level_set(theta, alpha)
    expect = _oracle_roots(theta, alpha, 1 << 16)
    assert len(fam) == len(expect) == 64
    assert np.max(np.abs(np.array(fam.angles) - np.array(expect))) <= 1e-10


def test_lockstep_solve_matches_one_target_at_a_time() -> None:
    # the truncated atomic family and the seam targets, solved in one batch
    # and one by one, give the same roots
    cases = [(InnerFunction(singular_atoms=((0.0, 1.0),)), 64, [1.0, 1j, -1.0])]
    rng = np.random.default_rng(99)
    theta = random_blaschke(rng, 5)
    anchor = eval_inner(theta, 1.0)
    seam = [anchor * cmath.exp(1j * eps) for eps in (0.0, 1e-13, -1e-13, 1e-10, -3e-9)]
    cases.append((theta, 512, [a / abs(a) for a in seam]))
    for theta, cap, alphas in cases:
        branches, _, _ = _level_branches(theta, cap)
        for branch in branches:
            v0, v1 = float(branch.values[0]), float(branch.values[-1])
            targets = []
            for alpha in alphas:
                arg = cmath.phase(alpha)
                k = math.ceil((v0 - arg) / TWO_PI)
                targets += [arg + TWO_PI * j for j in range(k, k + 64) if arg + TWO_PI * j <= v1]
            batch = _solve_on_branch(theta, branch, np.array(targets))
            single = [_solve_on_branch(theta, branch, np.array([t]))[0] for t in targets]
            assert np.max(np.abs(batch - np.array(single))) <= 1e-15
    families = level_sets(theta, [a / abs(a) for a in seam])
    for alpha, fam in zip(seam, families):
        assert fam.angles == pytest.approx(level_set(theta, alpha / abs(alpha)).angles, abs=1e-15)
        assert len(fam) == theta.degree


def test_level_set_seam_targets() -> None:
    # targets within float dust of the branch start must neither drop nor
    # duplicate the root at the wrap seam
    rng = np.random.default_rng(99)
    for _ in range(12):
        theta = random_blaschke(rng, int(rng.integers(1, 7)))
        anchor = eval_inner(theta, 1.0)
        for eps in (0.0, 1e-13, -1e-13, 1e-10, -1e-10, 3e-9, -3e-9):
            alpha = anchor * cmath.exp(1j * eps)
            alpha /= abs(alpha)
            fam = level_set(theta, alpha)
            assert len(fam) == theta.degree
            angles = sorted(fam.angles)
            for a, b in zip(angles, angles[1:]):
                assert b - a > 1e-8
            for p in fam.points:
                assert abs(eval_inner(theta, p) - alpha) <= 1e-9


def test_level_set_rejects_bad_alpha() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    with pytest.raises(ConfigError):
        level_set(z2, 0.5)
    with pytest.raises(NumericDomainError):
        level_set(InnerFunction(), 1.0)


def test_level_counting_and_interleaving() -> None:
    rng = np.random.default_rng(37)
    theta = random_blaschke(rng, 4)
    n_levels = 5
    alphas = [cmath.exp(2j * math.pi * l / n_levels) for l in range(1, n_levels + 1)]
    families = level_sets(theta, alphas)
    for fam in families:
        assert len(fam) == theta.degree
    # pairwise disjoint and interleaved: between consecutive points of one
    # family there is exactly one point of every other family
    for i, fam_a in enumerate(families):
        for j, fam_b in enumerate(families):
            if i == j:
                continue
            a = sorted(fam_a.angles)
            b = sorted(fam_b.angles)
            assert min(abs(x - y) for x in a for y in b) > 1e-9
            for k in range(len(a)):
                lo = a[k]
                hi = a[(k + 1) % len(a)] if k + 1 < len(a) else a[0] + TWO_PI
                inside = [
                    x for x in b + [y + TWO_PI for y in b] if lo < x < hi
                ]
                assert len(inside) == 1


def test_unit_variation_between_neighbours() -> None:
    rng = np.random.default_rng(41)
    theta = random_blaschke(rng, 3)
    fam = level_set(theta, cmath.exp(0.4j))
    angles = sorted(fam.angles)
    for k in range(len(angles)):
        lo = angles[k]
        hi = angles[(k + 1) % len(angles)]
        if k + 1 == len(angles):
            hi += TWO_PI
        mass = simpson_fixed(
            lambda t: boundary_derivative(theta, cmath.exp(1j * t)) / TWO_PI,
            lo,
            hi,
            2048,
        )
        assert abs(mass - 1.0) <= 1e-8


def test_clark_gram_is_identity() -> None:
    rng = np.random.default_rng(43)
    theta = random_blaschke(rng, 5)
    fam = level_set(theta, 1j)
    seq = PointSequence.from_points(fam.points)
    g = gram(theta, seq)
    off = np.max(np.abs(g.entries - np.eye(len(fam))))
    assert off <= 1e-10


def test_parseval_at_desk_scale() -> None:
    n = 8
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    fam = level_set(zn, 1.0)
    rng = np.random.default_rng(47)
    angles = TWO_PI * np.arange(1024) / 1024
    z = np.exp(1j * angles)
    for _ in range(5):
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        f = lambda w: np.polyval(coeffs[::-1], w)  # noqa: E731
        norm_sq = float(np.mean(np.abs(f(z)) ** 2))
        discrete = sum(
            a * abs(f(p.value)) ** 2 for a, p in zip(fam.weights, fam.points)
        )
        assert abs(discrete - norm_sq) <= 1e-8 * norm_sq


# ---------------------------------------------------------------------------
# Herglotz residual
# ---------------------------------------------------------------------------

def test_herglotz_center_value() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    assert herglotz_residual(z3, fam, 0.0) <= 1e-14


def test_herglotz_interior_point() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    assert herglotz_residual(z3, fam, 0.5) <= 1e-10


def test_herglotz_blaschke_pair() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    fam = level_set(theta, 1.0)
    assert herglotz_residual(theta, fam, 0.3j) <= 1e-8


def test_herglotz_needs_interior_point() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    fam = level_set(z2, 1.0)
    with pytest.raises(NumericDomainError):
        herglotz_residual(z2, fam, UnitPoint.boundary(0.5))


def test_truncated_atomic_family_flagged() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    fam = level_set(theta, 1.0, max_points_per_arc=64)
    assert fam.truncated
    assert len(fam) <= 64
    for p in fam.points:
        assert abs(eval_inner(theta, p) - 1.0) <= 1e-9
    # residual is returned but does not certify for a truncated family
    res = herglotz_residual(theta, fam, 0.2)
    assert math.isfinite(res)


# ---------------------------------------------------------------------------
# stability and variation
# ---------------------------------------------------------------------------

def test_stability_margin_zero_for_exact_family() -> None:
    z4 = InnerFunction(blaschke_zeros=(0,) * 4)
    fam = level_set(z4, 1.0)
    seq = PointSequence.from_points(fam.points)
    assert stability_margin(z4, fam, seq) == pytest.approx([0.0] * 4, abs=1e-12)


def test_stability_margin_angular_shift() -> None:
    n = 8
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    fam = level_set(zn, 1.0)
    t = 0.1
    seq = PointSequence.from_points(
        [UnitPoint.boundary(p.angle + t / n) for p in fam.points]
    )
    margins = stability_margin(zn, fam, seq)
    expect = abs(cmath.exp(1j * t / n) - 1.0) * n
    assert margins == pytest.approx([expect] * n, rel=1e-12)
    assert expect == pytest.approx(t, rel=1e-3)


def test_stability_margin_radial_move() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    s = 0.05
    pts = [UnitPoint.interior((1 - s) * p.value) for p in fam.points]
    margins = stability_margin(z3, fam, PointSequence.from_points(pts))
    assert margins == pytest.approx([s * 3.0] * 3, rel=1e-12)


def test_stability_margin_size_mismatch() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    with pytest.raises(ConfigError):
        stability_margin(z3, fam, PointSequence.from_complex([0.1]))


def test_variation_trivial_and_radial() -> None:
    theta = InnerFunction(blaschke_zeros=(0,))
    assert variation_along_path(theta, 1.0, 1.0) == 0.0
    assert variation_along_path(theta, 1.0, 0.9) == pytest.approx(0.1, rel=1e-8)


def test_variation_boundary_chord() -> None:
    n = 5
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    for t in (0.01, 0.05):
        val = variation_along_path(zn, 1.0, cmath.exp(1j * t))
        assert val == pytest.approx(n * t, rel=1e-2)


def test_variation_rejects_spectrum_hit() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    with pytest.raises(NumericDomainError):
        variation_along_path(theta, 0.4, 0.6)


def test_variation_polyline_routes_around_spectrum() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    detour = variation_along_path(theta, 0.4, 0.6, via=[0.5 + 0.2j])
    assert detour > 0.0
    # additivity: a waypoint on the straight segment changes nothing
    clear = InnerFunction(blaschke_zeros=(0,))
    direct = variation_along_path(clear, 1.0, 0.8)
    with_stop = variation_along_path(clear, 1.0, 0.8, via=[0.9])
    assert with_stop == pytest.approx(direct, rel=1e-9)
