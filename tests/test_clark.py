import cmath
import math

import numpy as np
import pytest

from conftest import (
    blaschke_values,
    blaschke_values_on_circle,
    boundary_rate_oracle,
    level_targets_reference,
    library_gram,
    random_blaschke,
    simpson_fixed,
)

from mslab import clark
from mslab.clark import (
    _check_arc_clear,
    _level_arcs,
    _level_targets,
    _solve,
    herglotz_residuals,
    level_set,
    level_sets,
)
from mslab.decompose import decompose_by_squares
from mslab.errors import ConfigError, NumericDomainError
from mslab.inner import InnerFunction, argument_and_rate, boundary_argument
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# argument branches
# ---------------------------------------------------------------------------

def _increase(theta: InnerFunction, lo: float, hi: float) -> float:
    """Phi(hi) - Phi(lo) of the closed-form boundary argument."""
    v = boundary_argument(theta, np.array([lo, hi]))
    return float(v[1] - v[0])


def test_branch_identity_function() -> None:
    theta = InnerFunction(blaschke_zeros=(0,))
    assert _increase(theta, 0.0, TWO_PI) == pytest.approx(TWO_PI, abs=1e-12)
    for t in (0.3, 1.2, 4.0):
        assert _increase(theta, 0.0, t) == pytest.approx(t, abs=1e-9)


def test_branch_cube_total() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    assert _increase(z3, 0.0, TWO_PI) == pytest.approx(6 * math.pi, abs=1e-10)


def test_branch_rate_peaks_at_zero_angle() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    assert _increase(theta, 0.0, TWO_PI) == pytest.approx(TWO_PI, abs=1e-10)
    # rate (1 - 0.25)/|e^{i t} - 0.5|^2 peaks at 3 for t = 0
    h = 1e-4
    assert _increase(theta, 0.0, h) / h == pytest.approx(3.0, rel=1e-3)


def test_branch_rejects_atom_in_arc() -> None:
    theta = InnerFunction(singular_atoms=((1.0, 0.5),))

    def check(*arcs: tuple[float, float]) -> None:
        lo, hi = np.array(arcs).T
        _check_arc_clear(theta, lo, hi)

    with pytest.raises(NumericDomainError, match=r"arc \[0.5, 1.5\]"):
        check((0.5, 1.5))
    # the atom's images a -+ 2*pi count too, and so does an end within 1e-13
    with pytest.raises(NumericDomainError):
        check((1.0 + TWO_PI - 0.5, 1.0 + TWO_PI + 0.5))
    with pytest.raises(NumericDomainError):
        check((1.0 + 5e-14, 2.0))
    check((1.0 + 1e-11, 1.0 + TWO_PI - 1e-11))
    # all arcs are checked in one call, and the first touching arc is named
    with pytest.raises(NumericDomainError, match=r"arc \[-3.0, 0.99999999999999\]"):
        check((1.0 + 1e-11, 3.0), (-3.0, 1.0 - 1e-14), (0.9, 1.1))
    check((1.0 + 1e-11, 3.0), (3.5, 7.2), (-2.0, 1.0 - 1e-12))


# ---------------------------------------------------------------------------
# level sets
# ---------------------------------------------------------------------------

def test_level_set_cube_roots() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    assert len(fam) == 3
    assert fam.points == pytest.approx((0.0, TWO_PI / 3, 2 * TWO_PI / 3), abs=1e-10)
    assert fam.derivs == pytest.approx((3.0, 3.0, 3.0))
    assert fam.weights == pytest.approx((1 / 3, 1 / 3, 1 / 3))
    assert not fam.truncated


@pytest.mark.parametrize("degree", [3, 4, 7, 16])
def test_level_set_root_on_the_seam_is_zero(degree: int) -> None:
    # exp(2 pi i) = 1 - 2.4e-16 i, the last level of every arc system: its
    # target sits within rounding of Phi(2 pi), and the root there is 0,
    # listed first, not an ulp or two below 2 pi and listed last
    zn = InnerFunction(blaschke_zeros=(0,) * degree)
    fam = level_set(zn, cmath.exp(2j * math.pi))
    assert fam.points[0] == 0.0
    assert fam.points == pytest.approx(tuple(TWO_PI * k / degree for k in range(degree)), abs=1e-13)


def test_level_set_minus_one() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, -1.0)
    assert fam.points == pytest.approx(
        (math.pi / 3, math.pi, 5 * math.pi / 3), abs=1e-10
    )


def test_level_set_against_dense_scan_oracle() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    fam = level_set(theta, 1.0)
    assert len(fam) == 2
    assert np.max(np.abs(blaschke_values_on_circle(theta, fam.points) - 1.0)) <= 1e-10
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
    for found, expect in zip(sorted(fam.points), sorted(crossings)):
        assert abs(found - expect) <= 1e-5


def _oracle_roots(
    theta: InnerFunction,
    alpha: complex,
    n_grid: int,
    span: tuple[float, float] = (0.0, TWO_PI),
    extra: np.ndarray = np.empty(0),
) -> list[float]:
    """Roots of Theta = alpha from a dense grid, refined by bisection on the
    conftest evaluator: arg(Theta/alpha) crosses 0 upwards at each root.

    The grid is uniform over ``span``, plus the ``extra`` angles inside it."""
    def phase(t: float) -> float:
        return float(np.angle(blaschke_values_on_circle(theta, np.array([t]))[0] / alpha))

    lo, hi = span
    grid = np.union1d(np.linspace(lo, hi, n_grid + 1), extra[(extra > lo) & (extra < hi)])
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
    assert np.max(np.abs(fam.points - np.array(expect))) <= 1e-10


def _near_zero_grid(theta: InnerFunction) -> np.ndarray:
    """Angles clustered at each zero within 1e-3 of the circle, spaced so the
    argument turns by less than pi between neighbours."""
    out = []
    for eta in theta.blaschke_zeros:
        depth = 1.0 - abs(eta)
        if depth < 1e-3:
            steps = np.concatenate([np.arange(-8, 9) / 4.0, 2.0 ** np.arange(1, 60)])
            offsets = depth * steps[depth * steps < 0.1]
            out.append(cmath.phase(eta) % TWO_PI + np.concatenate([offsets, -offsets]))
    return np.concatenate(out) if out else np.empty(0)


def _assert_residuals_within_rate_tolerance(theta: InnerFunction, fam, alpha: complex) -> None:
    # the tolerance of the library's own residual check, with the rate and
    # the values recomputed here
    ang = fam.points
    zeta = np.exp(1j * ang)
    rate = sum((1.0 - abs(eta) ** 2) / np.abs(zeta - eta) ** 2 for eta in theta.blaschke_zeros)
    for a, m in theta.singular_atoms:
        rate = rate + 2.0 * m / np.abs(zeta - cmath.exp(1j * a)) ** 2
    tol = np.maximum(1e-10, 8.0 * rate * 2.3e-16 * np.maximum(1.0, np.abs(ang)))
    assert np.all(np.abs(blaschke_values_on_circle(theta, ang) - alpha) <= tol)


_NEAR_BOUNDARY_ZEROS = {
    "1 - 1e-7": ((1 - 1e-7) * cmath.exp(0.9j),),
    "1 - 1e-8": ((1 - 1e-8) * cmath.exp(0.9j), 0.3 + 0.2j),
    "1 - 1e-12": tuple((1 - 1e-12) * cmath.exp(1j * a) for a in (0.4, 2.5)) + (0.3 + 0.2j,),
}


@pytest.mark.parametrize("name", sorted(_NEAR_BOUNDARY_ZEROS))
def test_level_set_near_boundary_zeros_against_dense_scan_oracle(name: str) -> None:
    # the sampled branch exhausted its refinement on each of these
    theta = InnerFunction(blaschke_zeros=_NEAR_BOUNDARY_ZEROS[name])
    for alpha in (cmath.exp(2.0j), cmath.exp(-0.7j)):
        fam = level_set(theta, alpha)
        expect = _oracle_roots(theta, alpha, 1 << 14, extra=_near_zero_grid(theta))
        assert len(fam) == len(expect) == theta.degree
        assert np.max(np.abs(fam.points - np.array(expect))) <= 1e-12
        _assert_residuals_within_rate_tolerance(theta, fam, alpha)


def test_level_set_atoms_1e6_apart_against_dense_scan_oracle() -> None:
    atoms = ((1.0, 0.5), (1.0 + 1e-6, 0.5))
    theta = InnerFunction(blaschke_zeros=(0.5j,), singular_atoms=atoms)
    alpha = cmath.exp(2.0j)
    cap = 24
    fam = level_set(theta, alpha, max_points_per_arc=cap)
    assert fam.truncated
    ang = fam.points
    short = (ang > 1.0) & (ang < 1.0 + 1e-6)
    # the budget of cap + 1 turns per arc reaches the cap on both arcs
    assert np.sum(short) == np.sum(~short) == cap
    _assert_residuals_within_rate_tolerance(theta, fam, alpha)
    # every root between the outermost found ones on each arc, and no other
    long_arc = np.where(ang < 1.0, ang + TWO_PI, ang)[~short]
    for found, n_grid in ((ang[short], 1 << 12), (long_arc, 1 << 16)):
        found = np.sort(found)
        span = (found[0] - 0.25 * (found[1] - found[0]), found[-1] + 0.25 * (found[-1] - found[-2]))
        expect = _oracle_roots(theta, alpha, n_grid, span=span)
        assert len(expect) == cap
        assert np.max(np.abs(found - np.array(expect))) <= 1e-12


def test_lockstep_solve_matches_one_target_at_a_time() -> None:
    # the truncated atomic family and the seam targets, solved in one batch
    # over every arc and one by one, give the same roots
    cases = [(InnerFunction(singular_atoms=((0.0, 1.0), (2.0, 0.5))), 64, [1.0, 1j, -1.0])]
    rng = np.random.default_rng(99)
    theta = random_blaschke(rng, 5)
    anchor = complex(blaschke_values(theta, np.array([1.0]))[0])
    seam = [anchor * cmath.exp(1j * eps) for eps in (0.0, 1e-13, -1e-13, 1e-10, -3e-9)]
    cases.append((theta, 512, [a / abs(a) for a in seam]))
    for theta, cap, alphas in cases:
        lo, hi = _level_arcs(theta, cap)
        assert lo.size == max(1, len(theta.singular_atoms))
        v0, v1 = np.split(boundary_argument(theta, np.concatenate([lo, hi])), 2)
        targets, arc = [], []
        for j in range(lo.size):
            for alpha in alphas:
                arg = cmath.phase(alpha)
                k = math.ceil((v0[j] - arg) / TWO_PI)
                found = [arg + TWO_PI * i for i in range(k, k + 64) if arg + TWO_PI * i <= v1[j]]
                targets += found
                arc += [j] * len(found)
        arc = np.array(arc)
        cells = 2 * np.ceil((v1 - v0) / TWO_PI).astype(int)
        a, b = _solve(theta, lo, hi, cells, arc, np.array(targets))
        batch = 0.5 * (a + b)
        single = []
        for j, t in zip(arc.tolist(), targets):
            a1, b1 = _solve(
                theta, lo[j : j + 1], hi[j : j + 1], cells[j : j + 1], np.array([0]), np.array([t])
            )
            single.append(0.5 * (a1[0] + b1[0]))
        assert np.max(np.abs(batch - np.array(single))) <= 1e-15
        assert np.all((lo[arc] <= batch) & (batch <= hi[arc]))
    families = level_sets(theta, [a / abs(a) for a in seam])
    for alpha, fam in zip(seam, families):
        assert fam.points == pytest.approx(level_set(theta, alpha / abs(alpha)).points, abs=1e-15)
        assert len(fam) == theta.degree


def test_level_set_solves_all_arcs_in_two_calls(monkeypatch) -> None:
    # one solve cuts every atom arc, one more solves every level on every
    # arc: two calls whatever the number of atoms and levels
    calls = []

    def counting(theta, lo, hi, cells, arc, targets):
        calls.append(targets.size)
        return _solve(theta, lo, hi, cells, arc, targets)

    monkeypatch.setattr(clark, "_solve", counting)
    theta = InnerFunction(
        blaschke_zeros=(0.3j,), singular_atoms=((0.5, 0.2), (2.5, 1.0), (4.5, 0.05))
    )
    fam = level_set(theta, 1j, max_points_per_arc=16)
    assert len(calls) == 2
    assert calls[0] == 6  # two cuts per arc
    assert calls[1] == len(fam) == 3 * 16
    calls.clear()
    level_sets(theta, [1.0, -1.0, 1j], max_points_per_arc=16)
    assert len(calls) == 2


_SOLVER_CASES = {
    "zeros at 1 - 1e-12": (_NEAR_BOUNDARY_ZEROS["1 - 1e-12"], (), 512),
    "atoms 1e-6 apart": ((0.5j,), ((1.0, 0.5), (1.0 + 1e-6, 0.5)), 24),
    "light atom 1e-11": ((0.3,), ((1.0, 1e-11),), 24),
    "light atom 1e-13": ((0.3,), ((1.0, 1e-13),), 24),
    "two atoms": ((0.3, 0.5j, -0.2 + 0.1j), ((1.0, 0.7), (4.0, 0.2)), 512),
    "mass-50 atom": ((0.3,), ((1.0, 50.0),), 512),
    "degree 500": (random_blaschke(np.random.default_rng(500), 500, rmax=0.95).blaschke_zeros, (), 512),
}


def _recording_solves(monkeypatch) -> list:
    """Patch ``clark._solve`` to record each call's arcs, targets and brackets."""
    seen = []

    def recording(theta, lo, hi, cells, arc, targets):
        a, b = _solve(theta, lo, hi, cells, arc, targets)
        seen.append((lo[arc], hi[arc], targets, a, b))
        return a, b

    monkeypatch.setattr(clark, "_solve", recording)
    return seen


@pytest.mark.parametrize("name", sorted(_SOLVER_CASES))
def test_solver_brackets_every_root(monkeypatch, name: str) -> None:
    # every bracket of the trim cuts and of the levels has
    # Phi(a) < target <= Phi(b); a target past an end of its arc, or
    # within the rounding noise of Phi there, gets that end twice
    zeros, atoms, cap = _SOLVER_CASES[name]
    theta = InnerFunction(blaschke_zeros=zeros, singular_atoms=atoms)
    seen = _recording_solves(monkeypatch)
    level_sets(theta, [1.0, cmath.exp(2.0j), cmath.exp(-0.7j)], cap)
    assert len(seen) == (2 if atoms else 1)
    for lo, hi, t, a, b in seen:
        assert np.all((lo <= a) & (a <= b) & (b <= hi))
        phi_a, phi_b = boundary_argument(theta, a), boundary_argument(theta, b)
        inner = a < b
        assert np.all(phi_a[inner] < t[inner]) and np.all(t[inner] <= phi_b[inner])
        first, last = ~inner & (a == lo), ~inner & (b == hi)
        assert np.all(first | last | inner)
        noise = 4.0 * 2.3e-16 * (np.abs(t) + 4.0 * theta.degree + 1.0)
        assert np.all(t[first] <= phi_a[first] + noise[first])
        assert np.all(t[last & ~first] > phi_b[last & ~first] - noise[last & ~first])
        # and each bracket closes within the rounding band of Phi
        rate = boundary_rate_oracle(theta, b[inner])
        band = noise[inner] / rate
        assert np.all(b[inner] - a[inner] <= np.maximum(2.0 * band, 1e-15 * np.abs(b[inner])))


@pytest.mark.parametrize("name", ["two atoms", "mass-50 atom"])
def test_trim_cuts_take_few_newton_rounds(monkeypatch, name: str) -> None:
    # each cut starts inside its closed-form bracket from the atom's own
    # term; Newton from the arc's middle took 19 and 12 rounds here
    zeros, atoms, cap = _SOLVER_CASES[name]
    calls, solves = [], []

    def counting(theta, t):
        calls.append(t.size)
        return argument_and_rate(theta, t)

    def marking(*args):
        solves.append(len(calls))
        return _solve(*args)

    monkeypatch.setattr(clark, "argument_and_rate", counting)
    monkeypatch.setattr(clark, "_solve", marking)
    level_sets(InnerFunction(blaschke_zeros=zeros, singular_atoms=atoms), [1.0, 1j], cap)
    trim_calls = solves[1] - solves[0]  # the grid evaluation, then one per round
    assert trim_calls - 1 <= 5


def test_blaschke_solve_takes_few_phi_calls(monkeypatch) -> None:
    # one grid evaluation and a few Newton rounds, where bisection to the
    # spacing of doubles took over 50
    calls = []

    def counting(theta, t):
        calls.append(t.size)
        return argument_and_rate(theta, t)

    monkeypatch.setattr(clark, "argument_and_rate", counting)
    theta = random_blaschke(np.random.default_rng(256), 256, rmax=0.95)
    assert len(level_set(theta, cmath.exp(0.7j))) == 256
    # two grid points per turn, the ends included
    assert calls[0] <= 2 * 257 + 1 and len(calls) <= 12
    calls.clear()
    assert len(level_sets(theta, [1.0, 1j, -1.0, -1j])) == 4
    assert calls[0] <= 2 * 257 + 1 and len(calls) <= 12


def test_level_set_seam_targets() -> None:
    # targets within float dust of the branch start must neither drop nor
    # duplicate the root at the wrap seam
    rng = np.random.default_rng(99)
    for _ in range(12):
        theta = random_blaschke(rng, int(rng.integers(1, 7)))
        anchor = complex(blaschke_values(theta, np.array([1.0]))[0])
        for eps in (0.0, 1e-13, -1e-13, 1e-10, -1e-10, 3e-9, -3e-9):
            alpha = anchor * cmath.exp(1j * eps)
            alpha /= abs(alpha)
            fam = level_set(theta, alpha)
            assert len(fam) == theta.degree
            angles = sorted(fam.points)
            for a, b in zip(angles, angles[1:]):
                assert b - a > 1e-8
            residual = blaschke_values_on_circle(theta, fam.points) - alpha
            assert np.max(np.abs(residual)) <= 1e-9


def _assert_same_targets(got, want) -> None:
    """Targets, arcs and levels equal bit for bit, in order, and equal cap flags."""
    for a, b in zip(got[:3], want[:3]):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert got[3] == want[3] and all(type(flag) is bool for flag in got[3])


@pytest.mark.parametrize("full_circle", [False, True], ids=["atom-arcs", "full-circle"])
def test_level_targets_match_the_reference_loop_on_random_ranges(full_circle: bool) -> None:
    # 20,000 (arc, level) pairs over ranges of 0-10 turns; of every four
    # arcs, three end on a target of the first level or one ulp either side
    rng = np.random.default_rng(2024)
    for cap in (1, 2, 3, 5, 8):
        v0 = rng.uniform(-40.0, 40.0, 400)
        v1 = v0 + TWO_PI * rng.uniform(0.0, 10.0, 400)
        phases = rng.uniform(-math.pi, math.pi, 10)
        on = phases[0] + TWO_PI * (np.ceil((v0 - phases[0]) / TWO_PI) + rng.integers(0, 2 * cap, 400))
        v1[::4] = on[::4]
        v1[1::4] = np.nextafter(on[1::4], np.inf)
        v1[2::4] = np.nextafter(on[2::4], -np.inf)
        v1 = np.maximum(v0, v1)
        got = _level_targets(v0, v1, phases, full_circle, cap)
        _assert_same_targets(got, level_targets_reference(v0, v1, phases, full_circle, cap))


@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["count-below-cap", "count-at-cap", "count-above-cap"])
def test_level_targets_cap_flags_at_the_edge(extra: int) -> None:
    # between atoms a count equal to the cap is capped (>=); on the full
    # circle only a count above the cap is (>)
    cap = 4
    phases = np.array([0.5, -2.0])
    v0 = np.array([0.25])
    top = phases + TWO_PI * (np.ceil((v0 - phases) / TWO_PI) + cap - 1 + extra)
    for v1 in (np.array([top[0]]), np.array([top[1]])):
        got = _level_targets(v0, v1, phases, False, cap)
        _assert_same_targets(got, level_targets_reference(v0, v1, phases, False, cap))
    assert _level_targets(v0, np.array([top[0]]), phases, False, cap)[3][0] == (extra >= 0)
    v1 = v0 + TWO_PI * (cap + extra)
    got = _level_targets(v0, v1, phases, True, cap)
    _assert_same_targets(got, level_targets_reference(v0, v1, phases, True, cap))
    assert got[3] == [extra > 0] * 2
    assert np.bincount(got[2]).tolist() == [min(cap + extra, cap)] * 2


@pytest.mark.parametrize(
    "theta, cap",
    [
        (InnerFunction(blaschke_zeros=(0.3j, -0.5, 0.7 + 0.1j)), 512),
        (InnerFunction(blaschke_zeros=(0.3j,) * 5), 3),
        (InnerFunction(blaschke_zeros=(0.3j,), singular_atoms=((0.5, 0.2), (2.5, 1.0), (4.5, 0.05))), 16),
        (InnerFunction(singular_atoms=((1.0, 0.01),)), 6),
    ],
    ids=["blaschke", "blaschke-capped", "three-atoms", "light-atom"],
)
def test_level_sets_solve_the_reference_targets(monkeypatch, theta: InnerFunction, cap: int) -> None:
    seen = []

    def recording(theta, lo, hi, cells, arc, targets):
        seen.append((arc, targets))
        return _solve(theta, lo, hi, cells, arc, targets)

    monkeypatch.setattr(clark, "_solve", recording)
    alphas = [cmath.exp(2j * math.pi * l / 8) for l in range(1, 9)]
    families = level_sets(theta, alphas, cap)
    monkeypatch.undo()
    lo, hi = _level_arcs(theta, cap)
    v0, v1 = np.split(boundary_argument(theta, np.concatenate([lo, hi])), 2)
    phases = np.array([cmath.phase(alpha) for alpha in alphas])
    full_circle = not theta.singular_atoms
    t, arc, _, capped = level_targets_reference(v0, v1, phases, full_circle, cap)
    assert np.array_equal(seen[-1][0], arc) and np.array_equal(seen[-1][1], t)
    assert [fam.truncated for fam in families] == [not full_circle or c for c in capped]


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
            a = sorted(fam_a.points)
            b = sorted(fam_b.points)
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
    angles = sorted(fam.points)
    for k in range(len(angles)):
        lo = angles[k]
        hi = angles[(k + 1) % len(angles)]
        if k + 1 == len(angles):
            hi += TWO_PI
        mass = simpson_fixed(
            lambda t: boundary_rate_oracle(theta, t) / TWO_PI,
            lo,
            hi,
            2048,
        )
        assert abs(mass - 1.0) <= 1e-8


def test_clark_gram_is_identity() -> None:
    rng = np.random.default_rng(43)
    theta = random_blaschke(rng, 5)
    fam = level_set(theta, 1j)
    seq = PointSequence.from_angles(fam.points)
    off = np.max(np.abs(library_gram(theta, seq) - np.eye(len(fam))))
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
            a * abs(f(cmath.exp(1j * t))) ** 2 for a, t in zip(fam.weights, fam.points)
        )
        assert abs(discrete - norm_sq) <= 1e-8 * norm_sq


# ---------------------------------------------------------------------------
# Herglotz residual
# ---------------------------------------------------------------------------

def test_herglotz_center_value() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    assert herglotz_residuals(z3, fam, np.zeros(1))[0] <= 1e-14


def test_herglotz_interior_point() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    assert herglotz_residuals(z3, fam, np.array([0.5]))[0] <= 1e-10


def test_herglotz_blaschke_pair() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    fam = level_set(theta, 1.0)
    assert herglotz_residuals(theta, fam, np.array([0.3j]))[0] <= 1e-8


def test_herglotz_needs_interior_point() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    fam = level_set(z2, 1.0)
    with pytest.raises(NumericDomainError):
        herglotz_residuals(z2, fam, np.array([0.1, cmath.exp(0.5j)]))


def _assert_light_atom_family(atom: float, mass: float) -> None:
    theta = InnerFunction(blaschke_zeros=(0.3,), singular_atoms=((atom, mass),))
    fam = level_set(theta, 1.0, max_points_per_arc=24)
    assert fam.truncated and 1 <= len(fam) <= 24
    angles = fam.points
    assert np.min(np.abs(angles - atom)) > 1e-12
    residual = np.abs(blaschke_values_on_circle(theta, angles) - 1.0)
    # the residual is floored by the rate times one ulp of angle
    floor = 8.0 * boundary_rate_oracle(theta, angles) * 2.3e-16
    assert np.all(residual <= np.maximum(1e-10, floor))


@pytest.mark.parametrize("mass", [10.0 ** -e for e in range(3, 14)])
def test_level_set_next_to_a_light_atom(mass: float) -> None:
    # next to a light atom Phi reaches the trim budget only within 1e-12 of
    # it; the cut keeps its clearance, so the arc ends there with fewer
    # points, still truncated, and no point sits on the atom
    _assert_light_atom_family(1.0, mass)


@pytest.mark.parametrize("mass", [10.0 ** -e for e in range(3, 14)])
def test_level_set_roots_past_two_pi_next_to_a_light_atom(mass: float) -> None:
    # the roots on the far end of the arc, past 2*pi, have ulps of 8.9e-16,
    # while the level check allows about two ulps of the wrapped angle near
    # 0.9: brackets closed at four ulps miss it here for four of the masses
    _assert_light_atom_family(0.9, mass)


def test_truncated_atomic_family_flagged() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    fam = level_set(theta, 1.0, max_points_per_arc=64)
    assert fam.truncated
    assert len(fam) <= 64
    assert np.max(np.abs(blaschke_values_on_circle(theta, fam.points) - 1.0)) <= 1e-9
    # residual is returned but does not certify for a truncated family
    res = herglotz_residuals(theta, fam, np.array([0.2]))
    assert np.isfinite(res).all()


# ---------------------------------------------------------------------------
# stability
# ---------------------------------------------------------------------------

def _square_margins(theta: InnerFunction, seq: PointSequence) -> list[float]:
    """Each point's stability margin |lambda - tau| |Theta'(tau)| against the
    anchor tau of its Carleson square, at one level (alpha = 1), by id."""
    partition = decompose_by_squares(theta, seq, 1)
    margins = dict(zip(seq.ids[partition.members].tolist(), partition.margins.tolist()))
    return [margins[k] for k in seq.ids.tolist()]


def test_stability_margin_zero_for_exact_family() -> None:
    z4 = InnerFunction(blaschke_zeros=(0,) * 4)
    fam = level_set(z4, 1.0)
    seq = PointSequence.from_angles(fam.points)
    assert _square_margins(z4, seq) == pytest.approx([0.0] * 4, abs=1e-12)


def test_stability_margin_angular_shift() -> None:
    # each point t/n before its level point stays in the square that point anchors
    n = 8
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    fam = level_set(zn, 1.0)
    t = 0.1
    seq = PointSequence.from_angles(fam.points - t / n)
    margins = _square_margins(zn, seq)
    expect = abs(cmath.exp(1j * t / n) - 1.0) * n
    assert margins == pytest.approx([expect] * n, rel=1e-12)
    assert expect == pytest.approx(t, rel=1e-3)


def test_stability_margin_radial_move() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    fam = level_set(z3, 1.0)
    s = 0.05
    pts = (1 - s) * np.exp(1j * fam.points)
    margins = _square_margins(z3, PointSequence.from_complex(pts))
    assert margins == pytest.approx([s * 3.0] * 3, rel=1e-12)
