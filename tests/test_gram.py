import cmath
import importlib
import math

import numpy as np
import pytest

from conftest import (
    eig_extremes_oracle,
    gram_oracle,
    hankel_section_oracle,
    normalized_gram_exact,
    random_blaschke,
)

from mslab.errors import NumericDomainError, OnSpectrumError
from mslab.gram import (
    FrameBounds,
    GramMatrix,
    extremal_eigs,
    gram,
    gram_from_values,
    hankel_distance_lb,
    part_frame_bounds,
    section_frame_bounds,
)
from mslab.inner import InnerFunction, normalized_values
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


def _random_gram(rng: np.random.Generator, n: int) -> GramMatrix:
    """The Gram matrix of n random unit vectors of C^n: Hermitian, unit diagonal."""
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    a = v.conj() @ v.T
    a = (a + a.conj().T) / 2.0
    np.fill_diagonal(a, 1.0)
    return GramMatrix(a, tuple(range(n)))


def _frame_bounds(theta: InnerFunction, seq: PointSequence) -> FrameBounds:
    """A sequence's frame bounds by the route ``section_frame_bounds`` picks."""
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    return section_frame_bounds(theta, seq.z, values, norms, seq.ids)


def _clark_points(n: int) -> PointSequence:
    return PointSequence.from_angles([TWO_PI * k / n for k in range(n)])


# ---------------------------------------------------------------------------
# gram assembly
# ---------------------------------------------------------------------------

def test_gram_identity_for_cube_roots() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    g = gram(z3, _clark_points(3))
    assert np.max(np.abs(g.entries - np.eye(3))) <= 1e-12


def test_gram_singleton() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    g = gram(z2, PointSequence.from_complex([0.2 + 0.1j]))
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == pytest.approx(1.0)


def test_gram_example_entry() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    g = gram(z2, PointSequence.from_complex([0.0, 0.5]))
    assert g.entries[0, 1] == pytest.approx(1.0 / math.sqrt(1.25))


def test_gram_unusable_norm_names_the_point() -> None:
    constant = InnerFunction()  # identically 1, kernels vanish
    with pytest.raises(NumericDomainError, match="point 0"):
        gram(constant, PointSequence.from_complex([0.3]))


def _oracle_corpus(rng: np.random.Generator, n: int) -> PointSequence:
    """Interior points, a few at 1 - |z| = 1e-9, and boundary points, pairwise apart."""
    angles = TWO_PI * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
    radii = 0.95 * np.sqrt(rng.uniform(size=n))
    radii[::7] = 1.0 - 1e-9
    tags = np.full(n, math.nan)
    tags[5::11] = angles[5::11]
    return PointSequence.from_mixed(radii * np.exp(1j * angles), tags)


@pytest.mark.parametrize("n", [1, 2, 97, 256, 300])
def test_gram_matches_independent_oracle(n: int) -> None:
    rng = np.random.default_rng(n)
    theta = InnerFunction(
        blaschke_zeros=(0.0,) + random_blaschke(rng, 5).blaschke_zeros,
        singular_atoms=((0.05, 0.4), (3.3, 1.1)),
    )
    seq = _oracle_corpus(rng, n)
    g = gram(theta, seq).entries
    assert np.max(np.abs(g - gram_oracle(theta, seq))) <= 1e-12
    assert np.array_equal(g, g.conj().T)


def test_part_frame_bounds_match_one_section_at_a_time() -> None:
    rng = np.random.default_rng(83)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 4).blaschke_zeros, singular_atoms=((1.0, 0.5),)
    )
    seq = _oracle_corpus(rng, 1200)
    order = rng.permutation(len(seq))
    # 25 parts of 40 points fill two stacks; then pairs, singletons and one of 3
    cuts = [40 * k for k in range(26)] + [1000 + 2 * k for k in range(1, 80)] + [1197, 1200]
    parts = [np.sort(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    bounds = part_frame_bounds(seq.z, values, norms, seq.ids, parts)
    for idx, fb in zip(parts, bounds):
        want = extremal_eigs(gram(theta, seq.subset(idx)))
        assert fb.n == want.n == len(idx)
        assert fb.lambda_min == pytest.approx(want.lambda_min, rel=1e-9, abs=1e-12)
        assert fb.lambda_max == pytest.approx(want.lambda_max, rel=1e-12)


def test_gram_inseparable_pair_names_both_points() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    seq = PointSequence.from_mixed([0.2, 0, 0], [math.nan, 0.5, 0.5 + 2e-15], ids=(7, 3, 9))
    with pytest.raises(NumericDomainError, match="points 3 and 9 are numerically inseparable"):
        gram(theta, seq)
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    with pytest.raises(NumericDomainError, match="points 3 and 9 are numerically inseparable"):
        part_frame_bounds(seq.z, values, norms, seq.ids, [np.array([0]), np.array([1, 2])])
    # the pair in different parts is no error
    bounds = part_frame_bounds(seq.z, values, norms, seq.ids, [np.array([0, 1]), np.array([2])])
    assert bounds[1] == FrameBounds(1.0, 1.0, 1)


def test_gram_names_the_point_on_an_atom() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3,), singular_atoms=((1.0, 0.5),))
    seq = PointSequence.from_mixed([0.2, 0, 0], [math.nan, 2.0, 1.0], ids=(4, 5, 6))
    with pytest.raises(OnSpectrumError, match="point 6: "):
        gram(theta, seq)


def test_gram_from_values_unusable_norm_names_the_point() -> None:
    z = np.array([0.1, 0.2, 0.3], dtype=complex)
    values = np.zeros(3, dtype=complex)
    with pytest.raises(NumericDomainError, match="point 12 has unusable"):
        gram_from_values(z, values, np.array([1.0, 1.0, math.inf]), (10, 11, 12))
    with pytest.raises(NumericDomainError, match="point 11 has unusable"):
        gram_from_values(z, values, np.array([1.0, -0.0, 1.0]), (10, 11, 12))


def test_gram_matrix_validation() -> None:
    bad = np.array([[1.0, 0.5], [0.4, 1.0]], dtype=np.complex128)
    with pytest.raises(NumericDomainError):
        GramMatrix(bad, (0, 1))


# ---------------------------------------------------------------------------
# extremal eigenvalues
# ---------------------------------------------------------------------------

def test_eigs_identity() -> None:
    fb = extremal_eigs(GramMatrix(np.eye(5, dtype=np.complex128), tuple(range(5))))
    assert fb == FrameBounds(1.0, 1.0, 5)


def test_eigs_two_by_two_closed_form() -> None:
    for g_off in (0.1, 0.45, 0.894427190999916):
        m = np.array([[1.0, g_off], [g_off, 1.0]], dtype=np.complex128)
        fb = extremal_eigs(GramMatrix(m, (0, 1)))
        assert fb.lambda_min == pytest.approx(1.0 - g_off, rel=1e-12)
        assert fb.lambda_max == pytest.approx(1.0 + g_off, rel=1e-12)


def test_eigs_match_numpy_oracle() -> None:
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 5, 8, 13, 21, 40):
        a = _random_gram(rng, n)
        lo, hi = eig_extremes_oracle(a.entries)
        fb = extremal_eigs(a)
        scale = max(1.0, abs(lo), abs(hi))
        assert abs(fb.lambda_min - lo) <= 1e-10 * scale
        assert abs(fb.lambda_max - hi) <= 1e-10 * scale


def test_eigs_reject_non_finite() -> None:
    # NaN passes GramMatrix's tolerance checks; LAPACK would return NaN bounds
    a = np.eye(2, dtype=np.complex128)
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(NumericDomainError):
        extremal_eigs(GramMatrix(a, (0, 1)))


def test_eigs_large_section_spike() -> None:
    n = 600
    rng = np.random.default_rng(15)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.abs(v)  # unimodular entries: v v* has unit diagonal
    # (1 - c) I + c v v* has unit diagonal and top eigenvalue 1 - c + c n
    spike = 3.0
    c = spike / n
    a = (1.0 - c) * np.eye(n, dtype=np.complex128) + c * np.outer(v, v.conj())
    a = (a + a.conj().T) / 2.0
    np.fill_diagonal(a, 1.0)
    fb = extremal_eigs(GramMatrix(a, tuple(range(n))))
    assert fb.lambda_max == pytest.approx(1.0 - c + spike, rel=1e-9)
    assert fb.lambda_min == pytest.approx(1.0 - c, rel=1e-9)


def test_eigs_singular_large_section_not_certified() -> None:
    # 520 points against a degree-5 Theta: the section has rank <= 5, so a
    # lambda_min above the rounding floor would be a false Riesz certificate
    rng = np.random.default_rng(7)
    theta = random_blaschke(rng, 5)
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 520))
    angles = rng.uniform(0.0, TWO_PI, 520)
    seq = PointSequence.from_complex(radii * np.exp(1j * angles))
    fb = extremal_eigs(gram(theta, seq))
    assert fb.lambda_min <= fb.n * np.finfo(float).eps * fb.lambda_max


def test_interlacing_under_point_addition() -> None:
    rng = np.random.default_rng(13)
    theta = random_blaschke(rng, 4)
    pts = [
        0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(8)
    ]
    seq_small = PointSequence.from_complex(pts[:-1])
    seq_big = PointSequence.from_complex(pts)
    small = extremal_eigs(gram(theta, seq_small))
    big = extremal_eigs(gram(theta, seq_big))
    assert big.lambda_min <= small.lambda_min + 1e-10
    assert big.lambda_max >= small.lambda_max - 1e-10


def test_frame_operator_subadditivity() -> None:
    rng = np.random.default_rng(14)
    theta = random_blaschke(rng, 3)
    pts = [
        0.85 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(10)
    ]
    union = PointSequence.from_complex(pts)
    first = union.subset(np.arange(5))
    second = union.subset(np.arange(5, 10))
    lam_union = extremal_eigs(gram(theta, union)).lambda_max
    lam_1 = extremal_eigs(gram(theta, first)).lambda_max
    lam_2 = extremal_eigs(gram(theta, second)).lambda_max
    assert lam_union <= lam_1 + lam_2 + 1e-10


# ---------------------------------------------------------------------------
# the two routes of section_frame_bounds
# ---------------------------------------------------------------------------

_ROUTE_CASES = [f"degree {d}" for d in range(1, 9)] + [
    "degree 200, 260 points",
    "degree 500, 520 points",
    "zeros at 0",
    "boundary points",
]


def _route_case(name: str) -> tuple[InnerFunction, PointSequence]:
    """A Blaschke product of degree d and n > d points in |z| <= 0.9 or on the circle."""
    rng = np.random.default_rng(_ROUTE_CASES.index(name) + 31)
    if name == "degree 200, 260 points":
        theta, n = random_blaschke(rng, 200), 260
    elif name == "degree 500, 520 points":
        theta, n = random_blaschke(rng, 500), 520
    elif name == "zeros at 0":
        theta, n = InnerFunction((0, 0, 0) + random_blaschke(rng, 3).blaschke_zeros), 20
    elif name == "boundary points":
        theta, n = random_blaschke(rng, 4), 30
    else:
        degree = int(name.split()[1])
        theta, n = random_blaschke(rng, degree), degree + 1 + int(rng.integers(0, 40))
    radii = 0.9 * np.sqrt(rng.uniform(size=n))
    angles = rng.uniform(0.0, TWO_PI, n)
    tags = np.full(n, math.nan)
    if name == "boundary points":
        tags[::3] = angles[::3]
    return theta, PointSequence.from_mixed(radii * np.exp(1j * angles), tags)


def _routes(theta: InnerFunction, seq: PointSequence) -> tuple:
    """(factored, dense) frame bounds, or the messages of their refusals."""
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    return _both(theta, seq.z, values, norms, seq.ids)


def _both(theta, z, values, norms, ids) -> tuple:
    out = []
    for route in (section_frame_bounds, lambda _t, *args: extremal_eigs(gram_from_values(*args))):
        try:
            out.append(route(theta, z, values, norms, ids))
        except NumericDomainError as exc:
            out.append(str(exc))
    return tuple(out)


@pytest.mark.parametrize("name", _ROUTE_CASES)
def test_factored_route_matches_the_dense_route(name: str) -> None:
    theta, seq = _route_case(name)
    factored, dense = _routes(theta, seq)
    assert factored.n == dense.n == len(seq) > theta.degree
    assert factored.lambda_min == 0.0  # by rank
    assert dense.lambda_min <= len(seq) * np.finfo(float).eps * dense.lambda_max
    assert abs(factored.lambda_max - dense.lambda_max) <= 1e-13 * dense.lambda_max


def test_frame_bounds_next_to_zeros_at_the_circle_match_exact_rationals() -> None:
    # 1 - conj(Theta(l_j)) Theta(l_i) cancels as |Theta| -> 1: the assembled
    # section gave lambda_min = -7.7e-4 and lambda_max 1.2e-4 off here
    zeros = tuple((1.0 - 1e-12) * cmath.exp(1j * a) for a in (0.3, 2.0, 4.1))
    theta = InnerFunction(blaschke_zeros=zeros)
    rng = np.random.default_rng(5)
    pts = [
        0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        for _ in range(20)
    ]
    seq = PointSequence.from_complex(pts)
    lo, hi = eig_extremes_oracle(normalized_gram_exact(zeros, pts))
    assert abs(lo) <= 20 * np.finfo(float).eps * hi
    fb = _frame_bounds(theta, seq)
    assert fb.verdict_at(1e-3) == "indeterminate"
    assert fb.lambda_min == 0.0
    assert abs(fb.lambda_max - hi) <= 1e-13 * hi


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_factored_rows_stay_unit_next_to_zeros_at_the_circle(gap: float) -> None:
    # points next to each zero: inside, at the edge 1 - |z| < 1e-12 and on
    # the circle.  Each row of V must have unit norm to 1e-12, or the route
    # refuses; 1 - conj(a) z formed by plain subtraction inside, or off the
    # circle at boundary points, was up to 7e-4 off
    angles = (0.4, 2.5, 4.1)
    theta = InnerFunction(blaschke_zeros=tuple((1.0 - gap) * cmath.exp(1j * a) for a in angles))
    inside = [
        (1.0 - depth) * cmath.exp(1j * (a + da))
        for a in angles
        for depth in (1e-3, 2e-6, 2e-9, 2e-12, 1e-13)
        for da in (0.0, 1e-7, 1e-3)
    ]
    on = [a + da for a in angles for da in (1e-9, 1e-5, 0.1)]
    pts = inside + [0j] * len(on)
    seq = PointSequence.from_mixed(pts, [math.nan] * len(inside) + on)
    assert 1.0 <= _frame_bounds(theta, seq).lambda_max <= len(pts)


def test_factored_route_refuses_as_the_dense_route_does() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    seq = PointSequence.from_mixed(
        [0.2, 0, 0, -0.4 + 0.3j, 0, 0],
        [math.nan, 2.0, 1.0, math.nan, 2.0 + 2e-15, 1.0 + 2e-15],
        ids=(4, 5, 8, 0, 2, 9),
    )
    z = seq.z
    values, norms = normalized_values(theta, z, seq.angle, seq.ids)
    # two inseparable pairs: both routes name the first, in row order
    assert _both(theta, z, values, norms, seq.ids) == ("points 5 and 2 are numerically inseparable",) * 2
    keep = [0, 1, 2, 3]
    z, values, norms, ids = z[keep], values[keep], norms[keep], [seq.ids[k] for k in keep]
    bad = norms.copy()
    bad[2] = 0.0
    assert _both(theta, z, values, bad, ids) == ("point 8 has unusable kernel norm squared 0.0",) * 2
    bad = values.copy()
    bad[1] = math.nan
    assert _both(theta, z, bad, norms, ids) == ("eigenvalue input has non-finite entries",) * 2
    factored, dense = _both(theta, z, values, norms, ids)
    assert factored.lambda_min == 0.0
    assert factored.lambda_max == pytest.approx(dense.lambda_max, rel=1e-13)
    # a norm that does not belong to its point leaves a row of V off the unit sphere
    bad = norms.copy()
    bad[3] *= 1.01
    with pytest.raises(NumericDomainError, match="unit diagonal: point 0 has"):
        section_frame_bounds(theta, z, values, bad, ids)


def test_sections_with_atoms_or_few_points_take_the_dense_route(monkeypatch) -> None:
    def factored(*args):
        raise AssertionError("the factored route was taken")

    monkeypatch.setattr(importlib.import_module("mslab.gram"), "_factored_gram", factored)
    rng = np.random.default_rng(41)
    theta = random_blaschke(rng, 5)
    atoms = InnerFunction(theta.blaschke_zeros, singular_atoms=((1.0, 0.5),))
    for th, n in ((theta, 5), (atoms, 12)):
        seq = _oracle_corpus(rng, n)
        values, norms = normalized_values(th, seq.z, seq.angle)
        fb = section_frame_bounds(th, seq.z, values, norms, seq.ids)
        assert fb == extremal_eigs(gram(th, seq))


# ---------------------------------------------------------------------------
# verdicts and Bessel estimates
# ---------------------------------------------------------------------------

def test_certificate_soundness_clark_family() -> None:
    z6 = InnerFunction(blaschke_zeros=(0,) * 6)
    fb = _frame_bounds(z6, _clark_points(6))
    assert fb.verdict_at(0.99) == "certified_riesz"
    assert fb.lambda_min == pytest.approx(1.0, abs=1e-12)
    assert fb.lambda_max == pytest.approx(1.0, abs=1e-12)


def test_verdict_indeterminate_for_close_pair() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    seq = PointSequence.from_complex([0.4, 0.4 + 1e-6])
    fb = _frame_bounds(z2, seq)
    assert fb.verdict_at(0.1) == "indeterminate"
    assert fb.lambda_min < 0.1


def test_verdict_empty_rejected() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    with pytest.raises(NumericDomainError):
        gram(z2, PointSequence((), (), ()))


def test_bessel_estimate_orthonormal() -> None:
    z4 = InnerFunction(blaschke_zeros=(0,) * 4)
    assert _frame_bounds(z4, _clark_points(4)).lambda_max == pytest.approx(1.0)


def test_bessel_estimate_near_duplicate_pair() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    est = _frame_bounds(z2, PointSequence.from_complex([0.3, 0.3 + 1e-7])).lambda_max
    assert est == pytest.approx(2.0, abs=1e-4)


def test_bessel_estimate_interleaved_clark_families() -> None:
    n = 6
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    first = [TWO_PI * k / n for k in range(n)]
    second = [(TWO_PI * k + math.pi / n) / n for k in range(n)]
    seq = PointSequence.from_angles(first + second)
    est = _frame_bounds(zn, seq).lambda_max
    oracle = eig_extremes_oracle(gram(zn, seq).entries)[1]
    assert est == pytest.approx(oracle, rel=1e-10)
    assert 1.0 < est <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# Hankel lower bound
# ---------------------------------------------------------------------------

def test_hankel_symbol_in_hardy_space_gives_zero() -> None:
    zeros = (0.3, -0.4j)
    theta = InnerFunction(blaschke_zeros=zeros)
    seq = PointSequence.from_complex(list(zeros))
    assert hankel_distance_lb(theta, seq, 8) <= 1e-12


def test_hankel_conjugate_z() -> None:
    # constant symbol against the Blaschke factor z: u = conj(z)
    seq = PointSequence.from_complex([0.0])
    for n in (1, 3, 6):
        assert hankel_distance_lb(InnerFunction(), seq, n) == pytest.approx(1.0)


def test_hankel_monotone_in_section_size() -> None:
    theta = InnerFunction(blaschke_zeros=(0, 0))
    seq = PointSequence.from_complex([0.5])
    values = [hankel_distance_lb(theta, seq, n) for n in (1, 2, 4, 8, 16)]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-9


def _lawson_sup_distance(u: np.ndarray, z: np.ndarray, degree: int, iters: int = 200) -> float:
    """Minimax distance of boundary samples u to polynomials of degree <= degree.

    Lawson's iteratively reweighted least squares; returns the achieved
    sup-norm, an upper bound for dist(u, H^inf).
    """
    vander = np.vander(z, degree + 1, increasing=True)
    weights = np.ones(len(z)) / len(z)
    best = math.inf
    for _ in range(iters):
        w = np.sqrt(weights)
        coeffs, *_ = np.linalg.lstsq(vander * w[:, None], u * w, rcond=None)
        resid = np.abs(u - vander @ coeffs)
        best = min(best, float(np.max(resid)))
        weights = weights * resid
        total = np.sum(weights)
        if total <= 0:
            break
        weights = weights / total
    return best


def test_hankel_lower_bound_against_minimax_oracle() -> None:
    theta = InnerFunction(blaschke_zeros=(0, 0))  # z^2
    seq = PointSequence.from_complex([0.5])
    bound = hankel_distance_lb(theta, seq, 24)
    angles = TWO_PI * np.arange(2**12) / 2**12
    z = np.exp(1j * angles)
    b = (0.5 - z) / (1.0 - 0.5 * z)
    u = z**2 * np.conj(b)
    oracle = _lawson_sup_distance(u, z, 30)
    assert bound <= oracle + 1e-3


def test_hankel_rejects_boundary_points() -> None:
    theta = InnerFunction(blaschke_zeros=(0,))
    with pytest.raises(NumericDomainError):
        hankel_distance_lb(theta, PointSequence.from_angles([0.3]), 2)


@pytest.mark.parametrize(
    "case",
    ["z2", "atom on a node", "atoms and zeros"],
)
def test_hankel_matches_pointwise_oracle(case: str) -> None:
    if case == "z2":
        theta, points, n = InnerFunction(blaschke_zeros=(0, 0)), [0.5], 6
    elif case == "atom on a node":  # the grid of test_hankel_atom_grid_offset
        theta, points, n = InnerFunction(singular_atoms=((0.0, 0.8),)), [0.4], 4
    else:
        rng = np.random.default_rng(89)
        theta = InnerFunction(
            blaschke_zeros=random_blaschke(rng, 3).blaschke_zeros,
            singular_atoms=((TWO_PI * 5 / 128, 0.3), (2.0, 0.6)),
        )
        points, n = [0.3 + 0.2j, -0.5j, 0.0], 16
    bound = hankel_distance_lb(theta, PointSequence.from_complex(points), n)
    assert bound == pytest.approx(hankel_section_oracle(theta, points, n), abs=1e-12)


def test_hankel_atom_grid_offset() -> None:
    # atom exactly on a would-be grid node: the grid shifts, result stays finite
    theta = InnerFunction(singular_atoms=((0.0, 0.8),))
    seq = PointSequence.from_complex([0.4])
    val = hankel_distance_lb(theta, seq, 4)
    assert 0.0 <= val <= 1.0 + 1e-9
