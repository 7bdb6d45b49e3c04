import cmath
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import (
    blaschke_values,
    blaschke_values_on_circle,
    boundary_rate_exact,
    boundary_rate_oracle,
    kernel_norm_sq_exact,
    kernel_norm_sq_oracle,
    library_gram,
    modulus_sq_exact,
    normalize_angle,
    random_blaschke,
)

from mslab import cli
from mslab.errors import ConfigError, OnSpectrumError
from mslab.gram import _sections
from mslab.inner import (
    InnerFunction,
    _log_modulus_sq,
    _one_minus_modulus_sq,
    argument_and_rate,
    boundary_argument,
    eval_points,
    normalized_values,
    spectrum_distance,
)
from mslab.points import ANGLE_TOL, PointSequence

TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_invalid_zero_rejected() -> None:
    with pytest.raises(ConfigError):
        InnerFunction(blaschke_zeros=(1.0,))


def test_invalid_atom_rejected() -> None:
    with pytest.raises(ConfigError):
        InnerFunction(singular_atoms=((0.0, -1.0),))
    with pytest.raises(ConfigError):
        InnerFunction(singular_atoms=((0.0, 1.0), (2 * math.pi, 0.5)))


def test_json_round_trip() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3 + 0.1j, -0.0j), singular_atoms=((1.0, 0.25),))
    config = {
        "blaschke_zeros": [[z.real, z.imag] for z in theta.blaschke_zeros],
        "singular_atoms": [{"angle": a, "mass": m} for a, m in theta.singular_atoms],
    }
    assert cli._parse_inner(config) == theta
    assert cli._parse_inner({}) == InnerFunction()
    # angles are stored in [0, 2 pi)
    wrapped = cli._parse_inner({"singular_atoms": [{"angle": 1.0 + 2 * math.pi, "mass": 1}]})
    assert wrapped.singular_atoms[0][0] == pytest.approx(1.0, abs=1e-15)


def test_atom_distinctness_is_the_pairwise_rule() -> None:
    # the sorted-gap check refuses exactly the sets with a pair
    # min(d, 2 pi - d) <= ANGLE_TOL, d = |a_i - a_j| of the reduced angles
    rng = np.random.default_rng(19)
    cases = [
        [0.0, 2 * math.pi - ANGLE_TOL],
        [0.0, 2 * math.pi - 2 * ANGLE_TOL],
        [1.0, 1.0 + ANGLE_TOL],
        [1.0, 1.0 + 2 * ANGLE_TOL],
        [-ANGLE_TOL / 2, ANGLE_TOL / 2, 3.0],
    ]
    for _ in range(300):
        angles = rng.uniform(-10.0, 10.0, rng.integers(2, 6))
        near = rng.integers(len(angles))
        angles[near - 1] = angles[near] + rng.choice([-1, 1]) * rng.uniform(0, 3) * ANGLE_TOL
        if rng.uniform() < 0.5:
            angles[near - 1] += 2 * math.pi * rng.choice([-1, 1])
        cases.append(angles.tolist())
    refused = 0
    for angles in cases:
        reduced = [normalize_angle(a) for a in angles]
        clash = any(
            min(abs(a - b), 2 * math.pi - abs(a - b)) <= ANGLE_TOL
            for i, a in enumerate(reduced)
            for b in reduced[i + 1 :]
        )
        atoms = tuple((a, 1.0) for a in angles)
        if clash:
            refused += 1
            with pytest.raises(ConfigError, match="pairwise distinct"):
                InnerFunction(singular_atoms=atoms)
        else:
            assert [a for a, _ in InnerFunction(singular_atoms=atoms).singular_atoms] == reduced
    assert 50 < refused < len(cases) - 50


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_single_zero_at_origin() -> None:
    theta = InnerFunction(blaschke_zeros=(0,))
    assert eval_points(theta, np.array([0.5]))[0][0] == pytest.approx(0.5)


def test_eval_blaschke_factor_at_zero() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    assert eval_points(theta, np.array([0.0]))[0][0] == pytest.approx(0.5)


def test_eval_atomic_factor() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    assert eval_points(theta, np.array([-0.5]))[0][0] == pytest.approx(math.exp(-1.0 / 3.0))


def test_eval_at_atom_is_on_spectrum() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    with pytest.raises(OnSpectrumError):
        eval_points(theta, np.array([1.0]))


def test_modulus_contract() -> None:
    rng = np.random.default_rng(7)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 4).blaschke_zeros,
        singular_atoms=((2.0, 0.4),),
    )
    z = 0.95 * np.sqrt(rng.uniform(size=50)) * np.exp(1j * rng.uniform(0, TWO_PI, 50))
    assert np.all(np.abs(eval_points(theta, z)[0]) < 1.0)
    ang = rng.uniform(0, TWO_PI, 50)
    ang = ang[np.abs(ang - 2.0) >= 1e-3]
    assert np.all(np.abs(np.abs(eval_points(theta, np.exp(1j * ang))[0]) - 1.0) <= 1e-12)


# ---------------------------------------------------------------------------
# kernel and norms
# ---------------------------------------------------------------------------

def _kernels(theta: InnerFunction, seq: PointSequence) -> np.ndarray:
    """K[i, j] = k_{l_j}(l_i): the Gram section times the kernel norms."""
    _, norms = normalized_values(theta, seq.z, seq.angle)
    root = np.sqrt(norms)
    return library_gram(theta, seq) * root[:, None] * root


def test_kernel_example_z2() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    assert _kernels(z2, PointSequence.from_complex([0.5, -0.2j]))[0, 0] == pytest.approx(1.25)


def test_kernel_constant_one_when_theta_vanishes_at_zero() -> None:
    theta = InnerFunction(blaschke_zeros=(0, 0.3 + 0.2j))
    k = _kernels(theta, PointSequence.from_complex([0.0, 0.37 - 0.11j]))
    assert k[0, 0] == pytest.approx(1.0)
    # k_0 is identically 1: reproducing element of the constants
    assert k[1, 0] == pytest.approx(1.0)


def test_kernel_clark_orthogonality_cube_roots() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    k = _kernels(z3, PointSequence.from_angles([0.0, TWO_PI / 3.0]))
    assert abs(k[1, 0]) <= 1e-12


def test_kernel_diagonal_matches_norm_exactly() -> None:
    # the normalized section's diagonal is the norm over itself: 1 exactly
    rng = np.random.default_rng(11)
    theta = random_blaschke(rng, 6)
    lam = 0.95 * np.sqrt(rng.uniform(size=20)) * np.exp(1j * rng.uniform(0, TWO_PI, 20))
    assert np.all(library_gram(theta, PointSequence.from_complex(lam)).diagonal() == 1.0)


def test_norm_example_z2_with_quadrature_oracle() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    lam = 0.5
    norm = float(normalized_values(z2, np.array([lam]), np.array([math.nan]))[1][0])
    assert norm == pytest.approx(1.25)
    # oracle: mean of |k_lam|^2 over 2^14 uniform boundary nodes
    angles = TWO_PI * np.arange(2**14) / 2**14
    z = np.exp(1j * angles)
    k = (1.0 - np.conj(lam**2) * z**2) / (1.0 - lam * z)
    quad = float(np.mean(np.abs(k) ** 2))
    assert abs(quad - norm) <= 1e-8


def test_norm_is_one_at_origin_when_theta_vanishes() -> None:
    theta = InnerFunction(blaschke_zeros=(0, 0.4))
    assert normalized_values(theta, np.zeros(1), np.array([math.nan]))[1][0] == pytest.approx(1.0)


def test_norm_boundary_power() -> None:
    z4 = InnerFunction(blaschke_zeros=(0,) * 4)
    seq = PointSequence.from_angles([1.3])
    assert normalized_values(z4, seq.z, seq.angle)[1][0] == pytest.approx(4.0)


def test_norm_error_on_atom() -> None:
    theta = InnerFunction(singular_atoms=((1.0, 0.5),))
    seq = PointSequence.from_angles([1.0])
    with pytest.raises(OnSpectrumError):
        normalized_values(theta, seq.z, seq.angle)


def _assert_log_modulus_is_exact(theta: InnerFunction, points: list) -> None:
    """``_log_modulus_sq`` S against exact rationals: exp(S) = |Theta|^2 and
    -expm1(S) = 1 - |Theta|^2, each to 1e-13 relative."""
    z = np.array(points)
    log_mod_sq = _log_modulus_sq(theta._terms, z, _one_minus_modulus_sq(z))
    for w, s in zip(points, log_mod_sq.tolist()):
        exact = modulus_sq_exact(theta.blaschke_zeros, w)
        assert abs(math.exp(s) - exact) <= 1e-13 * exact
        assert abs(-math.expm1(s) - (1 - exact)) <= 1e-13 * (1 - exact)


def test_norm_keeps_its_digits_near_the_circle() -> None:
    # against exact rational arithmetic; 1 - |Theta|^2 by subtraction was
    # 2.4e-5 off at 1 - |z| = 5e-12
    rng = np.random.default_rng(5)
    zeros = (0.0,) + random_blaschke(rng, 7, rmax=0.9).blaschke_zeros
    theta = InnerFunction(blaschke_zeros=zeros)
    points = [
        (1.0 - gap) * cmath.exp(1j * angle)
        for gap in (1e-2, 1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-11, 5e-12)
        for angle in (0.3, 2.1, 4.4)
    ]
    _, norms = normalized_values(theta, np.array(points), np.full(len(points), math.nan))
    for z, array_norm in zip(points, norms):
        exact = kernel_norm_sq_exact(zeros, z)
        assert abs(float(array_norm) - exact) <= 1e-13 * exact
    _assert_log_modulus_is_exact(theta, points)


def _zeros_at_the_circle(gap: float) -> tuple[complex, ...]:
    return tuple((1.0 - gap) * cmath.exp(1j * a) for a in (0.4, 2.5, 4.1))


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_norm_keeps_its_digits_next_to_zeros_at_the_circle(gap: float) -> None:
    # against exact rational arithmetic; a weight 1 - |eta|^2 taken from the
    # rounded |eta| put the norms 1.1e-5 off at gap 1e-12, 5.8e-9 at 1e-9
    # and 1.7e-11 at 1e-6.  The last two points sit next to zeros, where
    # 1 - conj(eta) z must be formed without cancellation
    zeros = _zeros_at_the_circle(gap)
    theta = InnerFunction(blaschke_zeros=zeros)
    points = [
        0.3 + 0.2j,
        -0.6j,
        0.85 * cmath.exp(2.45j),
        (1.0 - 3.0 * gap) * cmath.exp(1j * (0.4 + gap)),
        (1.0 - 10.0 * gap) * cmath.exp(4.1j),
    ]
    _, norms = normalized_values(theta, np.array(points), np.full(len(points), math.nan))
    for z, norm in zip(points, norms):
        exact = kernel_norm_sq_exact(zeros, z)
        assert abs(float(norm) - exact) <= 1e-13 * exact
    _assert_log_modulus_is_exact(theta, points)


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_boundary_rate_keeps_its_digits_next_to_zeros_at_the_circle(gap: float) -> None:
    # the angular derivative sum (1 - |eta|^2)/|zeta - eta|^2 against exact
    # rationals, 0.3 rad or more from the zeros' angles
    zeros = _zeros_at_the_circle(gap)
    theta = InnerFunction(blaschke_zeros=zeros)
    zeta = np.exp(1j * np.array([0.0, 1.3, 3.3, 5.5]))
    for w, rate in zip(zeta, eval_points(theta, zeta)[1]):
        exact = boundary_rate_exact(zeros, complex(w))
        assert abs(float(rate) - exact) <= 1e-13 * exact


def test_norm_at_a_zero_and_near_an_atom() -> None:
    eta = 0.4 - 0.3j
    theta = InnerFunction(blaschke_zeros=(eta, 0.0), singular_atoms=((1.0, 0.6),))
    # Theta(eta) = 0: the norm is 1/(1 - |eta|^2), with no warning raised
    norm = normalized_values(theta, np.array([eta]), np.array([math.nan]))[1][0]
    assert norm == pytest.approx(1.0 / (1.0 - abs(eta) ** 2), rel=1e-15)
    # 1e-3 from the atom its share 2 m gap/|tau - z|^2 is not small: there a
    # gap taken from the rounded |z| was 1.2e-10 off at 1 - |z| = 1e-9
    near_atom = [(1 - depth) * cmath.exp(1j * t) for depth in (1e-9, 1e-11) for t in (0.999, 1.001)]
    seq = PointSequence.from_complex(
        [eta, 0.0, 0.5, (1 - 1e-9) * cmath.exp(2.5j), (1 - 1e-3) * cmath.exp(1.01j)]
        + near_atom
        + [cmath.exp(1j * t) for t in (0.5, 3.0)]
    )
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    assert norms == pytest.approx(kernel_norm_sq_oracle(theta, seq), rel=1e-13)
    assert values == pytest.approx(blaschke_values(theta, seq.z), abs=1e-14)


def _theta_mp(theta: InnerFunction, z: complex) -> mpmath.mpc:
    """Theta(z) in 60-digit arithmetic, each atom at the exact e^{ia} of its angle a."""
    w = mpmath.mpc(z.real, z.imag)
    out = mpmath.mpc(1)
    for eta in theta.blaschke_zeros:
        e = mpmath.mpc(eta.real, eta.imag)
        out *= w if eta == 0 else (abs(e) / e) * (e - w) / (1 - mpmath.conj(e) * w)
    for a, m in theta.singular_atoms:
        tau = mpmath.expj(mpmath.mpf(a))
        out *= mpmath.exp(-m * (tau + w) / (tau - w))
    return out


def test_values_next_to_atoms_keep_the_modulus() -> None:
    # the complex quotient (tau + z)/(tau - z) cancels next to the circle:
    # taken that way, |Theta| was 7.8e-13 off here at 0.01 from an atom
    # (and 7.8e-11 at 1e-3), where the exact gap 1 - |z|^2 keeps it within
    # the 1.7e-14 that the atom angle's rounding alone costs at 1e-3
    theta = InnerFunction(
        blaschke_zeros=(0.5 + 0.3j, -0.6j, -0.4 + 0.1j), singular_atoms=((1.62, 0.82), (1.85, 0.14))
    )
    z = np.array([
        (1.0 - depth) * cmath.exp(1j * (a + s))
        for depth in (1e-6, 1e-9)
        for a in (1.62, 1.85)
        for s in (-0.1, -0.01, -1e-3, 1e-3, 0.01, 0.1)
    ])
    values = normalized_values(theta, z, np.full(z.size, math.nan))[0]
    with mpmath.workdps(60):
        exact = [_theta_mp(theta, w) for w in z]
        modulus = [float(abs(abs(mpmath.mpc(v.real, v.imag)) - abs(e)) / abs(e)) for v, e in zip(values, exact)]
        value = [float(abs(mpmath.mpc(v.real, v.imag) - e) / abs(e)) for v, e in zip(values, exact)]
    assert max(modulus) <= 4e-14
    assert max(value) <= 1e-10  # the phase, whose error the atom angle's rounding sets


def test_normalized_values_edge_points_take_the_boundary_norm() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, 0.2j), singular_atoms=((2.0, 0.3),))
    z = (1.0 - 5e-13) * cmath.exp(0.9j)
    _, norms = normalized_values(theta, np.array([z]), np.array([math.nan]))
    assert float(norms[0]) == pytest.approx(
        boundary_rate_oracle(theta, [cmath.phase(z)])[0], rel=1e-14
    )


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalized_values_rates_only_the_points_that_use_them() -> None:
    # an interior point on a zero 1e-9 from the circle takes the interior
    # norm 1/(1 - |eta|^2); a boundary rate taken at the point itself divided
    # by zero, and was discarded
    eta = (1 - 1e-9) * cmath.exp(2.5j)
    theta = InnerFunction(blaschke_zeros=(eta, 0.3))
    points = [eta, 0.1 + 0j]
    values, norms = normalized_values(theta, np.array(points), np.full(2, math.nan))
    assert values[0] == 0.0
    exact = [float(kernel_norm_sq_exact(theta.blaschke_zeros, z)) for z in points]
    assert norms == pytest.approx(exact, rel=1e-13)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("view", ["eval_inner", "kernel"])
def test_scalar_views_at_a_zero_next_to_the_circle(view: str) -> None:
    # one point, as a one-element array, of the value and kernel paths:
    # neither takes a boundary rate at the point itself, where a rate
    # divides by zero
    eta = (1 - 1e-9) * cmath.exp(2.5j)
    theta = InnerFunction(blaschke_zeros=(eta, 0.3))
    if view == "eval_inner":
        assert normalized_values(theta, np.array([eta]), np.array([math.nan]))[0][0] == 0.0
    else:
        # Theta(eta) = 0, so k_eta(z) = 1/(1 - conj(eta) z), here in exact rationals
        re = 1 - Fraction(0.1) * Fraction(eta.real)
        im = Fraction(0.1) * Fraction(eta.imag)
        size = re * re + im * im
        exact = complex(float(re / size), float(-im / size))
        z = np.array([eta, 0.1])
        values, norms = normalized_values(theta, z, np.full(2, math.nan))
        g = _sections(z[None], values[None], norms[None], [(0, 1)])[0]
        k = g[1, 0] * np.sqrt(norms[0] * norms[1])
        assert abs(k - exact) <= 1e-15 * abs(exact)


def test_normalized_values_names_the_point_on_an_atom() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3,), singular_atoms=((1.0, 0.5),))
    seq = PointSequence.from_mixed([0.2, 0, 0], [math.nan, 2.0, 1.0])
    with pytest.raises(OnSpectrumError, match="point 12: "):
        normalized_values(theta, seq.z, seq.angle, (10, 11, 12))
    with pytest.raises(OnSpectrumError):
        normalized_values(theta, seq.z, seq.angle)


def test_reproducing_property_polynomials() -> None:
    # model space of z^N holds the polynomials of degree < N
    n = 6
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    rng = np.random.default_rng(5)
    angles = TWO_PI * np.arange(256) / 256
    z = np.exp(1j * angles)
    for _ in range(10):
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        lam = 0.8 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        f = np.polyval(coeffs[::-1], z)
        seq = PointSequence.from_mixed([lam] + [0j] * z.size, [math.nan] + angles.tolist())
        k = _kernels(zn, seq)[1:, 0]
        quad = np.mean(f * np.conj(k))
        f_lam = np.polyval(coeffs[::-1], lam)
        assert abs(quad - f_lam) <= 1e-10


# ---------------------------------------------------------------------------
# boundary derivative and spectrum
# ---------------------------------------------------------------------------

def test_boundary_derivative_two_zeros() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    assert eval_points(theta, np.array([1j]))[1][0] == pytest.approx(1.2)


def test_boundary_derivative_power() -> None:
    z5 = InnerFunction(blaschke_zeros=(0,) * 5)
    assert eval_points(z5, np.exp([0.3j]))[1][0] == pytest.approx(5.0)


def test_boundary_derivative_atom() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    # an interior point over the atom takes the rate at the atom
    rates = eval_points(theta, np.array([-1.0, 0.5]))[1]
    assert rates[0] == pytest.approx(0.5)
    assert math.isinf(rates[1])


def test_boundary_derivative_matches_argument_rate() -> None:
    rng = np.random.default_rng(17)
    theta = random_blaschke(rng, 5)
    h = 1e-5
    ang = rng.uniform(0, TWO_PI, 12)
    hi = eval_points(theta, np.exp(1j * (ang + h)))[0]
    lo = eval_points(theta, np.exp(1j * (ang - h)))[0]
    fd = np.angle(hi / lo) / (2 * h)
    exact = eval_points(theta, np.exp(1j * ang))[1]
    assert np.all(np.abs(fd - exact) <= 1e-6 * exact)


def test_spectrum_distance_examples() -> None:
    w = np.array([0.5, -1.0, 1.0])
    assert spectrum_distance(InnerFunction(blaschke_zeros=(0,)), w)[0] == pytest.approx(0.5)
    atom = InnerFunction(singular_atoms=((0.0, 1.0),))
    assert spectrum_distance(atom, w)[1] == pytest.approx(2.0)
    pair = InnerFunction(blaschke_zeros=(0.5j, -0.5j))
    assert spectrum_distance(pair, w)[2] == pytest.approx(math.sqrt(1.25))
    assert np.all(np.isinf(spectrum_distance(InnerFunction(), w)))


def test_inverse_derivative_versus_spectrum_distance_ratio_finite() -> None:
    # the reciprocal rate is controlled by the distance to the spectrum;
    # assert finiteness of the empirical ratio, no specific constant
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(5):
        theta = random_blaschke(rng, rng.integers(1, 7))
        zeta = np.exp(1j * rng.uniform(0, TWO_PI, 40))
        ratio = 1.0 / (eval_points(theta, zeta)[1] * spectrum_distance(theta, zeta))
        worst = max(worst, float(ratio.max()))
    assert math.isfinite(worst) and worst > 0.0


def test_vectorized_oracle_agrees_with_scalar_eval() -> None:
    rng = np.random.default_rng(29)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 3).blaschke_zeros,
        singular_atoms=((4.0, 0.7),),
    )
    angles = rng.uniform(0, TWO_PI, 16)
    vec = blaschke_values_on_circle(theta, angles)
    assert eval_points(theta, np.exp(1j * angles))[0] == pytest.approx(vec)


# ---------------------------------------------------------------------------
# array evaluator
# ---------------------------------------------------------------------------

_TWO_ATOMS = ((0.7, 0.4), (3.9, 0.15))


def _evaluator_case(name: str) -> InnerFunction:
    rng = np.random.default_rng(61)
    if name == "atoms only":
        return InnerFunction(singular_atoms=_TWO_ATOMS)
    if name == "origin zero":
        return InnerFunction(blaschke_zeros=(0, 0) + random_blaschke(rng, 3).blaschke_zeros)
    if name == "zeros and atoms":
        return InnerFunction(random_blaschke(rng, 5).blaschke_zeros, _TWO_ATOMS)
    return random_blaschke(rng, int(name.split()[1]), rmax=0.95)


@pytest.mark.parametrize(
    "name",
    ["atoms only", "degree 1", "degree 17", "degree 256", "origin zero", "zeros and atoms"],
)
def test_eval_points_matches_oracle_and_scalar_rate(name: str) -> None:
    theta = _evaluator_case(name)
    rng = np.random.default_rng(67)
    angles = rng.uniform(-TWO_PI, 2 * TWO_PI, 300)
    radii = np.concatenate([np.ones(150), rng.uniform(0.0, 0.999, 149), [0.0]])
    z = radii * np.exp(1j * angles)
    values, rates = eval_points(theta, z)
    tol = 1e-12 * max(1, theta.degree)
    assert np.max(np.abs(values[:150] - blaschke_values_on_circle(theta, angles[:150]))) <= tol
    assert np.max(np.abs(values - blaschke_values(theta, z))) <= tol
    # the rate is |Theta'| at the radial projection e^{i arg z}
    assert rates == pytest.approx(boundary_rate_oracle(theta, np.angle(z)), rel=1e-12)


def test_eval_points_empty_batch() -> None:
    values, rates = eval_points(_evaluator_case("zeros and atoms"), np.array([]))
    assert values.shape == rates.shape == (0,)


def test_eval_points_refuses_atoms() -> None:
    theta = _evaluator_case("zeros and atoms")
    for angle in (0.7, 0.7 + TWO_PI, 3.9 - TWO_PI):
        with pytest.raises(OnSpectrumError):
            eval_points(theta, np.exp(1j * np.array([0.1, angle])))
    # an interior point over an atom has a value, and an infinite boundary rate
    z = 0.5 * np.exp(1j * np.array([0.7, 1.0]))
    values, rates = eval_points(theta, z)
    assert values == pytest.approx(blaschke_values(theta, z), abs=1e-14)
    assert math.isinf(rates[0])
    assert rates[1] == pytest.approx(boundary_rate_oracle(theta, [1.0])[0], rel=1e-12)


# ---------------------------------------------------------------------------
# closed-form boundary argument
# ---------------------------------------------------------------------------

_CLOSE_ATOMS = ((0.7, 0.4), (0.7 + 1e-6, 0.3), (3.9, 0.15))


def _argument_case(name: str) -> tuple[InnerFunction, list[tuple[float, float]]]:
    """Inner function and atom-free arcs to sample Phi on."""
    rng = np.random.default_rng(73)
    full = [(0.0, TWO_PI), (-TWO_PI, 0.0), (2.0, 2.0 + TWO_PI)]
    if name == "degree 256":
        return random_blaschke(rng, 256, rmax=0.95), full
    if name == "zeros at 0":
        return InnerFunction((0, 0, 0) + random_blaschke(rng, 4).blaschke_zeros), full
    if name == "near-boundary zeros":
        zeros = tuple((1 - gap) * cmath.exp(1j * a) for gap, a in ((1e-12, 0.4), (1e-8, 2.5), (1e-7, 4.1)))
        return InnerFunction(zeros + (0.5j,)), full
    # atoms 1e-6 apart; arcs between them, across the seam and a turn away
    theta = InnerFunction((0,) + random_blaschke(rng, 5).blaschke_zeros, _CLOSE_ATOMS)
    arcs = [(0.7 + 1e-6, 3.9), (3.9, 0.7 + TWO_PI), (3.9 - TWO_PI, 0.7), (0.7 + 1e-6 + TWO_PI, 3.9 + TWO_PI)]
    return theta, arcs


def _argument_angles(arcs: list[tuple[float, float]], per_arc: int) -> list[np.ndarray]:
    """Random angles on each arc, clear of its ends by 5% of its length."""
    rng = np.random.default_rng(79)
    return [rng.uniform(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), per_arc) for lo, hi in arcs]


_ARGUMENT_CASES = ["degree 256", "zeros at 0", "near-boundary zeros", "atoms 1e-6 apart"]


@pytest.mark.parametrize("name", _ARGUMENT_CASES)
def test_boundary_argument_exponentiates_to_theta(name: str) -> None:
    theta, arcs = _argument_case(name)
    for t in _argument_angles(arcs, 500):
        phi = boundary_argument(theta, t)
        assert np.max(np.abs(np.exp(1j * phi) - blaschke_values_on_circle(theta, t))) <= 1e-12


@pytest.mark.parametrize("name", _ARGUMENT_CASES)
def test_boundary_argument_strictly_increasing(name: str) -> None:
    theta, arcs = _argument_case(name)
    for t in _argument_angles(arcs, 2000):
        assert np.all(np.diff(boundary_argument(theta, np.sort(t))) > 0.0)
    # the increase over a full turn is 2*pi per zero
    if not theta.singular_atoms:
        ends = boundary_argument(theta, np.array([0.3, 0.3 + TWO_PI]))
        assert ends[1] - ends[0] == pytest.approx(TWO_PI * theta.degree, rel=1e-13)


@pytest.mark.parametrize("name", _ARGUMENT_CASES)
def test_argument_rate_matches_eval_points(name: str) -> None:
    # the fused pass gives boundary_argument's Phi bit for bit, and the
    # rate of eval_points.  Next to zeros at 1 - 1e-12 eval_points forms
    # |e^{it} - eta|^2 by subtraction, so there the rates are compared
    # 0.01 or more from the zeros, where that keeps its digits
    theta, arcs = _argument_case(name)
    for t in _argument_angles(arcs, 500):
        phi, rate = argument_and_rate(theta, t)
        assert np.array_equal(phi, boundary_argument(theta, t))
        if name == "near-boundary zeros":
            zeros = np.array(theta.blaschke_zeros)
            far = np.abs(np.exp(1j * t)[:, None] - zeros).min(axis=1) >= 0.01
            t, rate = t[far], rate[far]
        expect = eval_points(theta, np.exp(1j * t))[1]
        assert np.max(np.abs(rate / expect - 1.0)) <= 1e-13
