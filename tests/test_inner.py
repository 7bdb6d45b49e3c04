import cmath
import math

import numpy as np
import pytest

from conftest import (
    blaschke_values,
    blaschke_values_on_circle,
    cell_rate_bound_oracle,
    random_blaschke,
)

from mslab.errors import ConfigError, NumericDomainError, OnSpectrumError
from mslab.inner import (
    InnerFunction,
    boundary_derivative,
    derivative,
    eval_inner,
    eval_points,
    kernel,
    kernel_norm_sq,
    log_derivative,
    rate_bound,
    spectrum_distance,
)
from mslab.points import UnitPoint

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
    theta = InnerFunction(blaschke_zeros=(0.3 + 0.1j,), singular_atoms=((1.0, 0.25),))
    again = InnerFunction.from_json_dict(theta.to_json_dict())
    assert again == theta


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_eval_single_zero_at_origin() -> None:
    theta = InnerFunction(blaschke_zeros=(0,))
    assert eval_inner(theta, 0.5) == pytest.approx(0.5)


def test_eval_blaschke_factor_at_zero() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5,))
    assert eval_inner(theta, 0) == pytest.approx(0.5)


def test_eval_atomic_factor() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    assert eval_inner(theta, -0.5) == pytest.approx(math.exp(-1.0 / 3.0))


def test_eval_at_atom_is_on_spectrum() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    with pytest.raises(OnSpectrumError):
        eval_inner(theta, UnitPoint.boundary(0.0))


def test_modulus_contract() -> None:
    rng = np.random.default_rng(7)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 4).blaschke_zeros,
        singular_atoms=((2.0, 0.4),),
    )
    for _ in range(50):
        z = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        assert abs(eval_inner(theta, z)) < 1.0
    for _ in range(50):
        ang = rng.uniform(0, TWO_PI)
        if abs(ang - 2.0) < 1e-3:
            continue
        assert abs(abs(eval_inner(theta, cmath.exp(1j * ang))) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# kernel and norms
# ---------------------------------------------------------------------------

def test_kernel_example_z2() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    assert kernel(z2, 0.5, 0.5) == pytest.approx(1.25)


def test_kernel_constant_one_when_theta_vanishes_at_zero() -> None:
    theta = InnerFunction(blaschke_zeros=(0, 0.3 + 0.2j))
    assert kernel(theta, 0.0, 0.0) == pytest.approx(1.0)
    # k_0 is identically 1: reproducing element of the constants
    assert kernel(theta, 0.0, 0.37 - 0.11j) == pytest.approx(1.0)


def test_kernel_clark_orthogonality_cube_roots() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    tau = UnitPoint.boundary(0.0)
    sigma = UnitPoint.boundary(TWO_PI / 3.0)
    assert abs(kernel(z3, tau, sigma)) <= 1e-12


def test_kernel_hermitian_symmetry() -> None:
    rng = np.random.default_rng(3)
    theta = random_blaschke(rng, 5)
    for _ in range(20):
        lam = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        z = 0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        assert kernel(theta, lam, z) == pytest.approx(kernel(theta, z, lam).conjugate())


def test_kernel_diagonal_matches_norm_exactly() -> None:
    rng = np.random.default_rng(11)
    theta = random_blaschke(rng, 6)
    for _ in range(20):
        lam = 0.95 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        assert kernel(theta, lam, lam) == complex(kernel_norm_sq(theta, lam))


def test_kernel_division_guard() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3,))
    with pytest.raises(NumericDomainError):
        kernel(theta, 0.5, 2.0)  # z at the reflection 1/conj(lambda)


def test_norm_example_z2_with_quadrature_oracle() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    lam = 0.5
    assert kernel_norm_sq(z2, lam) == pytest.approx(1.25)
    # oracle: mean of |k_lam|^2 over 2^14 uniform boundary nodes
    angles = TWO_PI * np.arange(2**14) / 2**14
    z = np.exp(1j * angles)
    k = (1.0 - np.conj(lam**2) * z**2) / (1.0 - lam * z)
    quad = float(np.mean(np.abs(k) ** 2))
    assert abs(quad - kernel_norm_sq(z2, lam)) <= 1e-8


def test_norm_is_one_at_origin_when_theta_vanishes() -> None:
    theta = InnerFunction(blaschke_zeros=(0, 0.4))
    assert kernel_norm_sq(theta, 0.0) == pytest.approx(1.0)


def test_norm_boundary_power() -> None:
    z4 = InnerFunction(blaschke_zeros=(0,) * 4)
    assert kernel_norm_sq(z4, UnitPoint.boundary(1.3)) == pytest.approx(4.0)


def test_norm_error_on_atom() -> None:
    theta = InnerFunction(singular_atoms=((1.0, 0.5),))
    with pytest.raises(OnSpectrumError):
        kernel_norm_sq(theta, UnitPoint.boundary(1.0))


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
        k = np.array([kernel(zn, lam, w) for w in z])
        quad = np.mean(f * np.conj(k))
        f_lam = np.polyval(coeffs[::-1], lam)
        assert abs(quad - f_lam) <= 1e-10


# ---------------------------------------------------------------------------
# boundary derivative and spectrum
# ---------------------------------------------------------------------------

def test_boundary_derivative_two_zeros() -> None:
    theta = InnerFunction(blaschke_zeros=(0.5, -0.5))
    assert boundary_derivative(theta, 1j) == pytest.approx(1.2)


def test_boundary_derivative_power() -> None:
    z5 = InnerFunction(blaschke_zeros=(0,) * 5)
    assert boundary_derivative(z5, cmath.exp(0.3j)) == pytest.approx(5.0)


def test_boundary_derivative_atom() -> None:
    theta = InnerFunction(singular_atoms=((0.0, 1.0),))
    assert boundary_derivative(theta, -1.0) == pytest.approx(0.5)
    assert math.isinf(boundary_derivative(theta, UnitPoint.boundary(0.0)))


def test_boundary_derivative_matches_argument_rate() -> None:
    rng = np.random.default_rng(17)
    theta = random_blaschke(rng, 5)
    h = 1e-5
    for ang in rng.uniform(0, TWO_PI, 12):
        hi = eval_inner(theta, cmath.exp(1j * (ang + h)))
        lo = eval_inner(theta, cmath.exp(1j * (ang - h)))
        fd = cmath.phase(hi / lo) / (2 * h)
        exact = boundary_derivative(theta, cmath.exp(1j * ang))
        assert abs(fd - exact) <= 1e-6 * exact


def test_analytic_derivative_consistency() -> None:
    # complex-step-free check: compare with a small centered difference
    theta = InnerFunction(blaschke_zeros=(0.4, -0.2 + 0.3j), singular_atoms=((2.5, 0.3),))
    for z in (0.2 + 0.1j, -0.5j, 0.6):
        h = 1e-6
        fd = (eval_inner(theta, z + h) - eval_inner(theta, z - h)) / (2 * h)
        assert derivative(theta, z) == pytest.approx(fd, rel=1e-7)
        assert log_derivative(theta, z) == pytest.approx(fd / eval_inner(theta, z), rel=1e-7)


def test_spectrum_distance_examples() -> None:
    assert spectrum_distance(InnerFunction(blaschke_zeros=(0,)), 0.5) == pytest.approx(0.5)
    atom = InnerFunction(singular_atoms=((0.0, 1.0),))
    assert spectrum_distance(atom, -1.0) == pytest.approx(2.0)
    pair = InnerFunction(blaschke_zeros=(0.5j, -0.5j))
    assert spectrum_distance(pair, 1.0) == pytest.approx(math.sqrt(1.25))
    assert math.isinf(spectrum_distance(InnerFunction(), 0.3))


def test_inverse_derivative_versus_spectrum_distance_ratio_finite() -> None:
    # the reciprocal rate is controlled by the distance to the spectrum;
    # assert finiteness of the empirical ratio, no specific constant
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(5):
        theta = random_blaschke(rng, rng.integers(1, 7))
        for ang in rng.uniform(0, TWO_PI, 40):
            zeta = cmath.exp(1j * ang)
            ratio = 1.0 / (
                boundary_derivative(theta, zeta) * spectrum_distance(theta, zeta)
            )
            worst = max(worst, ratio)
    assert math.isfinite(worst) and worst > 0.0


def test_vectorized_oracle_agrees_with_scalar_eval() -> None:
    rng = np.random.default_rng(29)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 3).blaschke_zeros,
        singular_atoms=((4.0, 0.7),),
    )
    angles = rng.uniform(0, TWO_PI, 16)
    vec = blaschke_values_on_circle(theta, angles)
    for ang, expected in zip(angles, vec):
        assert eval_inner(theta, cmath.exp(1j * ang)) == pytest.approx(expected)


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
    expected = [boundary_derivative(theta, cmath.exp(1j * cmath.phase(w))) for w in z]
    assert rates == pytest.approx(expected, rel=1e-12)


def test_eval_points_empty_batch() -> None:
    values, rates = eval_points(_evaluator_case("zeros and atoms"), np.array([]))
    assert values.shape == rates.shape == (0,)


def test_eval_points_refuses_atoms() -> None:
    theta = _evaluator_case("zeros and atoms")
    for angle in (0.7, 0.7 + TWO_PI, 3.9 - TWO_PI):
        with pytest.raises(OnSpectrumError):
            eval_points(theta, np.exp(1j * np.array([0.1, angle])))
    # an interior point over an atom has a value, and an infinite boundary rate
    values, rates = eval_points(theta, 0.5 * np.exp(1j * np.array([0.7, 1.0])))
    assert values[0] == pytest.approx(eval_inner(theta, 0.5 * cmath.exp(0.7j)), abs=1e-14)
    assert math.isinf(rates[0]) and math.isinf(boundary_derivative(theta, cmath.exp(0.7j)))
    assert math.isfinite(rates[1])


def test_rate_bound_matches_oracle_and_dominates_rate() -> None:
    theta = InnerFunction(
        blaschke_zeros=(0.0, 0.9 * cmath.exp(1.0j), (1 - 1e-6) * cmath.exp(-2.0j)),
        singular_atoms=((3.0, 0.2),),
    )
    lo = np.array([0.2, 0.9, 4.2, -2.5, 2.0, 3.1])
    hi = np.array([0.8, 1.1, 4.4, -1.9, 2.9, 5.9])
    bound = rate_bound(theta, lo, hi)
    for a, b, r in zip(lo, hi, bound):
        assert r == pytest.approx(cell_rate_bound_oracle(theta, a, b), rel=1e-9)
        _, rates = eval_points(theta, np.exp(1j * np.linspace(a, b, 2001)))
        assert np.max(rates) <= r
