import cmath
import importlib
import math

import numpy as np
import pytest

from conftest import pseudohyperbolic_oracle

from mslab.carleson import (
    carleson_constant,
    carleson_report,
    earl_bound,
    interpolation_threshold,
    log_distance_matrix,
)
from mslab.errors import NumericDomainError
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


def _random_interior(rng: np.random.Generator, n: int, rmax: float = 0.9) -> PointSequence:
    pts = [
        rmax * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(n)
    ]
    return PointSequence.from_complex(pts)


def _rho(points) -> np.ndarray:
    """Pairwise pseudohyperbolic distances, from the log-distance matrix."""
    return np.exp(log_distance_matrix(PointSequence.from_complex(points)))


def test_pseudohyperbolic_examples() -> None:
    assert _rho([0, 0.5])[0, 1] == pytest.approx(0.5)
    assert _rho([0.5, -0.5])[0, 1] == pytest.approx(0.8)
    assert np.all(_rho([0.3 + 0.1j, -0.2, 0.5j]).diagonal() == 1.0)  # log rho = 0


def test_pseudohyperbolic_symmetry_and_rotation() -> None:
    rng = np.random.default_rng(1)
    a = 0.9 * np.sqrt(rng.uniform(size=20)) * np.exp(1j * rng.uniform(0, TWO_PI, 20))
    t = cmath.exp(1j * rng.uniform(0, TWO_PI))
    rho = _rho(a)
    assert np.array_equal(rho, rho.T)
    assert _rho(t * a) == pytest.approx(rho, abs=1e-12)


def test_pseudohyperbolic_boundary_rejected() -> None:
    with pytest.raises(NumericDomainError):
        log_distance_matrix(PointSequence.from_complex([1.0, 0.5]))


def test_carleson_singleton_empty_product() -> None:
    assert carleson_constant(PointSequence.from_complex([0.5])) == 1.0


def test_carleson_pair() -> None:
    assert carleson_constant(PointSequence.from_complex([0, 0.5])) == pytest.approx(0.5)


def test_carleson_triple_brute_force() -> None:
    seq = PointSequence.from_complex([0, 0.5, -0.5])
    assert carleson_constant(seq) == pytest.approx(0.25)


def test_carleson_brute_force_oracle_random() -> None:
    rng = np.random.default_rng(2)
    seq = _random_interior(rng, 9)
    vals = seq.z.tolist()
    per_point = []
    for i, v in enumerate(vals):
        prod = 1.0
        for j, w in enumerate(vals):
            if i != j:
                prod *= abs((v - w) / (1 - w.conjugate() * v))
        per_point.append(prod)
    report = carleson_report(seq)
    assert report.delta == pytest.approx(min(per_point), rel=1e-12)
    assert report.witness_index == int(np.argmin(per_point))


def test_carleson_log_product_path_matches_direct() -> None:
    rng = np.random.default_rng(3)
    seq = _random_interior(rng, 80)
    vals = seq.z.tolist()
    per_point = []
    for i, v in enumerate(vals):
        prod = 1.0
        for j, w in enumerate(vals):
            if i != j:
                prod *= abs((v - w) / (1 - w.conjugate() * v))
        per_point.append(prod)
    assert carleson_constant(seq) == pytest.approx(min(per_point), rel=1e-9)


def test_embedding_examples() -> None:
    one = carleson_report(PointSequence.from_complex([0.0]))
    two = carleson_report(PointSequence.from_complex([0, 0.5]))
    assert one.embedding_sup == pytest.approx(1.0)
    assert two.embedding_sup == pytest.approx(1.75)


def test_embedding_diagonal_lower_bound() -> None:
    rng = np.random.default_rng(4)
    seq = _random_interior(rng, 12)
    assert carleson_report(seq).embedding_sup >= 1.0


def test_monotone_under_point_removal() -> None:
    rng = np.random.default_rng(5)
    seq = _random_interior(rng, 10)
    base_delta = carleson_constant(seq)
    base_emb = carleson_report(seq).embedding_sup
    for drop in seq.ids:
        rest = seq.subset(np.flatnonzero(seq.ids != drop))
        assert carleson_constant(rest) >= base_delta - 1e-14
        assert carleson_report(rest).embedding_sup <= base_emb + 1e-14


def test_rotation_invariance_of_scalars() -> None:
    rng = np.random.default_rng(6)
    seq = _random_interior(rng, 8)
    t = cmath.exp(0.77j)
    rotated = PointSequence.from_complex(t * seq.z)
    assert carleson_constant(rotated) == pytest.approx(carleson_constant(seq), abs=1e-12)
    assert carleson_report(rotated).embedding_sup == pytest.approx(
        carleson_report(seq).embedding_sup, abs=1e-12
    )


def test_delta_bounded_by_min_pairwise() -> None:
    rng = np.random.default_rng(7)
    seq = _random_interior(rng, 7)
    vals = seq.z.tolist()
    min_pair = min(
        pseudohyperbolic_oracle(vals[i], vals[j])
        for i in range(len(vals))
        for j in range(i + 1, len(vals))
    )
    assert carleson_constant(seq) <= min_pair + 1e-14
    pair = PointSequence.from_complex([0.1, 0.6j])
    assert carleson_constant(pair) == pytest.approx(
        pseudohyperbolic_oracle(0.1, 0.6j), rel=1e-14
    )


def test_report_forms_the_pairwise_denominators_once(monkeypatch) -> None:
    # the report's two sums share one matrix; its delta is carleson_constant's
    # bit for bit, and its embedding sum the double sum written out
    module = importlib.import_module("mslab.carleson")
    seq = _random_interior(np.random.default_rng(8), 200, rmax=0.99)
    w = 1.0 - np.abs(seq.z) ** 2
    double_sum = w[:, None] * w / np.abs(1.0 - seq.z[:, None] * seq.z.conj()) ** 2
    want_embedding = float(double_sum.sum(axis=1).max())
    want_delta = carleson_constant(seq)
    formed = []
    denominators = module._pair_denominators
    monkeypatch.setattr(module, "_pair_denominators", lambda z: formed.append(1) or denominators(z))
    report = carleson_report(seq)
    assert len(formed) == 1
    assert report.delta == want_delta
    assert report.embedding_sup == pytest.approx(want_embedding, rel=1e-13)


def test_empty_sequence_rejected() -> None:
    with pytest.raises(NumericDomainError):
        carleson_constant(PointSequence((), (), ()))


def test_earl_values() -> None:
    assert earl_bound(1.0) == 1.0
    assert earl_bound(0.6) == pytest.approx(9.0, abs=1e-12)
    assert earl_bound(0.8) == pytest.approx(4.0, abs=1e-12)


def test_earl_strictly_decreasing() -> None:
    grid = np.linspace(0.05, 1.0, 40)
    vals = [earl_bound(d) for d in grid]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_earl_domain() -> None:
    with pytest.raises(NumericDomainError):
        earl_bound(0.0)
    with pytest.raises(NumericDomainError):
        earl_bound(-0.2)


def test_threshold_inverts_earl() -> None:
    assert interpolation_threshold(1.0 / 9.0) == pytest.approx(0.6, abs=1e-9)
    assert interpolation_threshold(0.25) == pytest.approx(0.8, abs=1e-9)
    for gamma in np.linspace(0.1, 0.9, 9):
        d = interpolation_threshold(float(gamma))
        assert earl_bound(d) * gamma == pytest.approx(1.0, abs=1e-10)


def test_threshold_monotone_in_gamma() -> None:
    gammas = np.linspace(0.05, 0.95, 19)
    thresholds = [interpolation_threshold(float(g)) for g in gammas]
    assert all(a < b for a, b in zip(thresholds, thresholds[1:]))


def test_threshold_guarantee_direction() -> None:
    gamma = 0.37
    d = interpolation_threshold(gamma)
    for bump in (1e-10, 1e-6, 1e-3):
        assert earl_bound(min(1.0, d + bump)) < 1.0 / gamma


def test_threshold_domain() -> None:
    with pytest.raises(NumericDomainError):
        interpolation_threshold(0.0)
    with pytest.raises(NumericDomainError):
        interpolation_threshold(1.0)
