import cmath
import importlib
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from conftest import log_distance_oracle, pseudohyperbolic_oracle

from mslab import pw
from mslab.carleson import (
    carleson_constant,
    carleson_report,
    earl_bound,
    interpolation_threshold,
    log_distance_matrix,
)
from mslab.errors import NumericDomainError
from mslab.inner import _row_blocks
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


def test_log_distances_never_exceed_zero_near_the_circle() -> None:
    # nearly antipodal points within 1e-9 of the circle: |l - m| and
    # |1 - conj(m) l| agree to about 1e-18, so their ratio often rounds above 1
    rng = np.random.default_rng(17)
    r = 1.0 - rng.uniform(1.1e-14, 1e-9, size=(200, 2))
    a = rng.uniform(0, TWO_PI, size=200)
    b = a + math.pi + rng.uniform(-1e-3, 1e-3, size=200)
    z = np.stack([r[:, 0] * np.exp(1j * a), r[:, 1] * np.exp(1j * b)], axis=1)
    ratios = np.abs(z[:, 0] - z[:, 1]) / np.abs(1.0 - z[:, 0] * z[:, 1].conj())
    assert (ratios > 1.0).sum() >= 20
    for pair in z:
        assert log_distance_matrix(PointSequence.from_complex(pair)).max() == 0.0


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
    # the report's two sums come from one pass of the row kernel over the
    # row blocks; its delta is carleson_constant's bit for bit, and its
    # embedding sum the double sum written out
    module = importlib.import_module("mslab.carleson")
    seq = _random_interior(np.random.default_rng(8), 200, rmax=0.99)
    w = 1.0 - np.abs(seq.z) ** 2
    double_sum = w[:, None] * w / np.abs(1.0 - seq.z[:, None] * seq.z.conj()) ** 2
    want_embedding = float(double_sum.sum(axis=1).max())
    want_delta = carleson_constant(seq)
    passes, blocks = [], []
    kernel = module._log_rho_rows

    def counted(*args, **options):
        passes.append(1)
        for block in kernel(*args, **options):
            blocks.append(block[0])
            yield block

    monkeypatch.setattr(module, "_log_rho_rows", counted)
    report = carleson_report(seq)
    assert len(passes) == 1
    assert blocks == list(_row_blocks(200, 200)) and len(blocks) > 1
    assert report.delta == want_delta
    assert report.embedding_sup == pytest.approx(want_embedding, rel=1e-13)


def test_far_pairs_near_the_circle_keep_their_digits() -> None:
    # nearly antipodal pairs 1e-6 from the circle: rho = 1 - O(1e-12), so a
    # ratio |l - m|/|1 - conj(m) l| rounded to a double keeps about 4 digits
    # of log rho; the reference takes 1 - rho^2 exactly from the floats
    rng = np.random.default_rng(29)
    for _ in range(50):
        r = 1.0 - rng.uniform(0.5e-6, 2e-6, size=2)
        a = rng.uniform(0, TWO_PI)
        b = a + math.pi + rng.uniform(-1e-3, 1e-3)
        p, q = r[0] * cmath.exp(1j * a), r[1] * cmath.exp(1j * b)
        xp, yp, xq, yq = (Fraction(t) for t in (p.real, p.imag, q.real, q.imag))
        num = (xp - xq) ** 2 + (yp - yq) ** 2
        den = (1 - xp * xq - yp * yq) ** 2 + (xq * yp - xp * yq) ** 2
        want = 0.5 * math.log1p(-float((den - num) / den))
        got = log_distance_matrix(PointSequence.from_complex([p, q]))[0, 1]
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


def test_log_distances_of_pairs_closer_than_a_normal_square() -> None:
    # |l - m|^2 underflows below the smallest normal float: those entries are
    # log|l - m| - log(w_l w_m)/2, finite, to rounding
    points = [0.5j, 1e-200 + 0.5j, 1e-320 + 0.5j, 0.25]
    L = log_distance_matrix(PointSequence.from_complex(points))
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        a, b = points[i], points[j]
        want = math.log(abs(a - b)) - 0.5 * math.log((1.0 - abs(a) ** 2) * (1.0 - abs(b) ** 2))
        assert L[i, j] == L[j, i] == pytest.approx(want, rel=1e-15)
    assert L[0, 3] == pytest.approx(log_distance_oracle([0.5j, 0.25])[0, 1], rel=1e-14)


@pytest.mark.filterwarnings("error")
def test_half_plane_log_distances_survive_overflow(monkeypatch) -> None:
    # |s_i - s_j|^2 overflows for frequencies 1e300 apart, where rho = 1 to
    # rounding; at Im s ~ 1e155 the weights' products overflow too, and at
    # Im s ~ 1e5 a pair 1e-150 apart overflows q.  L is still
    # log(|s_i - s_j|/|s_i - conj(s_j)|) as Python's hypot-based abs gives it,
    # up to that reference's own rounding of ratios near 1
    seen = {}
    split = pw.split_log_distances
    monkeypatch.setattr(pw, "split_log_distances", lambda L, *rest: seen.update(L=L) or split(L, *rest))
    system = pw.ExpSystem(1.0, (0.0, 1.0, 1e300, -1e300))
    pw.pw_split(system, pw.pw_gram(system))
    L = seen["L"]
    assert L[0, 1] == L[1, 0] == pytest.approx(0.5 * math.log(1.0 / 5.0), rel=1e-15)
    assert (L[2:, :2] == 0.0).all() and (L[:2, 2:] == 0.0).all() and L[2, 3] == L[3, 2] == 0.0
    for system in [
        pw.ExpSystem(1e-160, (1e155j, 1e155 + 1e155j, 3e154 + 2e155j, -1e300 + 1e155j)),
        pw.ExpSystem(1e-3, (1e5j, 1e-150 + 1e5j, 3.0)),
    ]:
        pw.pw_split(system, pw.pw_gram(system))
        s = [f + 1j for f in system.freqs]
        want = [[0.0 if a == b else math.log(abs(a - b) / abs(a - b.conjugate())) for b in s] for a in s]
        np.testing.assert_allclose(seen["L"], want, rtol=1e-13, atol=1e-15)
        assert np.array_equal(seen["L"], seen["L"].T)


def test_report_holds_no_pairwise_matrix() -> None:
    # numpy reports its buffers to tracemalloc; an n x n float array at
    # n = 2000 alone would take 32 MB
    seq = _random_interior(np.random.default_rng(9), 2000, rmax=0.99)
    tracemalloc.start()
    try:
        carleson_report(seq)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


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
