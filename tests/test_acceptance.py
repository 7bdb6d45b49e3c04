"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Tolerances are pinned here and nowhere else.
"""

import cmath
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import composite_gauss_legendre, random_blaschke

from mslab.carleson import carleson_constant, earl_bound, interpolation_threshold
from mslab.clark import herglotz_residuals, level_set
from mslab.decompose import (
    build_arc_system,
    decompose_by_squares,
    split_by_interpolation,
    uncovered_region_report,
)
from mslab.gram import extremal_eigs, gram
from mslab.inner import InnerFunction, eval_points, normalized_values
from mslab.points import PointSequence
from mslab.pw import ExpSystem, pw_gram, pw_split

TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(tag: str, description: str):
    try:
        yield
    except BaseException:
        print(f"[{tag}] FAIL — {description}")
        raise
    print(f"[{tag}] PASS — {description}")


def _clark_corpus() -> list[InnerFunction]:
    rng = np.random.default_rng(2024)
    corpus = [InnerFunction(blaschke_zeros=(0,) * 5)]
    for _ in range(5):
        corpus.append(random_blaschke(rng, int(rng.integers(1, 9)), rmax=0.8))
    return corpus


def test_criterion_01_level_set_orthogonality() -> None:
    with criterion("AC-01", "level-set families give identity Grams in < 1 s"):
        start = time.monotonic()
        for theta in _clark_corpus():
            fam = level_set(theta, 1.0)
            assert len(fam) == theta.degree
            g = gram(theta, PointSequence.from_angles(fam.points))
            off = np.max(np.abs(g.entries - np.eye(len(fam))))
            assert off <= 1e-8
            fb = extremal_eigs(g)
            assert fb.lambda_min >= 1.0 - 1e-8
        elapsed = time.monotonic() - start
        assert elapsed < 1.0, f"took {elapsed:.3f} s"


def test_criterion_02_herglotz_identity() -> None:
    with criterion("AC-02", "Herglotz residual <= 1e-6 on a 100-point grid"):
        for theta in _clark_corpus():
            fam = level_set(theta, 1.0)
            r = 0.05 + 0.85 * np.arange(10) / 9
            z = r[:, None] * np.exp(1j * TWO_PI * (np.arange(10) + 0.37) / 10)
            worst = float(herglotz_residuals(theta, fam, z.ravel()).max())
            assert worst <= 1e-6, f"residual {worst}"


def test_criterion_03_parseval() -> None:
    with criterion("AC-03", "discrete Parseval for 50 random polynomials"):
        n = 16
        zn = InnerFunction(blaschke_zeros=(0,) * n)
        fam = level_set(zn, 1.0)
        rng = np.random.default_rng(3)
        angles = TWO_PI * np.arange(256) / 256
        z = np.exp(1j * angles)
        for _ in range(50):
            coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = lambda w: np.polyval(coeffs[::-1], w)  # noqa: E731
            norm_sq = float(np.mean(np.abs(f(z)) ** 2))
            discrete = sum(
                a * abs(f(cmath.exp(1j * t))) ** 2 for a, t in zip(fam.weights, fam.points)
            )
            assert abs(discrete - norm_sq) <= 1e-8 * norm_sq


def test_criterion_04_interpolation_bound_and_threshold() -> None:
    with criterion("AC-04", "interpolation bound values and threshold inversion"):
        assert earl_bound(1.0) == 1.0
        assert abs(earl_bound(0.6) - 9.0) <= 1e-12
        assert abs(earl_bound(0.8) - 4.0) <= 1e-12
        for gamma in np.arange(0.1, 0.95, 0.1):
            gamma = float(gamma)
            d = interpolation_threshold(gamma)
            assert abs(earl_bound(d) * gamma - 1.0) <= 1e-10


def test_criterion_05_interpolation_split_end_to_end() -> None:
    with criterion(
        "AC-05", "100 random off-spectrum sequences split with valid certificates"
    ):
        rng = np.random.default_rng(5)
        start = time.monotonic()
        for _ in range(100):
            theta = random_blaschke(rng, int(rng.integers(1, 7)), rmax=0.8)
            target = int(rng.integers(5, 51))
            pts: list[complex] = []
            tries = 0
            while len(pts) < target and tries < 4000:
                tries += 1
                z = 0.97 * math.sqrt(rng.uniform()) * cmath.exp(
                    1j * rng.uniform(0, TWO_PI)
                )
                if abs(eval_points(theta, np.array([z]))[0][0]) <= 0.5 and all(z != w for w in pts):
                    pts.append(z)
            seq = PointSequence.from_complex(pts)
            gamma = float(np.abs(eval_points(theta, seq.z)[0]).max())
            assert gamma <= 0.5
            partition = split_by_interpolation(theta, seq)
            assert partition.all_ids() == tuple(sorted(seq.ids))
            for part in partition.parts:
                cert = part.certificate
                assert cert.gamma * cert.earl_value < 1.0
                assert cert.frame_bounds.lambda_min > 0.0
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.3f} s"


def test_criterion_06_arc_mass_conservation() -> None:
    with criterion("AC-06", "arc count N*d, per-arc mass 1/N, total mass d"):
        rng = np.random.default_rng(6)
        thetas = [
            InnerFunction(blaschke_zeros=(0, 0, 0)),
            random_blaschke(rng, 4, rmax=0.6),
            random_blaschke(rng, 6, rmax=0.5),
        ]
        for theta in thetas:
            d = theta.degree
            for n_levels in (4, 8, 16):
                arcs = build_arc_system(theta, n_levels)
                assert len(arcs.arcs) == n_levels * d
                for arc in arcs.arcs:
                    assert abs(arc.mass * n_levels - 1.0) <= 1e-6
                assert abs(arcs.total_mass - d) <= 1e-6 * d


def test_criterion_07_uncovered_region_delta_brackets() -> None:
    with criterion("AC-07", "uncovered-region sup for powers within its bracket"):
        for d in (2, 3, 5):
            zd = InnerFunction(blaschke_zeros=(0,) * d)
            for n_levels in (8, 16):
                delta = uncovered_region_report(zd, build_arc_system(zd, n_levels), 2048).delta
                assert math.exp(-2.0 / n_levels) <= delta <= math.exp(-0.5 / n_levels)


def test_criterion_08_square_pipeline_end_to_end() -> None:
    with criterion(
        "AC-08", "clustered corpus: full cover, max 3 per square, positive Grams, < 5 s"
    ):
        start = time.monotonic()
        z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
        pts = []
        for root in range(3):
            base = TWO_PI * root / 3
            for off in (0.05, 0.12, 0.20):
                pts.append(0.999 * cmath.exp(1j * (base + off * (TWO_PI / 24))))
        seq = PointSequence.from_complex(pts)
        partition = decompose_by_squares(z3, seq, 8)
        assert partition.all_ids() == tuple(range(9))
        assert partition.global_info["max_per_square"] == 3
        for part in partition.parts:
            assert part.certificate.frame_bounds.lambda_min > 0.0
        uncovered = [p for p in partition.parts if p.route.startswith("uncovered")]
        for part in uncovered:
            cert = part.certificate
            assert cert.gamma * cert.earl_value < 1.0
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"took {elapsed:.3f} s"


def test_criterion_09_exponential_systems() -> None:
    with criterion(
        "AC-09", "integer system orthonormal, Gram matches quadrature, split certified"
    ):
        system = ExpSystem(math.pi, tuple(float(n) for n in range(64)))
        fb = extremal_eigs(pw_gram(system))
        assert abs(fb.lambda_min - 1.0) <= 1e-12
        assert abs(fb.lambda_max - 1.0) <= 1e-12

        rng = np.random.default_rng(9)
        for _ in range(20):
            a = float(rng.uniform(0.5, math.pi))
            n = int(rng.integers(2, 7))
            freqs = tuple(
                complex(rng.uniform(-4, 4), rng.uniform(0, 1.5)) for _ in range(n)
            )
            g = pw_gram(ExpSystem(a, freqs))
            norms = [
                math.sqrt(
                    composite_gauss_legendre(
                        lambda t, f=f: np.abs(np.exp(1j * f * t)) ** 2,
                        -a, a, panels=512,
                    ).real
                )
                for f in freqs
            ]
            for i in range(n):
                for j in range(n):
                    oracle = composite_gauss_legendre(
                        lambda t, fi=freqs[i], fj=freqs[j]: np.exp(1j * fj * t)
                        * np.conj(np.exp(1j * fi * t)),
                        -a, a, panels=512,
                    ) / (norms[i] * norms[j])
                    assert abs(g.entries[i, j] - oracle) <= 1e-9

        perturbed = ExpSystem(math.pi, tuple(n + 0.2 * math.sin(n) for n in range(41)))
        partition = pw_split(perturbed)
        assert partition.all_ids() == tuple(range(41))
        for part in partition.parts:
            assert part.certificate.frame_bounds.lambda_min > 0.0


def test_criterion_10_norm_ratio_sweep_regression() -> None:
    with criterion(
        "AC-10", "single-factor norm ratio: swept constant holds on fresh samples"
    ):
        s_grid = np.arange(0.10, 0.991, 0.01)
        angle_grid = TWO_PI * np.arange(64) / 64
        r_grid = np.concatenate([np.linspace(0.0, 0.95, 20), [0.99, 0.999, 0.9999]])
        c_emp = 0.0
        aligned_max = 0.0
        for s in s_grid:
            for phi in angle_grid:
                theta = InnerFunction(blaschke_zeros=(s * cmath.exp(1j * phi),))
                deriv = float(eval_points(theta, np.ones(1))[1][0])
                _, norms = normalized_values(theta, r_grid + 0j, np.full(r_grid.size, math.nan))
                ratio = float(np.max(norms)) / deriv
                c_emp = max(c_emp, ratio)
                if phi == 0.0:
                    aligned_max = max(aligned_max, ratio)
        # the sweep's maximum sits at the anti-aligned, r = 0 corner
        assert c_emp == pytest.approx((1 + 0.99) ** 2, rel=1e-12)
        # aligned zeros never inflate the ratio
        assert aligned_max <= 1.0 + 1e-12

        bound = c_emp * (1.0 + 1e-6)
        rng = np.random.default_rng(10)
        for _ in range(10_000):
            s = float(rng.uniform(0.10, 0.99))
            phi = float(rng.uniform(0.0, TWO_PI))
            r = float(rng.uniform(0.0, 0.9999))
            theta = InnerFunction(blaschke_zeros=(s * cmath.exp(1j * phi),))
            _, norms = normalized_values(theta, np.array([r + 0j]), np.array([math.nan]))
            ratio = float(norms[0]) / float(eval_points(theta, np.ones(1))[1][0])
            assert ratio <= bound


# regression baseline for the stability slope, frozen from the exact Gram
_STABILITY_BASELINE = {
    0.01: 0.9906494480538536,
    0.05: 0.9537395053724734,
    0.1: 0.9087236694526697,
    0.2: 0.8225078631051199,
}


def test_criterion_11_stability_slope() -> None:
    with criterion(
        "AC-11", "radial perturbation: lambda_min nonincreasing, positive, on baseline"
    ):
        z16 = InnerFunction(blaschke_zeros=(0,) * 16)
        fam = level_set(z16, 1.0)
        previous = math.inf
        for t, baseline in _STABILITY_BASELINE.items():
            pts = (1 - t / 16) * np.exp(1j * fam.points)
            fb = extremal_eigs(gram(z16, PointSequence.from_complex(pts)))
            assert fb.lambda_min > 0.0
            assert fb.lambda_min <= previous + 1e-12
            assert fb.lambda_min == pytest.approx(baseline, rel=1e-6)
            previous = fb.lambda_min
