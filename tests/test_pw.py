import cmath
import math

import numpy as np
import pytest

from conftest import (
    carleson_delta_oracle,
    composite_gauss_legendre,
    exp_inner_oracle,
    log_distance_oracle,
)

import mslab.pw as pw
from mslab.errors import ConfigError, NumericDomainError
from mslab.gram import extremal_eigs
from mslab.pw import ExpSystem, pw_gram, pw_split

# The exp_inner tests pin the reference formula that pw_gram is checked
# against entrywise below.


def test_exp_inner_integer_orthogonality() -> None:
    assert exp_inner_oracle(math.pi, 0, 1) == pytest.approx(0.0, abs=1e-14)


def test_exp_inner_diagonal() -> None:
    assert exp_inner_oracle(math.pi, 3, 3) == pytest.approx(2 * math.pi)


def test_exp_inner_imaginary_frequency() -> None:
    assert exp_inner_oracle(1.0, 1j, 0) == pytest.approx(2 * math.sinh(1.0))


def test_exp_inner_hermitian() -> None:
    rng = np.random.default_rng(71)
    for _ in range(20):
        lam = complex(rng.normal(), abs(rng.normal()))
        mu = complex(rng.normal(), abs(rng.normal()))
        a = float(rng.uniform(0.5, 3.0))
        assert exp_inner_oracle(a, lam, mu) == pytest.approx(
            exp_inner_oracle(a, mu, lam).conjugate()
        )


def test_exp_inner_series_branch_continuity() -> None:
    a = 1.0
    for eps in (0.9e-4, 1.1e-4):
        direct = 2 * cmath.sin(a * eps) / eps
        assert exp_inner_oracle(a, eps, 0) == pytest.approx(direct, rel=1e-12)


def test_exp_inner_quadrature_oracle() -> None:
    a = 1.7
    lam, mu = 0.8 + 0.3j, -1.2 + 0.1j
    oracle = composite_gauss_legendre(
        lambda t: np.exp(1j * lam * t) * np.conj(np.exp(1j * mu * t)), -a, a, panels=256
    )
    assert exp_inner_oracle(a, lam, mu) == pytest.approx(oracle, abs=1e-10)


def test_system_validation() -> None:
    with pytest.raises(ConfigError):
        ExpSystem(0.0, (1.0,))
    with pytest.raises(ConfigError):
        ExpSystem(1.0, (1.0, 1.0))
    with pytest.raises(ConfigError):
        ExpSystem(1.0, (1.0 - 0.5j,))


def test_coincident_frequencies_name_the_first_repeat() -> None:
    with pytest.raises(ConfigError, match="^frequencies 0 and 2 coincide$"):
        ExpSystem(1.0, (1.0, 2.0, 1.0))
    # with two coincident pairs, the pair whose later member comes first:
    # b at 2 repeats b at 1 before a at 3 repeats a at 0
    with pytest.raises(ConfigError, match="^frequencies 1 and 2 coincide$"):
        ExpSystem(1.0, (1.0, 2.0 + 1j, 2.0 + 1j, 1.0))


def test_pw_gram_integer_identity() -> None:
    system = ExpSystem(math.pi, tuple(float(n) for n in range(10)))
    g = pw_gram(system)
    assert np.max(np.abs(g.entries - np.eye(10))) <= 1e-14


def test_pw_gram_pair_example() -> None:
    g = pw_gram(ExpSystem(math.pi, (0.0, 0.5)))
    assert g.entries[0, 1] == pytest.approx(2.0 / math.pi)
    fb = extremal_eigs(g)
    assert fb.lambda_min == pytest.approx(1 - 2 / math.pi)
    assert fb.lambda_max == pytest.approx(1 + 2 / math.pi)


def test_pw_gram_singleton() -> None:
    g = pw_gram(ExpSystem(2.0, (0.7,)))
    assert g.entries.shape == (1, 1)
    assert g.entries[0, 0] == pytest.approx(1.0)


def test_pw_gram_matches_scalar_exp_inner_entrywise() -> None:
    a = 1.3
    # 0 and 1e-6 (and each real frequency with itself) take the series branch
    freqs = (0.0, 1e-6, 0.5 + 0.2j, 3.0, -2.0 + 1.5j, 5e-5 + 1e-5j)
    g = pw_gram(ExpSystem(a, freqs)).entries
    norms = [math.sqrt(exp_inner_oracle(a, f, f).real) for f in freqs]
    series = 0
    for i, fi in enumerate(freqs):
        for j, fj in enumerate(freqs):
            series += abs(a * (fj - fi.conjugate())) < 1e-4
            want = 1.0 if i == j else exp_inner_oracle(a, fj, fi) / (norms[i] * norms[j])
            assert abs(g[i, j] - want) <= 1e-14 * max(1.0, abs(want))
    assert series > 6  # off-diagonal entries on the series branch too


def test_pw_gram_refuses_overflowing_norms() -> None:
    # sinh(2 a Im l) overflows: the norm is unusable, not a traceback
    with pytest.raises(NumericDomainError, match="unusable norm"):
        pw_gram(ExpSystem(1.0, (0.0, 400j)))


def test_pw_gram_matches_quadrature_on_random_systems() -> None:
    rng = np.random.default_rng(73)
    for _ in range(20):
        a = float(rng.uniform(0.5, math.pi))
        n = int(rng.integers(2, 7))
        freqs = tuple(
            complex(rng.uniform(-4, 4), rng.uniform(0, 1.5)) for _ in range(n)
        )
        system = ExpSystem(a, freqs)
        g = pw_gram(system)
        norms = [
            math.sqrt(
                composite_gauss_legendre(
                    lambda t, f=f: np.abs(np.exp(1j * f * t)) ** 2, -a, a, panels=512
                ).real
            )
            for f in freqs
        ]
        for i in range(n):
            for j in range(n):
                oracle = composite_gauss_legendre(
                    lambda t, fi=freqs[i], fj=freqs[j]: np.exp(1j * fj * t)
                    * np.conj(np.exp(1j * fi * t)),
                    -a,
                    a,
                    panels=512,
                ) / (norms[i] * norms[j])
                assert abs(g.entries[i, j] - oracle) <= 1e-9


def test_modulus_law_of_exponential_symbol() -> None:
    rng = np.random.default_rng(79)
    for _ in range(30):
        a = float(rng.uniform(0.3, 3.0))
        x = float(rng.uniform(-5, 5))
        y = float(rng.uniform(0.01, 4.0))
        assert abs(cmath.exp(1j * a * complex(x, y))) == pytest.approx(
            math.exp(-a * y), rel=1e-12
        )


def test_pw_split_integers_certificates() -> None:
    system = ExpSystem(math.pi, tuple(float(n) for n in range(21)))
    partition = pw_split(system)
    assert partition.all_ids() == tuple(range(21))
    assert partition.global_info["gamma"] == pytest.approx(math.exp(-math.pi))
    for part in partition.parts:
        cert = part.certificate
        assert cert.dist_bound < 1.0
        # integer exponentials stay orthonormal in any subset
        assert cert.frame_bounds.lambda_min == pytest.approx(1.0, abs=1e-12)
        assert cert.frame_bounds.lambda_max == pytest.approx(1.0, abs=1e-12)


def test_pw_split_near_duplicate_pairs() -> None:
    freqs = []
    for n in range(8):
        freqs += [float(n), n + 0.01]
    partition = pw_split(ExpSystem(math.pi, tuple(freqs)))
    assert len(partition.parts) >= 2
    for part in partition.parts:
        assert part.certificate.frame_bounds.lambda_min > 0.1


def test_pw_split_perturbed_integer_corpus() -> None:
    freqs = tuple(n + 0.2 * math.sin(n) for n in range(41))
    partition = pw_split(ExpSystem(math.pi, freqs))
    assert partition.all_ids() == tuple(range(41))
    for part in partition.parts:
        assert part.certificate.frame_bounds.lambda_min > 0.0
        assert part.certificate.dist_bound < 1.0


def test_pw_split_log_distances_match_the_disk_oracle_on_cayley_images(monkeypatch) -> None:
    # the half-plane distance |s - t|/|s - conj(t)| is the disk's on the
    # Cayley images (s - i)/(s + i), which are accurate at moderate frequencies
    rng = np.random.default_rng(83)
    freqs = tuple(
        complex(n + rng.uniform(-0.3, 0.3), rng.uniform(0.0, 1.0)) for n in range(-6, 7)
    )
    seen = {}
    split = pw.split_log_distances

    def record(L, rank, ids, gamma, frame_bounds, **options):
        seen.update(L=L, rank=rank, gamma=gamma)
        return split(L, rank, ids, gamma, frame_bounds, **options)

    monkeypatch.setattr(pw, "split_log_distances", record)
    partition = pw_split(ExpSystem(math.pi, freqs))
    images = [(s - 1j) / (s + 1j) for s in (f + 1j for f in freqs)]
    np.testing.assert_allclose(seen["L"], log_distance_oracle(images), rtol=1e-12, atol=1e-12)
    assert math.exp(seen["L"].sum(axis=1).min()) == pytest.approx(
        carleson_delta_oracle(images), rel=1e-12
    )
    by_modulus = sorted(range(len(freqs)), key=lambda k: (-abs(images[k]), k))
    assert np.argsort(seen["rank"]).tolist() == by_modulus
    assert seen["gamma"] == max(math.exp(-math.pi * (f.imag + 1.0)) for f in freqs)
    assert partition.global_info["gamma"] == seen["gamma"]
