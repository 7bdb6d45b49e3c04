"""The interpolation splitter's certificates against a pairwise-product oracle.

The checks take nothing from ``mslab.carleson``: every part's separation is
re-derived by ``carleson_delta_oracle`` (plain products of pseudohyperbolic
distances) and phi by ``earl_oracle``, so a fault in the library's log-sum
path, its running row sums or its merge shows up as a mismatch.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import all_ids, carleson_delta_oracle, earl_oracle, part_ids, split_at_gamma

from mslab.errors import NumericDomainError
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


def _disk_points(rng: np.random.Generator, n: int, rmax: float = 0.9) -> list[complex]:
    return [
        rmax * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(n)
    ]


def _gamma(scale: float, seq: PointSequence) -> float:
    """max |Theta| over the points for Theta(z) = scale * z."""
    return max(abs(scale * z) for z in seq.z.tolist())


def _check_against_oracle(scale: float, seq: PointSequence) -> None:
    gamma = _gamma(scale, seq)
    partition = split_at_gamma(seq, gamma)
    assert all_ids(partition, seq.ids) == tuple(sorted(seq.ids))
    assert partition.global_info["gamma"] == gamma
    assert partition.global_info["delta_input"] == pytest.approx(
        carleson_delta_oracle(seq.z.tolist()), rel=1e-9, abs=1e-300
    )
    for k, ids in enumerate(part_ids(partition, seq.ids)):
        delta = carleson_delta_oracle(seq.z[np.isin(seq.ids, ids)].tolist())
        assert partition.delta_j[k] == pytest.approx(delta, rel=1e-9)
        assert partition.delta_j[k] >= partition.global_info["delta_star"]
        assert gamma * earl_oracle(delta) < 1.0
    assert 1 <= partition.global_info["parts_lower_bound"] <= len(partition.parts)


# n = 40 and n = 90 sit on both sides of the old 64-point switch between
# products and log sums; scale 1e-3 puts gamma near 0 (delta* ~ 0.06, a few
# large parts), scale 0.99/0.9 puts it near 0.99 (delta* ~ 0.9999, all
# singletons)
@pytest.mark.parametrize("n", [40, 90])
@pytest.mark.parametrize("scale", [1e-3, 0.99 / 0.9])
def test_split_certificates_match_pairwise_oracle(n: int, scale: float) -> None:
    rng = np.random.default_rng(n)
    pts = _disk_points(rng, n)
    pts[0] = 0.9  # pins gamma at 0.9 * scale
    _check_against_oracle(scale, PointSequence.from_complex(pts))


@pytest.mark.filterwarnings("error")
def test_split_near_duplicates_underflow_without_warnings() -> None:
    # a cluster at the origin 1e-200 apart: its Carleson products underflow
    # to 0 (log sums near -1400), and one pair sits at a subnormal distance
    rng = np.random.default_rng(11)
    cluster = [0.0, 1e-200, 1e-200j, -1e-200, 1e-320]
    seq = PointSequence.from_complex(cluster + _disk_points(rng, 30))
    partition = split_at_gamma(seq, _gamma(0.5, seq))
    assert partition.global_info["delta_input"] == 0.0
    assert carleson_delta_oracle(seq.z.tolist()) == 0.0
    # the five cluster points are pairwise closer than delta*
    assert partition.global_info["parts_lower_bound"] >= len(cluster)
    _check_against_oracle(0.5, seq)


def test_lower_bound_counts_a_tight_cluster() -> None:
    k = 5
    cluster = [0.3 + 1e-3 * cmath.exp(1j * TWO_PI * m / k) for m in range(k)]
    seq = PointSequence.from_complex(cluster)
    partition = split_at_gamma(seq, _gamma(0.5, seq))
    assert partition.global_info["delta_star"] > 0.5  # every pair clashes
    assert partition.global_info["parts_lower_bound"] == k
    assert len(partition.parts) == k


def test_lower_bound_never_exceeds_parts_on_random_sequences() -> None:
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 80))
        scale = float(rng.uniform(0.01, 1.1))
        seq = PointSequence.from_complex(_disk_points(rng, n))
        partition = split_at_gamma(seq, _gamma(scale, seq))
        bound = partition.global_info["parts_lower_bound"]
        assert 1 <= bound <= len(partition.parts)


def test_merged_parts_are_reverified(monkeypatch) -> None:
    # a merge that ignores the floor must be caught by the fresh re-check
    import mslab.decompose as decompose

    monkeypatch.setattr(
        decompose, "_first_fit", lambda L, order, floor: (np.arange(len(L)), np.array([0, len(L)]))
    )
    seq = PointSequence.from_complex([0.3, 0.3001, -0.4j])
    with pytest.raises(NumericDomainError, match="re-verification"):
        split_at_gamma(seq, _gamma(0.5, seq))
