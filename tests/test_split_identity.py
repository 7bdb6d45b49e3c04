"""The splitter's first-fit merge and Mills halves against their reference loops.

``first_fit_reference`` and ``mills_halves_reference`` (conftest) are the
loops the splitter ran before its first-fit lost the clash pre-filter and
the live/owner bookkeeping.  On the calls of real recursions, over 51
seeded sequences of 2-120 points with delta* between about 0.06 and
0.9999, every bin and every half must come out equal, and so must the
whole report against the one made with the reference loops patched in.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import first_fit_reference, mills_halves_reference, split_at_gamma

import mslab.decompose as decompose
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


def _corpus() -> list[tuple[float, PointSequence]]:
    """(gamma, sequence) pairs: Theta(z) = gamma z / 0.9 with one point at 0.9."""
    rng = np.random.default_rng(8)
    out = []
    for k in range(50):
        n = 2 + round(118 * k / 49)
        gamma = 9e-4 * 1100.0 ** ((k % 10) / 9)  # 9e-4 to 0.99 in ten steps
        pts = [
            0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
            for _ in range(n)
        ]
        pts[0] = 0.9  # pins max |Theta| at gamma
        out.append((gamma, PointSequence.from_complex(pts)))
    # a cluster 1e-200 apart, whose Carleson products underflow to 0
    cluster = [0.0, 1e-200, 1e-200j, -1e-200, 1e-320]
    ring = [0.6 * cmath.exp(1j * TWO_PI * k / 12) for k in range(12)]
    out.append((0.5, PointSequence.from_complex(cluster + ring + [0.9])))
    return out


CORPUS = _corpus()


def _split(gamma: float, seq: PointSequence):
    """The splitter's core at max |Theta| over the points, Theta(z) = gamma z / 0.9."""
    return split_at_gamma(seq, max(abs(gamma / 0.9 * z) for z in seq.z.tolist()))


@pytest.fixture(scope="module")
def recorded() -> list[dict]:
    """Each sequence's partition with the reference loops, and the arguments of their calls."""
    out = []
    for gamma, seq in CORPUS:
        fits, halves = [], []

        def record_fit(L, groups, floor, fits=fits):
            fits.append((L, [g.copy() for g in groups], floor))
            return first_fit_reference(L, groups, floor)

        def record_halves(L, idx, rank, halves=halves):
            halves.append((L, idx.copy(), rank))
            return mills_halves_reference(L, idx, rank)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose, "_first_fit", record_fit)
            mp.setattr(decompose, "_mills_halves", record_halves)
            partition = _split(gamma, seq)
        out.append({"partition": partition, "fits": fits, "halves": halves})
    return out


def _same_arrays(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_corpus_covers_sizes_thresholds_and_group_shapes(recorded) -> None:
    sizes = [len(seq) for _, seq in CORPUS]
    assert min(sizes) == 2 and max(sizes) == 120
    stars = [r["partition"].global_info["delta_star"] for r in recorded]
    assert min(stars) < 0.07 and max(stars) > 0.9999
    group_sizes = {len(g) for r in recorded for _, groups, _ in r["fits"] for g in groups}
    assert {1, 2, 3} <= group_sizes
    assert sum(len(r["halves"]) for r in recorded) > 500
    # Mills halves run on whole sequences, pairs and triples alike
    assert {2, 3} <= {len(idx) for r in recorded for _, idx, _ in r["halves"]}


def test_mills_halves_match_reference(recorded) -> None:
    for r in recorded:
        for L, idx, rank in r["halves"]:
            got = decompose._mills_halves(L, idx, rank)
            assert _same_arrays(list(got), list(mills_halves_reference(L, idx, rank)))


@pytest.mark.parametrize("floor", ["recorded", "-inf"])
def test_first_fit_matches_reference(recorded, floor) -> None:
    for r in recorded:
        for L, groups, log_floor in r["fits"]:
            if floor == "-inf":
                log_floor = -math.inf
            got = decompose._first_fit(L, [g.copy() for g in groups], log_floor)
            want = first_fit_reference(L, [g.copy() for g in groups], log_floor)
            assert _same_arrays(got, want)


@pytest.mark.parametrize("floor", ["recorded", "-inf"])
def test_minus_inf_entries_match_reference(recorded, floor) -> None:
    # distinct points never lie at distance 0, so -inf entries of L are
    # planted: one pair inside a certified group, one across two groups
    checked = 0
    for r in recorded:
        for L, groups, log_floor in r["fits"]:
            pair = next((g for g in groups if len(g) >= 2), None)
            if pair is None:
                continue
            L = L.copy()
            i, j = int(pair[0]), int(pair[1])
            k = int(groups[-1][0])
            L[i, j] = L[j, i] = L[i, k] = L[k, i] = -math.inf
            if floor == "-inf":
                log_floor = -math.inf
            got = decompose._first_fit(L, [g.copy() for g in groups], log_floor)
            assert _same_arrays(got, first_fit_reference(L, [g.copy() for g in groups], log_floor))
            idx = np.arange(len(L))
            rank = np.arange(len(L))[::-1].copy()
            got = decompose._mills_halves(L, idx, rank)
            assert _same_arrays(list(got), list(mills_halves_reference(L, idx, rank)))
            checked += 1
    assert checked >= 20


def test_reports_match_with_reference_loops(recorded) -> None:
    for (gamma, seq), r in zip(CORPUS, recorded):
        partition = _split(gamma, seq)
        assert partition.to_json_dict() == r["partition"].to_json_dict()



def test_first_fit_keeps_the_running_sums_of_a_joined_group() -> None:
    # {2} joins {0, 1}; then {3} fits every row but point 2's, whose running
    # sum -0.6 would fall to -1.1, below the floor -1
    L = np.zeros((4, 4))
    for i, j, v in [(0, 1, -0.1), (0, 2, -0.3), (1, 2, -0.3), (0, 3, -0.05), (1, 3, -0.05), (2, 3, -0.5)]:
        L[i, j] = L[j, i] = v
    groups = [np.array([0, 1]), np.array([2]), np.array([3])]
    bins = decompose._first_fit(L, groups, -1.0)
    assert [b.tolist() for b in bins] == [[0, 1, 2], [3]]
    assert _same_arrays(bins, first_fit_reference(L, groups, -1.0))
