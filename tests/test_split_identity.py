"""The splitter's one-point first-fit against its reference loop.

``first_fit_reference`` (conftest) is the loop the splitter ran over index
groups, with a clash pre-filter and live/owner bookkeeping.  The splitter
now hands ``_first_fit`` single points in decreasing clash degree, ties to
the smaller row sum of L, opens one bin per point of the order's longest
head of pairwise clashing points in one step, and tries every later point
with one bincount.  On the recorded calls over 53 seeded sequences
of 2-300 points with delta* between about 0.06 and 0.9999, the reference
fed the same points as one-point groups, in the same order, must give
every bin alike, and so must the whole report made with it patched in.
The parts' re-verification sums blocks of L in stacks of one size; each
value must equal the one-block sum it replaced, bit for bit.
"""

import cmath
import math

import numpy as np
import pytest

from conftest import first_fit_reference, part_table, partition_text, split_at_gamma

import mslab.decompose as decompose
from mslab.carleson import _earl_bounds, earl_bound, interpolation_threshold
from mslab.errors import NumericDomainError
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
    # 300 points, sparse at gamma 1e-3 and crowded at 0.9
    rng = np.random.default_rng(300)
    for gamma in (1e-3, 0.9):
        pts = 0.9 * np.sqrt(rng.uniform(size=300)) * np.exp(1j * rng.uniform(0, TWO_PI, size=300))
        pts[0] = 0.9
        out.append((gamma, PointSequence.from_complex(pts)))
    return out


CORPUS = _corpus()


def _split(gamma: float, seq: PointSequence):
    """The splitter's core at max |Theta| over the points, Theta(z) = gamma z / 0.9."""
    return split_at_gamma(seq, max(abs(gamma / 0.9 * z) for z in seq.z.tolist()))


def _singletons(order: np.ndarray) -> list[np.ndarray]:
    return [np.array([k]) for k in order.tolist()]


def _bins(table: tuple[np.ndarray, np.ndarray]) -> list[np.ndarray]:
    members, offsets = table
    return np.split(members, offsets[1:-1])


@pytest.fixture(scope="module")
def recorded() -> list[dict]:
    """Each sequence's partition with the reference loop, and the arguments of its call."""
    out = []
    for gamma, seq in CORPUS:
        fits = []

        def record_fit(L, order, floor, fits=fits):
            fits.append((L, order.copy(), floor))
            return part_table(first_fit_reference(L, _singletons(order), floor))

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(decompose, "_first_fit", record_fit)
            partition = _split(gamma, seq)
        out.append({"partition": partition, "fits": fits})
    return out


def _same_arrays(got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    return len(got) == len(want) and all(np.array_equal(g, w) for g, w in zip(got, want))


def test_corpus_covers_sizes_thresholds_and_group_shapes(recorded) -> None:
    sizes = [len(seq) for _, seq in CORPUS]
    assert min(sizes) == 2 and max(sizes) == 300
    stars = [r["partition"].global_info["delta_star"] for r in recorded]
    assert min(stars) < 0.07 and max(stars) > 0.9999
    assert all(len(r["fits"]) == 1 for r in recorded)
    part_sizes = {p.size for r in recorded for p in r["partition"].parts}
    assert {1, 2, 3} <= part_sizes


def test_order_is_decreasing_clash_degree_then_row_sum(recorded) -> None:
    for r in recorded:
        ((L, order, _),) = r["fits"]
        assert sorted(order.tolist()) == list(range(len(L)))
        degree = (L < math.log(r["partition"].global_info["delta_star"])).sum(axis=1)[order]
        sums = L.sum(axis=1)[order]
        assert (np.diff(degree) <= 0).all()
        tied = np.diff(degree) == 0
        assert (np.diff(sums)[tied] >= 0).all()
        assert (np.diff(order)[tied & (np.diff(sums) == 0)] > 0).all()


@pytest.mark.parametrize("floor", ["recorded", "-inf"])
def test_first_fit_matches_reference(recorded, floor) -> None:
    for r in recorded:
        for L, order, log_floor in r["fits"]:
            if floor == "-inf":
                log_floor = -math.inf
            got = _bins(decompose._first_fit(L, order, log_floor))
            assert _same_arrays(got, first_fit_reference(L, _singletons(order), log_floor))


@pytest.mark.parametrize("floor", ["recorded", "-inf"])
def test_minus_inf_entries_match_reference(recorded, floor) -> None:
    # distinct points never lie at distance 0, so -inf entries of L are
    # planted: one pair inside an emitted bin, one across two bins
    checked = 0
    for r in recorded:
        for L, order, log_floor in r["fits"]:
            bins = first_fit_reference(L, _singletons(order), log_floor)
            pair = next((b for b in bins if len(b) >= 2), None)
            if pair is None or len(bins) < 2:
                continue
            L = L.copy()
            i, j = int(pair[0]), int(pair[1])
            k = int(next(b for b in bins[::-1] if b is not pair)[0])
            L[i, j] = L[j, i] = L[i, k] = L[k, i] = -math.inf
            if floor == "-inf":
                log_floor = -math.inf
            got = _bins(decompose._first_fit(L, order, log_floor))
            assert _same_arrays(got, first_fit_reference(L, _singletons(order), log_floor))
            checked += 1
    assert checked >= 20


def test_reports_match_with_reference_loops(recorded) -> None:
    for (gamma, seq), r in zip(CORPUS, recorded):
        partition = _split(gamma, seq)
        assert partition_text(partition, seq.ids) == partition_text(r["partition"], seq.ids)


def test_first_fit_keeps_the_running_sums_of_a_joined_group() -> None:
    # 1 and then 2 join {0}, one point at a time; then 3 fits every row but point 2's, whose
    # running sum -0.6 would fall to -1.1, below the floor -1
    L = np.zeros((4, 4))
    for i, j, v in [(0, 1, -0.1), (0, 2, -0.3), (1, 2, -0.3), (0, 3, -0.05), (1, 3, -0.05), (2, 3, -0.5)]:
        L[i, j] = L[j, i] = v
    order = np.arange(4)
    bins = _bins(decompose._first_fit(L, order, -1.0))
    assert [b.tolist() for b in bins] == [[0, 1, 2], [3]]
    assert _same_arrays(bins, first_fit_reference(L, _singletons(order), -1.0))


@pytest.mark.parametrize("planted", [False, True])
def test_stacked_reverification_matches_one_block_at_a_time(recorded, planted) -> None:
    ((L, _, _),) = recorded[-1]["fits"]  # 300 points
    rng = np.random.default_rng(20)
    parts = [rng.choice(len(L), size=m, replace=False) for m in range(1, 21) for _ in range(3)]
    if planted:  # -inf pairs inside every other part of two or more points
        L = L.copy()
        for idx in parts[3::2]:
            L[idx[0], idx[-1]] = L[idx[-1], idx[0]] = -math.inf
    want = [0.0 if idx.size == 1 else L[idx][:, idx].sum(axis=1).min() for idx in parts]
    members, offsets = part_table(parts)
    got = decompose._log_deltas(L, members, offsets)
    assert got.tobytes() == np.array(want).tobytes()
    assert np.isneginf(got).any() == planted


def _counted_first_fit(monkeypatch, L: np.ndarray, order: np.ndarray, log_floor: float):
    """``_first_fit``'s bins, and the number of ``np.bincount`` calls it made."""
    calls = []
    bincount = np.bincount
    monkeypatch.setattr(np, "bincount", lambda *a, **k: calls.append(a) or bincount(*a, **k))
    bins = _bins(decompose._first_fit(L, order, log_floor))
    monkeypatch.undo()
    assert _same_arrays(bins, first_fit_reference(L, _singletons(order), log_floor))
    return bins, len(calls)


def test_first_fit_opens_a_bin_at_once_for_a_point_near_every_placed_one(monkeypatch) -> None:
    # points 0-4 clash pairwise; 5 and 6 clash with nothing and join point 0
    L = np.zeros((7, 7))
    L[:5, :5] = -2.0
    np.fill_diagonal(L, 0.0)
    bins, calls = _counted_first_fit(monkeypatch, L, np.arange(7), -1.0)
    assert [b.tolist() for b in bins] == [[0, 5, 6], [1], [2], [3], [4]]
    assert calls == 2 + 1  # one per point 5 and 6, one to list the bins


def test_first_fit_of_one_clique_takes_only_the_final_bincount(monkeypatch) -> None:
    # six points clash pairwise, placed in a shuffled order: one bin each
    L = np.full((6, 6), -2.0)
    np.fill_diagonal(L, 0.0)
    order = np.array([3, 0, 5, 1, 4, 2])
    bins, calls = _counted_first_fit(monkeypatch, L, order, -1.0)
    assert [b.tolist() for b in bins] == [[3], [0], [5], [1], [4], [2]]
    assert calls == 1


def test_first_fit_tries_a_point_near_every_placed_one_after_a_broken_head(monkeypatch) -> None:
    # 0 and 1 clash; 2 clashes with neither and joins 0, which ends the head;
    # 3 clashes with 0, 1 and 2, so its one trial finds every bin shut
    L = np.zeros((4, 4))
    for i, j in [(0, 1), (0, 3), (1, 3), (2, 3)]:
        L[i, j] = L[j, i] = -2.0
    bins, calls = _counted_first_fit(monkeypatch, L, np.arange(4), -1.0)
    assert [b.tolist() for b in bins] == [[0, 2], [1], [3]]
    assert calls == 2 + 1  # one per point 2 and 3, one to list the bins


def test_first_fit_of_one_point_at_a_floor_of_minus_inf(monkeypatch) -> None:
    bins, calls = _counted_first_fit(monkeypatch, np.zeros((1, 1)), np.arange(1), -math.inf)
    assert [b.tolist() for b in bins] == [[0]]
    assert calls == 1


def test_certificate_columns_are_the_scalar_arithmetic(recorded) -> None:
    # phi and gamma * phi over a column equal the scalar earl_bound bit for bit:
    # at 1, at the smallest delta with a finite phi, and next to delta*
    deltas = [1.0, decompose._DELTA_FINITE, *np.linspace(0.05, 1.0, 40).tolist()]
    for gamma in (1e-300, 1e-3, 0.3, 0.99):
        star = interpolation_threshold(gamma)
        deltas += [star, math.nextafter(star, 0.0), math.nextafter(star, 2.0), star * (1 + 1e-9)]
    phi = _earl_bounds(np.array(deltas))
    assert phi.tobytes() == np.array([earl_bound(d) for d in deltas]).tobytes()
    for gamma in (0.0, 1e-300, 0.3, 0.99):
        want = np.array([gamma * earl_bound(d) for d in deltas])
        assert (gamma * phi).tobytes() == want.tobytes()
    # and so do the columns of every partition the splitter emitted
    for r in recorded:
        p = r["partition"]
        gamma = p.global_info["gamma"]
        assert (p.gamma == gamma).all()
        assert p.earl_value.tobytes() == np.array([earl_bound(d) for d in p.delta_j.tolist()]).tobytes()
        want = np.array([gamma * earl_bound(d) for d in p.delta_j.tolist()])
        assert p.dist_bound.tobytes() == want.tobytes()


def test_a_part_merged_at_delta_star_fails_its_reverification(monkeypatch) -> None:
    # at gamma 0.3, gamma * phi(delta*) rounds up to 1, so a part whose
    # constant is delta* itself is refused, though delta_j >= delta* holds
    star = interpolation_threshold(0.3)
    assert 0.3 * earl_bound(star) >= 1.0
    L = np.array([[0.0, math.log(star)], [math.log(star), 0.0]])
    monkeypatch.setattr(decompose, "_first_fit", lambda L, order, floor: (np.arange(2), np.array([0, 2])))
    with pytest.raises(NumericDomainError, match="re-verification failed"):
        decompose.split_log_distances(L, np.arange(2), 0.3)
