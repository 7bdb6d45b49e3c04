import cmath
import math

import numpy as np
import pytest

from conftest import UnitPointReference, first_coincidence_reference

from mslab.errors import ConfigError
from mslab.points import (
    ANGLE_TOL,
    BOUNDARY_TOL,
    PointSequence,
    angle_distance,
    coincident_pair,
    normalize_angle,
)


def test_normalize_angle_window() -> None:
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(2 * math.pi) == 0.0
    assert normalize_angle(-0.5) == pytest.approx(2 * math.pi - 0.5)
    assert 0.0 <= normalize_angle(123.456) < 2 * math.pi


def test_angle_distance_shortest() -> None:
    assert angle_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert angle_distance(1.0, 1.0) == 0.0


def test_from_complex_classifies() -> None:
    seq = PointSequence.from_complex([0.3 + 0.4j, complex(math.cos(1.0), math.sin(1.0))])
    assert seq.boundary.tolist() == [False, True]
    assert math.isnan(seq.angle[0]) and seq.z[0] == 0.3 + 0.4j
    assert seq.angle[1] == pytest.approx(1.0)
    assert abs(seq.z[1]) == pytest.approx(1.0)
    assert seq.ids.tolist() == [0, 1]


def test_outside_disk_rejected() -> None:
    with pytest.raises(ConfigError, match="outside the closed disk"):
        PointSequence.from_complex([0.1, 1.5])
    with pytest.raises(ConfigError, match="interior point must satisfy"):
        PointSequence([1.0], [math.nan], [0])
    with pytest.raises(ConfigError, match="boundary points must be"):
        PointSequence([1.0], [2 * math.pi], [0])
    with pytest.raises(ConfigError, match="boundary points must be"):
        PointSequence([1.0], [0.5], [0])  # z is not exp(0.5 i)
    with pytest.raises(ConfigError, match="finite"):
        PointSequence.from_angles([math.inf])


def test_boundary_stored_by_angle() -> None:
    seq = PointSequence.from_angles([7.0])  # wraps past 2*pi
    assert 0.0 <= seq.angle[0] < 2 * math.pi
    assert angle_distance(seq.angle[0], PointSequence.from_angles([7.0 - 2 * math.pi]).angle[0]) <= ANGLE_TOL
    assert seq.z[0] == np.exp(1j * seq.angle[0])


def test_sequence_rejects_duplicates() -> None:
    with pytest.raises(ConfigError):
        PointSequence.from_complex([0.0, 0.0])


def test_sequence_rejects_duplicate_ids() -> None:
    with pytest.raises(ConfigError, match="ids must be unique"):
        PointSequence.from_complex([0.1, 0.2], ids=[3, 3])


def test_sequence_rejects_unequal_lengths() -> None:
    with pytest.raises(ConfigError, match="equal length"):
        PointSequence([0.1, 0.2], [math.nan, math.nan], [0])
    with pytest.raises(ConfigError, match="equal length"):
        PointSequence.from_mixed([0.1, 0.2], [math.nan])


def test_sequence_allows_close_pairs() -> None:
    seq = PointSequence.from_complex([0.0, 1e-9])
    assert len(seq) == 2


def test_subset_and_interior_only() -> None:
    seq = PointSequence.from_mixed([0.1, 0, -0.2j], [math.nan, 0.5, math.nan])
    sub = seq.subset([2, 0])
    assert sub.ids.tolist() == [2, 0]
    assert sub.z.tolist() == [-0.2j, 0.1]
    inter = seq.interior_only()
    assert inter.ids.tolist() == [0, 2]
    assert seq.boundary.tolist() == [False, True, False]
    with pytest.raises(IndexError):
        seq.subset([99])


def test_arrays_are_read_only() -> None:
    seq = PointSequence.from_complex([0.1, 0.2])
    for arr in (seq.z, seq.angle, seq.ids):
        with pytest.raises(ValueError):
            arr[0] = 0


# ---------------------------------------------------------------------------
# the array constructors against the per-point reference classifier
# ---------------------------------------------------------------------------

def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()


def _reference_arrays(points: list[UnitPointReference]) -> tuple[np.ndarray, np.ndarray]:
    z = np.array([p.value for p in points], dtype=complex)
    angle = np.array([math.nan if p.angle is None else p.angle for p in points])
    return z, angle


def _assert_bitwise(seq: PointSequence, points: list[UnitPointReference]) -> None:
    z, angle = _reference_arrays(points)
    assert _bits(seq.z) == _bits(z)
    assert _bits(seq.angle) == _bits(angle)
    assert seq.boundary.tolist() == [p.angle is not None for p in points]


def _split_coincident(points: list[UnitPointReference]) -> tuple[list[int], list[int]]:
    """Positions of the first point of each value, and of the points repeating a value."""
    first: list[int] = []
    again: list[int] = []
    seen: set[complex] = set()
    for k, p in enumerate(points):
        (again if p.value in seen else first).append(k)
        seen.add(p.value)
    return first, again


def _near_circle(rng: np.random.Generator) -> list[complex]:
    """Moduli 1 and 1 - 1e-14 up to 3 ulps either side, on the axes and at random angles."""
    out = []
    for edge in (1.0, 1.0 - BOUNDARY_TOL):
        r = edge
        for _ in range(3):
            r = np.nextafter(r, 0.0)
        for _ in range(7):
            for t in (0.0, math.pi / 2, math.pi, -math.pi / 2):
                out.append(r * cmath.exp(1j * t))
            out.append(complex(r, 0.0))
            out.append(complex(-r, 0.0))
            out.append(complex(-0.0, r))
            out += [r * cmath.exp(1j * t) for t in rng.uniform(-math.pi, math.pi, 40)]
            r = float(np.nextafter(r, 2.0))
    return out


def _classifier_corpus() -> list[complex]:
    """Random values in the disk, signed zeros, and ``_near_circle``'s values."""
    rng = np.random.default_rng(20)
    radii = np.sqrt(rng.uniform(0.0, 1.0, 400))
    angles = rng.uniform(-math.pi, math.pi, 400)
    inside = [complex(r * math.cos(a), r * math.sin(a)) for r, a in zip(radii, angles)]
    # signed zeros in either part, among them boundary points at phase -0.0 and -pi
    signed = [
        complex(s * x, t * y)
        for x, y in ((0.0, 0.0), (1.0, 0.0), (0.5, 0.0), (1.0 - BOUNDARY_TOL, 0.0), (0.0, 1.0))
        for s in (1.0, -1.0)
        for t in (1.0, -1.0)
    ]
    return inside + signed + _near_circle(rng)


def test_from_complex_matches_reference_classifier() -> None:
    # the first point of each classified value in one sequence, and each
    # point that repeats a value (a boundary point at an angle taken before,
    # a signed zero) in a sequence of its own
    corpus = _classifier_corpus()
    points = [UnitPointReference.from_complex(z) for z in corpus]
    on = sum(p.angle is not None for p in points)
    assert 100 < on < len(points) - 100  # both sides of the threshold are exercised
    first, again = _split_coincident(points)
    seq = PointSequence.from_complex([corpus[k] for k in first])
    _assert_bitwise(seq, [points[k] for k in first])
    for k in again:
        _assert_bitwise(PointSequence.from_complex([corpus[k]]), [points[k]])


@pytest.mark.parametrize("outside", [complex(1.0 + 2e-14, 0.0), 1.5j, complex(-0.8, 0.8)])
def test_from_complex_refuses_as_the_reference_does(outside: complex) -> None:
    with pytest.raises(ConfigError) as want:
        UnitPointReference.from_complex(outside)
    with pytest.raises(ConfigError) as got:
        PointSequence.from_complex([0.1, outside, 2.0])
    assert str(got.value) == str(want.value)


def test_from_angles_matches_reference_classifier() -> None:
    rng = np.random.default_rng(21)
    two_pi = 2.0 * math.pi
    angles = (
        rng.uniform(0.0, two_pi, 300).tolist()
        + rng.uniform(-50.0, 0.0, 100).tolist()  # negative
        + rng.uniform(two_pi, 60.0, 100).tolist()  # at or past 2*pi
        + [float(np.nextafter(two_pi, 0.0)), -1e-300, 1e6 + 0.5]
    )
    points = [UnitPointReference.boundary(a) for a in angles]
    _assert_bitwise(PointSequence.from_angles(angles), points)
    # angles of one point, each in a sequence of its own
    for a in (0.0, -0.0, two_pi, -two_pi, 4 * math.pi, -math.pi, math.pi):
        _assert_bitwise(PointSequence.from_angles([a]), [UnitPointReference.boundary(a)])


def test_from_mixed_matches_reference_classifier() -> None:
    rng = np.random.default_rng(22)
    corpus = _classifier_corpus()
    first, _ = _split_coincident([UnitPointReference.from_complex(z) for z in corpus])
    corpus = [corpus[k] for k in first[::3]]
    angles = [math.nan] * len(corpus)
    # boundary entries between the classified ones, away from their angles
    for k in rng.choice(len(corpus), 30, replace=False).tolist():
        corpus.insert(k, 0j)
        angles.insert(k, float(rng.uniform(-10.0, 10.0)))
    points = [
        UnitPointReference.from_complex(z) if math.isnan(a) else UnitPointReference.boundary(a)
        for z, a in zip(corpus, angles)
    ]
    _assert_bitwise(PointSequence.from_mixed(corpus, angles), points)


# ---------------------------------------------------------------------------
# the sort-based coincidence finder against the dict scan
# ---------------------------------------------------------------------------

def _planted(rng: np.random.Generator, n: int, pool: int) -> list[complex]:
    """n values drawn from a pool of ``pool`` distinct ones: duplicates are planted."""
    base = [complex(x, y) for x, y in rng.uniform(-0.6, 0.6, (pool, 2))]
    base[0] = 0j
    out = [base[k] for k in rng.integers(0, pool, n)]
    # signed zeros coincide with 0j, as they do in a dict
    return [complex(-0.0, 0.0) if z == 0 and rng.uniform() < 0.5 else z for z in out]


@pytest.mark.parametrize("seed", range(40))
def test_coincident_pair_matches_dict_scan(seed: int) -> None:
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    values = _planted(rng, n, int(rng.integers(1, n + 2)))
    ids = (7 * rng.permutation(n) + 3).tolist()
    want = first_coincidence_reference(values, ids)
    pair = coincident_pair(np.array(values))
    got = None if pair is None else (ids[pair[0]], ids[pair[1]])
    assert got == want
    if want is None:
        assert len(PointSequence.from_complex(values, ids)) == n
    else:
        message = f"points {want[0]} and {want[1]} coincide; sequence points must be distinct"
        with pytest.raises(ConfigError) as err:
            PointSequence.from_complex(values, ids)
        assert str(err.value) == message


def test_coincident_pair_cases() -> None:
    a, b = 0.1 + 0.2j, -0.3j
    assert coincident_pair(np.array([], dtype=complex)) is None
    assert coincident_pair(np.array([a, b])) is None
    assert coincident_pair(np.array([a, b, a])) == (0, 2)
    # the first point whose value occurred earlier: b at 2, not a at 3
    assert coincident_pair(np.array([a, b, b, a])) == (1, 2)
    assert coincident_pair(np.array([0j, complex(-0.0, -0.0)])) == (0, 1)
    # boundary points coincide when their canonical angles give one value
    with pytest.raises(ConfigError, match="points 0 and 1 coincide"):
        PointSequence.from_angles([0.0, 2 * math.pi])
