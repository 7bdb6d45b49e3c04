import cmath
import json
import math

import mpmath
import numpy as np
import pytest

from conftest import (
    eig_extremes_oracle,
    gram_oracle,
    library_gram,
    normalized_gram_exact,
    part_table,
    random_blaschke,
    section_bounds,
)

from mslab import gram
from mslab.cli import main
from mslab.errors import NumericDomainError, OnSpectrumError
from mslab.gram import block_frame_bounds, part_frame_bounds, section_frame_bounds
from mslab.inner import InnerFunction, normalized_values
from mslab.points import PointSequence

TWO_PI = 2.0 * math.pi


def _random_gram(rng: np.random.Generator, n: int) -> np.ndarray:
    """The Gram matrix of n random unit vectors of C^n: Hermitian, unit diagonal."""
    v = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    a = v.conj() @ v.T
    a = (a + a.conj().T) / 2.0
    np.fill_diagonal(a, 1.0)
    return a


def _whole(a: np.ndarray) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a whole Gram array, as one part of ``block_frame_bounds``."""
    n = a.shape[0]
    (low,), (high,) = block_frame_bounds(a, np.arange(n), np.array([0, n]))
    return float(low), float(high)


def _dense(theta: InnerFunction, seq: PointSequence) -> tuple[float, float]:
    """(lambda_min, lambda_max) of a sequence's assembled section, whatever its
    size: its eigenvalues, with no rank argument."""
    return _whole(library_gram(theta, seq))


def _clark_points(n: int) -> PointSequence:
    return PointSequence.from_angles([TWO_PI * k / n for k in range(n)])


# ---------------------------------------------------------------------------
# gram assembly
# ---------------------------------------------------------------------------

def test_gram_identity_for_cube_roots() -> None:
    z3 = InnerFunction(blaschke_zeros=(0, 0, 0))
    g = library_gram(z3, _clark_points(3))
    assert np.max(np.abs(g - np.eye(3))) <= 1e-12


def test_gram_singleton() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    g = library_gram(z2, PointSequence.from_complex([0.2 + 0.1j]))
    assert g.shape == (1, 1)
    assert g[0, 0] == pytest.approx(1.0)


def test_gram_example_entry() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    g = library_gram(z2, PointSequence.from_complex([0.0, 0.5]))
    assert g[0, 1] == pytest.approx(1.0 / math.sqrt(1.25))


def test_gram_unusable_norm_names_the_point() -> None:
    constant = InnerFunction()  # identically 1, kernels vanish
    with pytest.raises(NumericDomainError, match="point 0"):
        library_gram(constant, PointSequence.from_complex([0.3]))
    with pytest.raises(NumericDomainError, match="point 0"):
        section_bounds(constant, PointSequence.from_complex([0.3]))


def _oracle_corpus(rng: np.random.Generator, n: int) -> PointSequence:
    """Interior points, a few at 1 - |z| = 1e-9, and boundary points, pairwise apart."""
    angles = TWO_PI * (np.arange(n) + rng.uniform(0.1, 0.9, n)) / n
    radii = 0.95 * np.sqrt(rng.uniform(size=n))
    radii[::7] = 1.0 - 1e-9
    tags = np.full(n, math.nan)
    tags[5::11] = angles[5::11]
    return PointSequence.from_mixed(radii * np.exp(1j * angles), tags)


@pytest.mark.parametrize("n", [1, 2, 97, 256, 300])
def test_gram_matches_independent_oracle(n: int) -> None:
    rng = np.random.default_rng(n)
    theta = InnerFunction(
        blaschke_zeros=(0.0,) + random_blaschke(rng, 5).blaschke_zeros,
        singular_atoms=((0.05, 0.4), (3.3, 1.1)),
    )
    seq = _oracle_corpus(rng, n)
    g = library_gram(theta, seq)
    assert np.max(np.abs(g - gram_oracle(theta, seq))) <= 1e-12
    assert np.array_equal(g, g.conj().T)


def test_part_sections_are_exactly_hermitian_with_unit_diagonal(monkeypatch) -> None:
    # both properties hold by construction; nothing checks them at run time
    stacks = []
    sections = gram._sections
    monkeypatch.setattr(gram, "_sections", lambda *args: stacks.append(sections(*args)) or stacks[-1])
    rng = np.random.default_rng(97)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 6).blaschke_zeros, singular_atoms=((1.0, 0.5),)
    )
    corpus = _oracle_corpus(rng, 400)
    pairs = [0.2 + 0.1j, 0.2 + 1e-15 + 0.1j, -0.6j, -0.6j + 1e-15]  # two pairs 1e-15 apart
    seq = PointSequence.from_mixed(
        np.concatenate([corpus.z, pairs]), np.concatenate([corpus.angle, np.full(4, math.nan)])
    )
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    n = len(seq)
    # a part of 50, a stack of parts of 10, pairs, and the last 300 points,
    # the close pairs among them, in one part that takes several row blocks
    cuts = [0, 50] + [50 + 10 * k for k in range(1, 11)] + [150 + 2 * k for k in range(1, 31)]
    parts = [np.arange(a, b) for a, b in zip(cuts, cuts[1:])] + [np.arange(n - 300, n)]
    parts += [np.array([n - 4, n - 3]), np.array([n - 2, n - 1])]
    part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(parts))
    # random data, not from a Theta
    w = 0.95 * np.sqrt(rng.uniform(size=(1, 60))) * np.exp(1j * rng.uniform(0, TWO_PI, (1, 60)))
    v = rng.uniform(0, 0.9, w.shape) * np.exp(1j * rng.uniform(0, TWO_PI, w.shape))
    whole = np.arange(60), np.array([0, 60])
    part_frame_bounds(theta, w[0], v[0], rng.uniform(0.5, 50.0, 60), np.arange(60), *whole)
    assert {g.shape[1] for g in stacks} == {2, 10, 50, 300, 60}
    for g in stacks:
        assert np.array_equal(g, g.conj().swapaxes(1, 2))
        assert (g.diagonal(axis1=1, axis2=2) == 1.0).all()


def test_part_frame_bounds_match_one_section_at_a_time() -> None:
    rng = np.random.default_rng(83)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 4).blaschke_zeros, singular_atoms=((1.0, 0.5),)
    )
    seq = _oracle_corpus(rng, 1200)
    order = rng.permutation(len(seq))
    # 25 parts of 40 points fill two stacks; then pairs, singletons and one of 3
    cuts = [40 * k for k in range(26)] + [1000 + 2 * k for k in range(1, 80)] + [1197, 1200]
    parts = [np.sort(order[a:b]) for a, b in zip(cuts, cuts[1:])]
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    low, high = part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(parts))
    assert low.size == high.size == len(parts)
    for idx, lambda_min, lambda_max in zip(parts, low, high):
        want = np.linalg.eigvalsh(library_gram(theta, seq.subset(idx)))
        assert want.size == len(idx)
        assert lambda_min == pytest.approx(want[0], rel=1e-9, abs=1e-12)
        assert lambda_max == pytest.approx(want[-1], rel=1e-12)


def test_gram_bounds_clamp_roundoff_below_zero_per_section() -> None:
    # five 3 x 3 diagonal blocks, whose eigenvalues are their diagonals
    eigs = np.array(
        [[-5e-11, 0.5, 1.0], [-1e-9, 1.0, 2.0], [-0.0, 1.0, 1.5], [0.3, 0.35, 0.4], [-1e-10, 0.2, 0.5]]
    )
    g = np.diag(eigs.ravel()).astype(complex)
    low, high = block_frame_bounds(g, np.arange(15), np.arange(0, 16, 3))
    assert low.tolist() == [0.0, -1e-9, -0.0, 0.3, -1e-10]  # the clamp's window is open
    assert high.tolist() == [1.0, 2.0, 1.5, 0.4, 0.5]
    assert math.copysign(1.0, low[2]) == -1.0  # -0.0 is not below 0
    # unit-diagonal pairs take 1 -+ |G_21|, clamped alike
    c = np.array([1.0 + 2.0**-50, 1.0 + 1e-9]) * np.exp(0.3j)
    g = np.eye(4, dtype=complex)
    g[[1, 3], [0, 2]], g[[0, 2], [1, 3]] = c, c.conj()
    low, high = block_frame_bounds(g, np.arange(4), np.array([0, 2, 4]))
    assert low.tolist() == [0.0, 1.0 - np.abs(c)[1]] and low[1] < -1e-10
    assert high.tolist() == (1.0 + np.abs(c)).tolist()
    z6 = InnerFunction(blaschke_zeros=(0,) * 6)
    for bounds in (_whole(np.eye(3)), section_bounds(z6, _clark_points(6))):
        assert bounds == pytest.approx((1.0, 1.0), abs=1e-12)
        assert [type(b) for b in bounds] == [float, float]


def test_gram_inseparable_pair_names_both_points() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    seq = PointSequence.from_mixed([0.2, 0, 0], [math.nan, 0.5, 0.5 + 2e-15], ids=(7, 3, 9))
    with pytest.raises(NumericDomainError, match="points 3 and 9 are numerically inseparable"):
        library_gram(theta, seq)
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    with pytest.raises(NumericDomainError, match="points 3 and 9 are numerically inseparable"):
        part_frame_bounds(
            theta, seq.z, values, norms, seq.ids, *part_table([np.array([0]), np.array([1, 2])])
        )
    # the pair in different parts is no error
    low, high = part_frame_bounds(
        theta, seq.z, values, norms, seq.ids, *part_table([np.array([0, 1]), np.array([2])])
    )
    assert (low[1], high[1]) == (1.0, 1.0)


def test_gram_inseparable_refusal_names_the_first_part_then_the_first_pair() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    # boundary pairs 2e-15 apart: (10, 11) and (20, 21); a part of five points
    # whose positions 1, 4 (ids 31, 34) and 2, 3 (ids 32, 33) are such pairs
    angles = [0.5, 0.5 + 2e-15, 2.0, 2.0 + 2e-15, 1.0, 3.0, 4.0, 4.0 + 2e-15, 3.0 + 2e-15]
    ids = (10, 11, 20, 21, 30, 31, 32, 33, 34)
    seq = PointSequence.from_mixed(np.zeros(9), angles, ids=ids)
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    a, b, five = np.array([0, 1]), np.array([2, 3]), np.arange(4, 9)
    for parts, named in (
        ([a, b], "points 10 and 11"),
        ([b, a], "points 20 and 21"),
        ([five], "points 31 and 34"),  # row-major: (1, 4) comes before (2, 3)
    ):
        with pytest.raises(NumericDomainError, match=f"^{named} are numerically inseparable$"):
            part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(parts))


def test_gram_names_the_point_on_an_atom() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3,), singular_atoms=((1.0, 0.5),))
    seq = PointSequence.from_mixed([0.2, 0, 0], [math.nan, 2.0, 1.0], ids=(4, 5, 6))
    with pytest.raises(OnSpectrumError, match="point 6: "):
        library_gram(theta, seq)


def test_part_frame_bounds_unusable_norm_names_the_point() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j, 0.1))
    z = np.array([0.1, 0.2, 0.3], dtype=complex)
    values = np.zeros(3, dtype=complex)
    whole = np.arange(3), np.array([0, 3])
    with pytest.raises(NumericDomainError, match="point 12 has unusable"):
        part_frame_bounds(theta, z, values, np.array([1.0, 1.0, math.inf]), (10, 11, 12), *whole)
    with pytest.raises(NumericDomainError, match="point 11 has unusable"):
        part_frame_bounds(theta, z, values, np.array([1.0, -0.0, 1.0]), (10, 11, 12), *whole)


def _pair_corpus(rng: np.random.Generator, n: int) -> PointSequence:
    """n points and, after them, a partner for each: turned by 1e-6 to 1 rad, so
    |G_12| runs from about 0 to 1 - 1e-12; every third point within 1e-9 of
    the circle, and every fifth pair on it, tagged by angle."""
    angles = rng.uniform(0.0, TWO_PI, n)
    radii = 0.9 * np.sqrt(rng.uniform(size=n))
    radii[::3] = 1.0 - 1e-9
    turned = angles + 10.0 ** rng.uniform(-6.0, 0.0, n)
    z = np.concatenate([radii * np.exp(1j * angles), radii * np.exp(1j * turned)])
    tags = np.full(2 * n, math.nan)
    tags[:n:5], tags[n::5] = angles[::5], turned[::5]
    return PointSequence.from_mixed(z, tags)


def test_parts_of_one_or_two_points_match_exact_eigenvalues() -> None:
    rng = np.random.default_rng(26)
    theta = InnerFunction(
        blaschke_zeros=random_blaschke(rng, 4).blaschke_zeros,
        singular_atoms=((1.0, 0.5), (4.0, 2.0)),
    )
    n = 300
    seq = _pair_corpus(rng, n)
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    parts = [np.array([k, n + k]) for k in range(n)] + [np.array([k]) for k in range(0, 2 * n, 7)]
    low, high = part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(parts))
    ulp = np.spacing(1.0)
    entries = []
    for idx, lambda_min, lambda_max in zip(parts, low, high):
        g = library_gram(theta, seq.subset(idx))
        entries.append(g[-1, 0] if idx.size == 2 else 0j)
        # the eigenvalues of the stored section are 1 -+ |G_21|, in exact arithmetic
        c = mpmath.sqrt(mpmath.mpf(entries[-1].real) ** 2 + mpmath.mpf(entries[-1].imag) ** 2)
        assert abs(lambda_max - (1 + c)) <= ulp
        assert abs(lambda_min - (1 - c)) <= ulp or (lambda_min == 0.0 and -1e-10 < 1 - c < 0)
        # cyclic Jacobi is itself up to about 4 ulps off on these
        want = eig_extremes_oracle(g)
        assert abs(lambda_min - want[0]) <= 8 * ulp or lambda_min == 0.0
        assert abs(lambda_max - want[1]) <= 8 * ulp
    # the closed form, from the entries the sections hold (none for one point),
    # with the clamp: |G_21| reaches 1 + 1.1e-11 next to the circle
    c = np.abs(entries)
    assert low.tolist() == np.where((-1e-10 < 1.0 - c) & (c > 1.0), 0.0, 1.0 - c).tolist()
    assert high.tolist() == (1.0 + c).tolist()
    assert 0.0 < c[:n].min() < 1e-3 and (c > 1.0 - 1e-11).any() and (low == 0.0).any()


def test_parts_of_one_or_two_points_run_no_eigensolver(monkeypatch) -> None:
    calls = []
    sections, eigvalsh = gram._sections, np.linalg.eigvalsh
    monkeypatch.setattr(gram, "_sections", lambda *a: calls.append("sections") or sections(*a))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append("eigvalsh") or eigvalsh(a))
    seq = _oracle_corpus(np.random.default_rng(3), 9)
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    small = [np.array([0]), np.array([1, 2]), np.array([3, 4]), np.array([5])]
    part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(small))
    assert calls == ["sections", "sections"]  # one stack per size
    block_frame_bounds(np.eye(6), *part_table(small))
    assert calls == ["sections", "sections"]
    calls.clear()
    part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(small + [np.arange(6, 9)]))
    assert calls == ["sections", "sections", "sections", "eigvalsh"]


def test_closed_form_refuses_as_sections_do() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    seq = PointSequence.from_mixed(
        [0.2, 0, 0, -0.4 + 0.3j], [math.nan, 0.5, 0.5 + 2e-15, math.nan], ids=(7, 3, 9, 4)
    )
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)

    def refusals(values, norms, parts) -> tuple[str, str]:
        """The closed form's message on ``parts``, and that of the assembled
        section of the last part, bounded as a whole."""
        idx = parts[-1]
        out = []
        for run in (
            lambda: part_frame_bounds(theta, seq.z, values, norms, seq.ids, *part_table(parts)),
            lambda: _whole(
                gram._sections(seq.z[idx][None], values[idx][None], norms[idx][None], [seq.ids[idx]])[0]
            ),
        ):
            with pytest.raises(NumericDomainError) as exc:
                run()
            out.append(str(exc.value))
        return tuple(out)

    inseparable = "points 3 and 9 are numerically inseparable"
    assert refusals(values, norms, [np.array([0, 3]), np.array([1, 2])]) == (inseparable,) * 2
    for k, bad in ((0, 0.0), (3, math.inf), (1, -1.0)):
        broken = norms.copy()
        broken[k] = bad
        message = f"point {seq.ids[k]} has unusable kernel norm squared {bad!r}"
        for parts in ([np.array([k])], [np.array([2]), np.array(sorted({k, 2}))]):
            assert refusals(values, broken, parts) == (message,) * 2
    non_finite = "eigenvalue input has non-finite entries"
    broken = values.copy()
    broken[3] = math.nan
    assert refusals(broken, norms, [np.array([0, 3])]) == (non_finite,) * 2


def test_empty_part_or_sequence_is_refused() -> None:
    seq = PointSequence.from_complex([0.1, 0.2j])
    theta = InnerFunction(blaschke_zeros=(0.3,))
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    with pytest.raises(NumericDomainError, match="part 1 is empty"):
        part_frame_bounds(theta, seq.z, values, norms, seq.ids, np.arange(2), np.array([0, 1, 1, 2]))
    with pytest.raises(NumericDomainError, match="part 0 is empty"):
        block_frame_bounds(np.eye(2), np.zeros(0, dtype=int), np.array([0, 0]))
    empty = np.zeros(0, dtype=complex)
    with pytest.raises(NumericDomainError, match="part 0 is empty"):
        section_frame_bounds(theta, empty, empty, np.zeros(0), ())


def test_by_size_groups_parts_in_order_of_first_appearance() -> None:
    sizes = [1, 2, 0, 1, 3, 2]
    offsets = np.cumsum([0] + sizes)
    want: dict[int, tuple[list[int], list[list[int]]]] = {}
    for k, m in enumerate(sizes):
        parts, slots = want.setdefault(m, ([], []))
        parts.append(k)
        slots.append(list(range(offsets[k], offsets[k + 1])))
    got = list(gram._by_size(offsets))
    assert [slots.shape[1] for _, slots in got] == [1, 2, 0, 3]
    for (parts, slots), (want_parts, want_slots) in zip(got, want.values()):
        assert parts.tolist() == want_parts
        assert slots.shape == (len(want_parts), len(want_slots[0]))
        assert slots.tolist() == want_slots


# ---------------------------------------------------------------------------
# extremal eigenvalues
# ---------------------------------------------------------------------------

def test_eigs_identity() -> None:
    assert _whole(np.eye(5, dtype=np.complex128)) == (1.0, 1.0)


def test_eigs_two_by_two_closed_form() -> None:
    for g_off in (0.1, 0.45, 0.894427190999916):
        m = np.array([[1.0, g_off], [g_off, 1.0]], dtype=np.complex128)
        low, high = _whole(m)
        assert low == pytest.approx(1.0 - g_off, rel=1e-12)
        assert high == pytest.approx(1.0 + g_off, rel=1e-12)


def test_eigs_match_numpy_oracle() -> None:
    rng = np.random.default_rng(12)
    for n in (1, 2, 3, 5, 8, 13, 21, 40):
        a = _random_gram(rng, n)
        lo, hi = eig_extremes_oracle(a)
        low, high = _whole(a)
        scale = max(1.0, abs(lo), abs(hi))
        assert abs(low - lo) <= 1e-10 * scale
        assert abs(high - hi) <= 1e-10 * scale


def test_eigs_reject_non_finite() -> None:
    # LAPACK would return NaN bounds
    a = np.eye(2, dtype=np.complex128)
    a[0, 1] = a[1, 0] = np.nan
    with pytest.raises(NumericDomainError, match="non-finite entries"):
        _whole(a)


def test_eigs_large_section_spike() -> None:
    n = 600
    rng = np.random.default_rng(15)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    v /= np.abs(v)  # unimodular entries: v v* has unit diagonal
    # (1 - c) I + c v v* has unit diagonal and top eigenvalue 1 - c + c n
    spike = 3.0
    c = spike / n
    a = (1.0 - c) * np.eye(n, dtype=np.complex128) + c * np.outer(v, v.conj())
    a = (a + a.conj().T) / 2.0
    np.fill_diagonal(a, 1.0)
    low, high = _whole(a)
    assert high == pytest.approx(1.0 - c + spike, rel=1e-9)
    assert low == pytest.approx(1.0 - c, rel=1e-9)


def test_eigs_singular_large_section_not_certified() -> None:
    # 520 points against a degree-5 Theta: the section has rank <= 5, so a
    # lambda_min above the rounding floor would be a false Riesz certificate
    rng = np.random.default_rng(7)
    theta = random_blaschke(rng, 5)
    radii = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 520))
    angles = rng.uniform(0.0, TWO_PI, 520)
    seq = PointSequence.from_complex(radii * np.exp(1j * angles))
    low, high = _dense(theta, seq)
    assert low <= len(seq) * np.finfo(float).eps * high


def test_interlacing_under_point_addition() -> None:
    rng = np.random.default_rng(13)
    theta = random_blaschke(rng, 4)
    pts = [
        0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(8)
    ]
    seq_small = PointSequence.from_complex(pts[:-1])
    seq_big = PointSequence.from_complex(pts)
    small = _dense(theta, seq_small)
    big = _dense(theta, seq_big)
    assert big[0] <= small[0] + 1e-10
    assert big[1] >= small[1] - 1e-10


def test_frame_operator_subadditivity() -> None:
    rng = np.random.default_rng(14)
    theta = random_blaschke(rng, 3)
    pts = [
        0.85 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0, TWO_PI))
        for _ in range(10)
    ]
    union = PointSequence.from_complex(pts)
    first = union.subset(np.arange(5))
    second = union.subset(np.arange(5, 10))
    lam_union = _dense(theta, union)[1]
    lam_1 = _dense(theta, first)[1]
    lam_2 = _dense(theta, second)[1]
    assert lam_union <= lam_1 + lam_2 + 1e-10


# ---------------------------------------------------------------------------
# the two routes of section_frame_bounds
# ---------------------------------------------------------------------------

_ROUTE_CASES = [f"degree {d}" for d in range(1, 9)] + [
    "degree 200, 260 points",
    "degree 500, 520 points",
    "zeros at 0",
    "boundary points",
]


def _route_case(name: str) -> tuple[InnerFunction, PointSequence]:
    """A Blaschke product of degree d and n > d points in |z| <= 0.9 or on the circle."""
    rng = np.random.default_rng(_ROUTE_CASES.index(name) + 31)
    if name == "degree 200, 260 points":
        theta, n = random_blaschke(rng, 200), 260
    elif name == "degree 500, 520 points":
        theta, n = random_blaschke(rng, 500), 520
    elif name == "zeros at 0":
        theta, n = InnerFunction((0, 0, 0) + random_blaschke(rng, 3).blaschke_zeros), 20
    elif name == "boundary points":
        theta, n = random_blaschke(rng, 4), 30
    else:
        degree = int(name.split()[1])
        theta, n = random_blaschke(rng, degree), degree + 1 + int(rng.integers(0, 40))
    radii = 0.9 * np.sqrt(rng.uniform(size=n))
    angles = rng.uniform(0.0, TWO_PI, n)
    tags = np.full(n, math.nan)
    if name == "boundary points":
        tags[::3] = angles[::3]
    return theta, PointSequence.from_mixed(radii * np.exp(1j * angles), tags)


def _routes(theta: InnerFunction, seq: PointSequence) -> tuple:
    """(factored, dense) frame bounds, or the messages of their refusals."""
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    return _both(theta, seq.z, values, norms, seq.ids)


def _both(theta, z, values, norms, ids) -> tuple:
    out = []
    dense = lambda _t, z, values, norms, ids: _whole(  # noqa: E731
        gram._sections(z[None], values[None], norms[None], [ids])[0]
    )
    for route in (section_frame_bounds, dense):
        try:
            out.append(route(theta, z, values, norms, ids))
        except NumericDomainError as exc:
            out.append(str(exc))
    return tuple(out)


@pytest.mark.parametrize("name", _ROUTE_CASES)
def test_factored_route_matches_the_dense_route(name: str) -> None:
    theta, seq = _route_case(name)
    factored, dense = _routes(theta, seq)
    assert len(seq) > theta.degree
    assert factored[0] == 0.0  # by rank
    assert dense[0] <= len(seq) * np.finfo(float).eps * dense[1]
    assert abs(factored[1] - dense[1]) <= 1e-13 * dense[1]


def test_parts_of_more_points_than_the_degree_have_lambda_min_zero_by_rank() -> None:
    # three kernels of a two-dimensional K_Theta are dependent, yet the
    # eigensolver's lambda_min of such a part is roundoff of either sign:
    # read off the eigenvalues, 109 of these 200 parts were above 0 (up to 6e-15)
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    seq = PointSequence.from_angles(np.random.default_rng(2).uniform(0.0, TWO_PI, 604))
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    offsets = np.append(np.arange(0, 601, 3), [602, 604])  # then two pairs
    low, high = part_frame_bounds(theta, seq.z, values, norms, seq.ids, np.arange(604), offsets)
    assert low[:200].tolist() == [0.0] * 200
    for k, (a, b) in enumerate(zip(offsets, offsets[1:])):
        part = seq.subset(np.arange(a, b))
        assert high[k] == pytest.approx(section_bounds(theta, part)[1], rel=1e-13)
        if b - a == 2:  # within the degree: the eigenvalues stand
            assert (low[k], high[k]) == _whole(library_gram(theta, part)) and low[k] > 0.0
    # with an atom, K_Theta is infinite-dimensional and no rank argument applies
    atom = InnerFunction(theta.blaschke_zeros, singular_atoms=((1.0, 0.5),))
    values, norms = normalized_values(atom, seq.z, seq.angle, seq.ids)
    low, _ = part_frame_bounds(atom, seq.z, values, norms, seq.ids, np.arange(604), offsets)
    assert (low > 0.0).all()


def test_frame_bounds_next_to_zeros_at_the_circle_match_exact_rationals() -> None:
    # 1 - conj(Theta(l_j)) Theta(l_i) cancels as |Theta| -> 1: the assembled
    # section gave lambda_min = -7.7e-4 and lambda_max 1.2e-4 off here
    zeros = tuple((1.0 - 1e-12) * cmath.exp(1j * a) for a in (0.3, 2.0, 4.1))
    theta = InnerFunction(blaschke_zeros=zeros)
    rng = np.random.default_rng(5)
    pts = [
        0.9 * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))
        for _ in range(20)
    ]
    seq = PointSequence.from_complex(pts)
    lo, hi = eig_extremes_oracle(normalized_gram_exact(zeros, pts))
    assert abs(lo) <= 20 * np.finfo(float).eps * hi
    low, high = section_bounds(theta, seq)
    assert low == 0.0
    assert abs(high - hi) <= 1e-13 * hi


@pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
def test_factored_rows_stay_unit_next_to_zeros_at_the_circle(gap: float) -> None:
    # points next to each zero: inside, at the edge 1 - |z| < 1e-12 and on
    # the circle.  Each row of V must have unit norm to 1e-12, or the route
    # refuses; 1 - conj(a) z formed by plain subtraction inside, or off the
    # circle at boundary points, was up to 7e-4 off
    angles = (0.4, 2.5, 4.1)
    theta = InnerFunction(blaschke_zeros=tuple((1.0 - gap) * cmath.exp(1j * a) for a in angles))
    inside = [
        (1.0 - depth) * cmath.exp(1j * (a + da))
        for a in angles
        for depth in (1e-3, 2e-6, 2e-9, 2e-12, 1e-13)
        for da in (0.0, 1e-7, 1e-3)
    ]
    on = [a + da for a in angles for da in (1e-9, 1e-5, 0.1)]
    pts = inside + [0j] * len(on)
    seq = PointSequence.from_mixed(pts, [math.nan] * len(inside) + on)
    assert 1.0 <= section_bounds(theta, seq)[1] <= len(pts)


def test_factored_route_refuses_as_the_dense_route_does() -> None:
    theta = InnerFunction(blaschke_zeros=(0.3, -0.5j))
    seq = PointSequence.from_mixed(
        [0.2, 0, 0, -0.4 + 0.3j, 0, 0],
        [math.nan, 2.0, 1.0, math.nan, 2.0 + 2e-15, 1.0 + 2e-15],
        ids=(4, 5, 8, 0, 2, 9),
    )
    z = seq.z
    values, norms = normalized_values(theta, z, seq.angle, seq.ids)
    # two inseparable pairs: both routes name the first, in row order
    assert _both(theta, z, values, norms, seq.ids) == ("points 5 and 2 are numerically inseparable",) * 2
    keep = [0, 1, 2, 3]
    z, values, norms, ids = z[keep], values[keep], norms[keep], [seq.ids[k] for k in keep]
    bad = norms.copy()
    bad[2] = 0.0
    assert _both(theta, z, values, bad, ids) == ("point 8 has unusable kernel norm squared 0.0",) * 2
    bad = values.copy()
    bad[1] = math.nan
    assert _both(theta, z, bad, norms, ids) == ("eigenvalue input has non-finite entries",) * 2
    factored, dense = _both(theta, z, values, norms, ids)
    assert factored[0] == 0.0
    assert factored[1] == pytest.approx(dense[1], rel=1e-13)
    # a norm that does not belong to its point leaves a row of V off the unit sphere
    bad = norms.copy()
    bad[3] *= 1.01
    with pytest.raises(NumericDomainError, match="unit diagonal: point 0 has"):
        section_frame_bounds(theta, z, values, bad, ids)


def test_sections_with_atoms_or_few_points_take_the_dense_route(monkeypatch) -> None:
    def factored(*args):
        raise AssertionError("the factored route was taken")

    monkeypatch.setattr(gram, "_factored_gram", factored)
    rng = np.random.default_rng(41)
    theta = random_blaschke(rng, 5)
    atoms = InnerFunction(theta.blaschke_zeros, singular_atoms=((1.0, 0.5),))
    for th, n in ((theta, 5), (atoms, 12)):
        seq = _oracle_corpus(rng, n)
        values, norms = normalized_values(th, seq.z, seq.angle)
        low, high = section_frame_bounds(th, seq.z, values, norms, seq.ids)
        want = np.linalg.eigvalsh(library_gram(th, seq))
        assert (low, high) == pytest.approx((want[0], want[-1]), rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# Riesz and Bessel bounds
# ---------------------------------------------------------------------------

def test_certificate_soundness_clark_family() -> None:
    z6 = InnerFunction(blaschke_zeros=(0,) * 6)
    low, high = section_bounds(z6, _clark_points(6))
    assert low >= 0.99  # analyze's verdict at a floor of 0.99: certified
    assert low == pytest.approx(1.0, abs=1e-12)
    assert high == pytest.approx(1.0, abs=1e-12)


def test_verdict_indeterminate_for_close_pair() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    seq = PointSequence.from_complex([0.4, 0.4 + 1e-6])
    assert section_bounds(z2, seq)[0] < 0.1  # analyze's verdict at 0.1: indeterminate


def test_verdict_empty_rejected(tmp_path, capsys) -> None:
    # an empty sequence has no section to bound: the config reader refuses it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"inner": {"blaschke_zeros": [[0.0, 0.0]] * 2}, "points": []}))
    assert main(["analyze", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "mslab: config error: 'points' must be a non-empty list\n"
    assert not (tmp_path / "o").exists()


def test_bessel_estimate_orthonormal() -> None:
    z4 = InnerFunction(blaschke_zeros=(0,) * 4)
    assert section_bounds(z4, _clark_points(4))[1] == pytest.approx(1.0)


def test_bessel_estimate_near_duplicate_pair() -> None:
    z2 = InnerFunction(blaschke_zeros=(0, 0))
    est = section_bounds(z2, PointSequence.from_complex([0.3, 0.3 + 1e-7]))[1]
    assert est == pytest.approx(2.0, abs=1e-4)


def test_bessel_estimate_interleaved_clark_families() -> None:
    n = 6
    zn = InnerFunction(blaschke_zeros=(0,) * n)
    first = [TWO_PI * k / n for k in range(n)]
    second = [(TWO_PI * k + math.pi / n) / n for k in range(n)]
    seq = PointSequence.from_angles(first + second)
    est = section_bounds(zn, seq)[1]
    oracle = eig_extremes_oracle(library_gram(zn, seq))[1]
    assert est == pytest.approx(oracle, rel=1e-10)
    assert 1.0 < est <= 2.0 + 1e-12
