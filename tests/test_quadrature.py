import math

import numpy as np
import pytest

from mslab.errors import NumericDomainError
from mslab.quadrature import _BATCH, adaptive_simpson

# a zero eta = r e^{i phi} at depth 1e-6
_R = 1.0 - 1e-6
_PHI = 0.8


def _poisson(t: np.ndarray) -> np.ndarray:
    """(1 - r^2)/|e^{it} - eta|^2, both sides written without cancellation."""
    half = np.sin(0.5 * (t - _PHI))
    return (1.0 - _R) * (1.0 + _R) / ((1.0 - _R) ** 2 + 4.0 * _R * half * half)


def _poisson_integral(lo: float, hi: float) -> float:
    """Closed form 2 atan((1 + r)/(1 - r) tan((t - phi)/2)), on |t - phi| < pi."""
    c = (1.0 + _R) / (1.0 - _R)
    return 2.0 * (math.atan(c * math.tan(0.5 * (hi - _PHI))) - math.atan(c * math.tan(0.5 * (lo - _PHI))))


def _recursive_simpson(f, a, b, rel_tol=1e-9, abs_tol=1e-14):
    """The textbook recursion, one scalar node at a time."""

    def rec(a, b, fa, fm, fb, whole, tol):
        m = 0.5 * (a + b)
        flm, frm = f(0.5 * (a + m)), f(0.5 * (m + b))
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if abs(left + right - whole) <= 15.0 * tol:
            return left + right + (left + right - whole) / 15.0
        return rec(a, m, fa, flm, fm, left, 0.5 * tol) + rec(m, b, fm, frm, fb, right, 0.5 * tol)

    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return rec(a, b, fa, fm, fb, whole, rel_tol * max(abs(whole), abs_tol) + abs_tol)


# arcs through, next to and beside the peak at phi, within a few widths
# 1 - r of it, and one empty arc.  (The test's tolerance is relative to
# the first Simpson estimate; on an arc that ends next to the peak, or
# whose first nodes miss it, that estimate is far off and so is the
# accuracy it buys.)
_ARCS = [
    (_PHI - 1e-5, _PHI + 3e-5),
    (_PHI - 1e-6, _PHI + 1e-6),
    (_PHI + 5e-6, _PHI + 1e-3),
    (_PHI - 3e-6, _PHI + 2e-5),
    (_PHI + 2e-6, _PHI + 4e-6),
    (_PHI - 4e-5, _PHI - 1e-6),
    (_PHI + 0.2, _PHI + 0.2),
]


def test_arcs_next_to_a_near_boundary_zero_match_the_closed_form() -> None:
    lo, hi = (np.array(end) for end in zip(*_ARCS))
    got = adaptive_simpson(_poisson, lo, hi)
    want = [_poisson_integral(a, b) for a, b in _ARCS]
    assert got[-1] == 0.0
    assert got[:-1] == pytest.approx(want[:-1], rel=1e-9)


def test_lockstep_evaluates_the_nodes_of_the_recursion() -> None:
    # one integrand call per round, on every open interval of every arc;
    # together the calls ask for exactly the recursion's nodes, and the
    # integrals agree with it up to the order of summation
    calls: list[np.ndarray] = []

    def f(t: np.ndarray) -> np.ndarray:
        calls.append(t)
        return _poisson(t)

    lo, hi = (np.array(end) for end in zip(*_ARCS))
    got = adaptive_simpson(f, lo, hi)
    nodes: list[float] = []

    def one(t: float) -> float:
        nodes.append(t)
        return float(_poisson(np.array([t]))[0])

    for (a, b), value in zip(_ARCS[:-1], got):
        assert value == pytest.approx(_recursive_simpson(one, a, b), rel=1e-14)
    assert np.array_equal(np.sort(np.concatenate(calls)), np.sort(nodes))
    assert len(calls) < 30


def test_depth_limit_raises() -> None:
    # a jump never passes the test: the tolerance halves as fast as the error
    step = lambda t: np.where(t < 1.0 / 3.0, 0.0, 1.0)  # noqa: E731
    with pytest.raises(NumericDomainError):
        adaptive_simpson(step, np.array([0.0]), np.array([1.0]), max_depth=8)
    assert adaptive_simpson(step, np.array([0.5]), np.array([1.0]), max_depth=8)[0] == 0.5


def test_hopeless_integrand_stops_within_bounded_work() -> None:
    # NaN everywhere never converges; like the recursion, the first path
    # down meets the depth limit, after at most max_depth + 2 batched calls
    sizes: list[int] = []

    def nan(t: np.ndarray) -> np.ndarray:
        sizes.append(t.size)
        return np.full(t.shape, np.nan)

    with pytest.raises(NumericDomainError):
        adaptive_simpson(nan, np.zeros(3), np.ones(3))
    assert len(sizes) <= 62 and max(sizes) <= 2 * _BATCH
