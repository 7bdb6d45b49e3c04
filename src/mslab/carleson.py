"""Interpolation-theoretic scalars on interior point sequences.

The separation quality of a finite sequence is measured by the Carleson
constant

    delta(L) = min_n prod_{k != n} |(l_n - l_k)/(1 - conj(l_k) l_n)|,

the embedding health by the double-sum statistic

    sup_m sum_n (1-|l_m|^2)(1-|l_n|^2)/|1 - conj(l_m) l_n|^2,

and the price of interpolation by the classical bound

    phi(delta) = (2 - delta^2 + 2 sqrt(1 - delta^2)) / delta^2,

which dominates the interpolation constant of any sequence with Carleson
constant delta.  ``interpolation_threshold`` inverts phi: given a target
gamma in (0,1) it returns the separation level above which phi < 1/gamma.

Both sums rest on one identity.  For points p = x + iy with weights w,

    |1 - conj(p_j) p_i|^2 = |p_i - p_j|^2 + w_i w_j,   w = 1 - |p|^2,

so with n2 = |p_i - p_j|^2 and q = w_i w_j / n2, log rho = -log1p(q)/2 and
the embedding term is w_i w_j / (n2 + w_i w_j), all in real arithmetic.
The log1p form keeps the digits of far pairs near the circle, whose rho
is 1 - O(q).  In the upper half-plane |s_i - conj(s_j)|^2 = |s_i - s_j|^2
+ 4 Im s_i Im s_j, so one private kernel serves both, with w = 2 Im s
there (``mslab.pw``).  The kernel works in row blocks of at most 2^15
entries (``inner._row_blocks``), so the report holds no n x n array.  Its
L is exactly symmetric by construction (x_j - x_i = -(x_i - x_j) and
w_i w_j = w_j w_i in IEEE arithmetic) and never exceeds 0.  The products
behind delta are taken as exp of row sums of L, so strongly clustered
sequences cannot underflow a partial product; ``log_distance_matrix``
exposes L for callers that ask about many subsequences of one sequence.

Every function reads the sequence's ``z`` array, and one vectorized check
rejects boundary points throughout (the pseudohyperbolic metric
degenerates on the circle) as well as the empty sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .inner import _row_blocks
from .points import BOUNDARY_TOL, PointSequence

_TINY = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class CarlesonReport:
    """Separation and embedding diagnostics for one sequence."""

    delta: float
    embedding_sup: float
    witness_index: int


def _require_interior(z: np.ndarray) -> np.ndarray:
    """z, a non-empty 1-D complex array, if every point has |z| < 1 - 1e-14.

    A sequence's boundary points have |z| = 1 to rounding, so this refuses
    them too.
    """
    if z.size == 0:
        raise NumericDomainError("empty point sequence")
    if not (np.hypot(z.real, z.imag) < 1.0 - BOUNDARY_TOL).all():
        raise NumericDomainError("pseudohyperbolic metric degenerates at boundary points")
    return z


def _log_rho_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, embedding: bool = False):
    """Yield (rows, L, P) over the row blocks of the points x + iy with weights w.

    With n2 = (x_i - x_j)^2 + (y_i - y_j)^2 and q = w_i w_j / n2, L[i, j] =
    -log1p(q)/2 is log rho with a zero diagonal, and P[i, j] = w_i w_j /
    (n2 + w_i w_j) = 1 - rho^2 has a unit diagonal (None unless
    ``embedding``).  The blocks are ``_row_blocks(n, n)``, held in three
    work arrays that every block reuses: a block is valid until the next.
    Where n2 is not above a floor (its squares underflowed, or q could
    overflow) or overflowed, L is taken in logs instead, as -logaddexp(0,
    log w_i + log w_j - 2 log hypot(x_i - x_j, y_i - y_j))/2: the same
    value, with no intermediate out of range.
    """
    n = x.size
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)  # every block reads them whole
    m = float(np.abs(np.concatenate((x, y, w))).max())
    # 16 m^2 bounds n2 and m^2 bounds w_i w_j, so above the floor n2 is
    # normal and q finite; the floor is inf where 16 m^2 overflows
    floor = _TINY * max(1.0, 16.0 * m * m)
    work = None
    for rows in _row_blocks(n, n):
        size = len(range(n)[rows])
        if work is None:
            work = np.empty((3, size, n))
        n2, sq, ww = work[:, :size]
        # entries out of range are redone in logs below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.square(np.subtract(x[rows, None], x, out=n2), out=n2)
            n2 += np.square(np.subtract(y[rows, None], y, out=sq), out=sq)
            n2.reshape(-1)[rows.start :: n + 1] = np.inf  # q = 0 on the diagonal
            np.multiply(w[rows, None], w, out=ww)
            P = None
            if embedding:
                P = np.divide(ww, np.add(n2, ww, out=sq), out=sq)
                P.reshape(-1)[rows.start :: n + 1] = 1.0
            L = np.log1p(np.divide(ww, n2, out=ww), out=ww)
        L *= -0.5
        if not n2.min() > floor:  # one reduction on the common path
            i, j = np.nonzero(n2 <= floor)  # the diagonal too where the floor is inf
            k = i + rows.start
            with np.errstate(over="ignore", divide="ignore"):
                t = np.log(w[k]) + np.log(w[j]) - 2.0 * np.log(np.hypot(x[k] - x[j], y[k] - y[j]))
            L[i, j] = -0.5 * np.logaddexp(0.0, t)
        L.reshape(-1)[rows.start :: n + 1] = 0.0
        yield rows, L, P


def _disk(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's x, y and w = 1 - |z|^2 for interior points z."""
    x, y = z.real, z.imag
    return x, y, 1.0 - (x * x + y * y)


def _log_rho_matrix(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The L of ``_log_rho_rows``, filled block by block into one (n, n) array."""
    out = np.empty((x.size, x.size))
    for rows, L, _ in _log_rho_rows(x, y, w):
        out[rows] = L
    return out


def log_distance_matrix(seq: PointSequence) -> np.ndarray:
    """L[i, j] = log rho(l_i, l_j) over an interior sequence, with a zero diagonal.

    The row sum of L is the log of that point's Carleson product.  Each
    entry is -log1p(q)/2, q = (1 - |l_i|^2)(1 - |l_j|^2)/|l_i - l_j|^2,
    filled row block by row block into one array.  L is exactly symmetric,
    so a subsequence's constant does not depend on which of a pair is
    asked, and no entry exceeds 0.  Far pairs near the circle keep their
    relative digits, up to the cancellation in 1 - x^2 - y^2 (about 1e-16
    relative to 1 - |l|^2).  A pair too close for |l_i - l_j|^2 to be a
    normal float gets log|l_i - l_j| - log((1 - |l_i|^2)(1 - |l_j|^2))/2.
    """
    return _log_rho_matrix(*_disk(_require_interior(seq.z)))


def carleson_constant(seq: PointSequence) -> float:
    """Carleson separation constant of a finite interior sequence."""
    return math.exp(float(log_distance_matrix(seq).sum(axis=1).min()))


def carleson_report(seq: PointSequence) -> CarlesonReport:
    """Carleson constant with witness, plus the embedding double sum.

    Both are row sums accumulated block by block from one pass of the
    kernel; no n x n array is held.
    """
    z = _require_interior(seq.z)
    sums = np.empty(z.size)
    embedding = np.empty(z.size)
    for rows, L, P in _log_rho_rows(*_disk(z), embedding=True):
        sums[rows] = L.sum(axis=1)
        embedding[rows] = P.sum(axis=1)
    k = int(np.argmin(sums))  # the first minimal point, as in a scan
    return CarlesonReport(
        delta=math.exp(float(sums[k])),
        embedding_sup=float(embedding.max()),
        witness_index=int(seq.ids[k]),
    )


def earl_bound(delta: float) -> float:
    """Interpolation-constant bound phi(delta); decreasing, phi(1) = 1."""
    if not 0.0 < delta <= 1.0:
        raise NumericDomainError(f"separation must lie in (0, 1], got {delta!r}")
    with np.errstate(over="ignore", divide="ignore"):  # phi beyond every float is inf
        return float(_earl_bounds(np.float64(delta)))


def _earl_bounds(delta: np.ndarray) -> np.ndarray:
    """``earl_bound``'s arithmetic elementwise, on deltas in (0, 1]."""
    d2 = delta * delta
    return (2.0 - d2 + 2.0 * np.sqrt(np.maximum(0.0, 1.0 - d2))) / d2


def interpolation_threshold(gamma: float) -> float:
    """The separation level delta* = 2 sqrt(gamma)/(1 + gamma), where phi(delta*) = 1/gamma.

    phi(delta) = ((1 + sqrt(1 - delta^2))/delta)^2 is strictly decreasing, so
    phi(delta) < 1/gamma for every delta > delta* (up to rounding, which
    callers check with ``earl_bound``).
    """
    if not 0.0 < gamma < 1.0:
        raise NumericDomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    return 2.0 * math.sqrt(gamma) / (1.0 + gamma)
