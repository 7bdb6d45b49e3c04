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

Both sums are symmetric, so the report visits each pair once: each row
block is paired only with the columns from its own first row on (an upper
tile), and a tile's column sums stand in for the row sums of its mirror.
Up to 181 points are one tile, whose sums are the full rows'.  The matrix
keeps full row blocks: filling its lower triangle by mirroring the tiles
writes across the whole matrix column-wise, which measured slower than
forming every pair twice once n reaches a few thousand.

Every function reads the sequence's ``z`` array, and one vectorized check
rejects boundary points throughout (the pseudohyperbolic metric
degenerates on the circle) as well as the empty sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .inner import _one_minus_modulus_sq, _row_blocks
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


def _log_rho_rows(x: np.ndarray, y: np.ndarray, w: np.ndarray, upper: bool = False):
    """Yield (rows, terms) over the row blocks of the points x + iy with weights w.

    With n2 = (x_i - x_j)^2 + (y_i - y_j)^2 and q = w_i w_j / n2, terms[0]
    is L[i, j] = -log1p(q)/2, log rho with a zero diagonal.  The blocks are
    ``_row_blocks(n, n)``, held in three work arrays that every block
    reuses: a block is valid until the next.  A block holds every column.
    With ``upper`` it holds only the columns from its own first row on
    (tile column j is column j + rows.start), so the upper tiles form each
    pair once, and terms[1] is P[i, j] = w_i w_j / (n2 + w_i w_j) =
    1 - rho^2, with a unit diagonal.  Where n2 is not above a floor (its
    squares underflowed, or q could overflow) or overflowed, L is taken in
    logs instead, as -logaddexp(0, log w_i + log w_j - 2 log hypot(x_i -
    x_j, y_i - y_j))/2: the same value, with no intermediate out of range.
    """
    n = x.size
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)  # every block reads them whole
    m = float(np.abs(np.concatenate((x, y, w))).max())
    # 16 m^2 bounds n2 and m^2 bounds w_i w_j, so above the floor n2 is
    # normal and q finite; the floor is inf where 16 m^2 overflows
    floor = _TINY * max(1.0, 16.0 * m * m)
    work = None
    for rows in _row_blocks(n, n):
        size = min(rows.stop, n) - rows.start
        if work is None:
            work = np.empty(3 * size * n)
        start = rows.start if upper else 0  # the block's first column
        width = n - start
        diagonal = slice(rows.start - start, None, width + 1)  # of a flattened block
        block = work[: 3 * size * width].reshape(3, size, width)
        n2, L, P = block
        # entries out of range are redone in logs below
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            np.square(np.subtract(x[rows, None], x[start:], out=n2), out=n2)
            n2 += np.square(np.subtract(y[rows, None], y[start:], out=P), out=P)
            n2.reshape(-1)[diagonal] = np.inf  # q = 0 on the diagonal
            np.multiply(w[rows, None], w[start:], out=L)  # w_i w_j until L is formed
            if upper:
                np.divide(L, np.add(n2, L, out=P), out=P)
                P.reshape(-1)[diagonal] = 1.0
            np.log1p(np.divide(L, n2, out=L), out=L)
        L *= -0.5
        if not n2.min() > floor:  # one reduction on the common path
            i, j = np.nonzero(n2 <= floor)  # the diagonal too where the floor is inf
            k, c = i + rows.start, j + start
            with np.errstate(over="ignore", divide="ignore"):
                t = np.log(w[k]) + np.log(w[c]) - 2.0 * np.log(np.hypot(x[k] - x[c], y[k] - y[c]))
            L[i, j] = -0.5 * np.logaddexp(0.0, t)
        L.reshape(-1)[diagonal] = 0.0
        yield rows, block[1 : 2 + upper]


def _disk(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel's x, y and w = 1 - |z|^2 for interior points z, w from
    error-free products (``inner._one_minus_modulus_sq``)."""
    return z.real, z.imag, _one_minus_modulus_sq(z)


def _log_rho_matrix(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The L of ``_log_rho_rows``, filled block by block into one (n, n) array."""
    out = np.empty((x.size, x.size))
    for rows, (L,) in _log_rho_rows(x, y, w):
        out[rows] = L
    return out


def log_distance_matrix(seq: PointSequence) -> np.ndarray:
    """L[i, j] = log rho(l_i, l_j) over an interior sequence, with a zero diagonal.

    The row sum of L is the log of that point's Carleson product.  Each
    entry is -log1p(q)/2, q = (1 - |l_i|^2)(1 - |l_j|^2)/|l_i - l_j|^2,
    filled row block by row block into one array.  L is exactly symmetric,
    so a subsequence's constant does not depend on which of a pair is
    asked, and no entry exceeds 0.  Far pairs near the circle keep their
    relative digits: 1 - |l|^2 is formed from error-free products, to about
    one rounding however near the circle l lies.  A pair too close for
    |l_i - l_j|^2 to be a normal float gets
    log|l_i - l_j| - log((1 - |l_i|^2)(1 - |l_j|^2))/2.
    """
    return _log_rho_matrix(*_disk(_require_interior(seq.z)))


def carleson_report(seq: PointSequence) -> CarlesonReport:
    """Carleson constant with witness, plus the embedding double sum.

    Both are row sums of symmetric matrices, accumulated from one pass of
    the kernel over its upper tiles, so each pair is formed once: a tile's
    row sums go to its own rows, and its column sums right of its diagonal
    block to the later rows.  No n x n array is held.  A sequence of at most
    181 points is one tile, whose row sums are those of the whole matrix.
    """
    z = _require_interior(seq.z)
    totals = np.zeros((2, z.size))  # row sums of L, then of P
    for rows, terms in _log_rho_rows(*_disk(z), upper=True):
        totals[:, rows] += terms.sum(axis=2)
        if rows.stop < z.size:  # the columns right of the diagonal block
            totals[:, rows.stop :] += terms[:, :, terms.shape[1] :].sum(axis=1)
    sums, embedding = totals
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
