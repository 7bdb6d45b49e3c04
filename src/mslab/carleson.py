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

Both sums are formed in numpy from pairwise matrices.  The products
behind delta are taken as exp of row sums of the log-distance matrix
L[i, j] = log rho(l_i, l_j) for every n, so strongly clustered sequences
cannot underflow a partial product; ``log_distance_matrix`` exposes L for
callers that ask about many subsequences of one sequence.

Every function reads the sequence's ``z`` array, and one vectorized check
rejects boundary points throughout (the pseudohyperbolic metric
degenerates on the circle) as well as the empty sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .points import BOUNDARY_TOL, PointSequence


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


def _pair_denominators(z: np.ndarray) -> np.ndarray:
    """D[i, j] = |1 - z_i conj(z_j)|, the denominator of every pairwise sum here."""
    return np.abs(1.0 - z[:, None] * z[None, :].conj())


def log_distance_matrix(seq: PointSequence) -> np.ndarray:
    """L[i, j] = log rho(l_i, l_j) over an interior sequence, with a zero diagonal.

    The row sum of L is the log of that point's Carleson product.  L is made
    exactly symmetric (the smaller of the two roundings is kept), so a
    subsequence's constant does not depend on which of a pair is asked, and
    no entry exceeds 0 (rho <= 1, though for far points near the circle it
    can round to just above 1).  A pair whose distance underflows to 0
    gives -inf.
    """
    z = _require_interior(seq.z)
    return _log_distances(z, _pair_denominators(z))


def _log_distances(z: np.ndarray, denom: np.ndarray) -> np.ndarray:
    """``log_distance_matrix`` of points z with their ``_pair_denominators``."""
    dist = np.abs(z[:, None] - z[None, :]) / denom
    with np.errstate(divide="ignore"):
        out = np.log(dist)
    out = np.minimum(np.minimum(out, out.T), 0.0)
    np.fill_diagonal(out, 0.0)
    return out


def carleson_constant(seq: PointSequence) -> float:
    """Carleson separation constant of a finite interior sequence."""
    return math.exp(float(log_distance_matrix(seq).sum(axis=1).min()))


def carleson_report(seq: PointSequence) -> CarlesonReport:
    """Carleson constant with witness, plus the embedding double sum.

    Both sums share one matrix of pairwise denominators.
    """
    z = _require_interior(seq.z)
    denom = _pair_denominators(z)
    sums = _log_distances(z, denom).sum(axis=1)
    k = int(np.argmin(sums))  # the first minimal point, as in a scan
    return CarlesonReport(
        delta=math.exp(float(sums[k])),
        embedding_sup=_embedding_sup(z, denom),
        witness_index=int(seq.ids[k]),
    )


def _embedding_sup(z: np.ndarray, denom: np.ndarray) -> float:
    """Max row sum of the embedding double-sum statistic of points z, with
    their ``_pair_denominators``."""
    w = 1.0 - np.abs(z) ** 2
    return float((w[:, None] * w[None, :] / denom**2).sum(axis=1).max())


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
