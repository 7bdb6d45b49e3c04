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

Boundary points are rejected throughout; the pseudohyperbolic metric
degenerates on the circle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .points import PointSequence, UnitPoint


@dataclass(frozen=True)
class CarlesonReport:
    """Separation and embedding diagnostics for one sequence."""

    delta: float
    embedding_sup: float
    witness_index: int

    def to_json_dict(self) -> dict:
        return {
            "delta": self.delta,
            "embedding_sup": self.embedding_sup,
            "witness_index": self.witness_index,
        }


def _interior_value(p: complex | UnitPoint) -> complex:
    if isinstance(p, UnitPoint):
        if p.is_boundary:
            raise NumericDomainError(
                "pseudohyperbolic metric degenerates at boundary points"
            )
        return p.value
    z = complex(p)
    if abs(z) >= 1.0 - 1e-14:
        raise NumericDomainError(
            "pseudohyperbolic metric degenerates at boundary points"
        )
    return z


def pseudohyperbolic(lam: complex | UnitPoint, mu: complex | UnitPoint) -> float:
    """Pseudohyperbolic distance |(l - m)/(1 - conj(m) l)| of interior points."""
    a = _interior_value(lam)
    b = _interior_value(mu)
    return abs((a - b) / (1.0 - b.conjugate() * a))


def _require_interior(seq: PointSequence) -> list[complex]:
    if len(seq) == 0:
        raise NumericDomainError("empty point sequence")
    return [_interior_value(p) for p in seq.points]


def log_distance_matrix(seq: PointSequence) -> np.ndarray:
    """L[i, j] = log rho(l_i, l_j) over an interior sequence, with a zero diagonal.

    The row sum of L is the log of that point's Carleson product.  L is made
    exactly symmetric (the smaller of the two roundings is kept), so a
    subsequence's constant does not depend on which of a pair is asked.  A
    pair whose distance underflows to 0 gives -inf.
    """
    z = np.asarray(_require_interior(seq), dtype=np.complex128)
    dist = np.abs(z[:, None] - z[None, :]) / np.abs(1.0 - z[:, None] * z[None, :].conj())
    with np.errstate(divide="ignore"):
        out = np.log(dist)
    out = np.minimum(out, out.T)
    np.fill_diagonal(out, 0.0)
    return out


def carleson_constant(seq: PointSequence) -> float:
    """Carleson separation constant of a finite interior sequence."""
    return math.exp(float(log_distance_matrix(seq).sum(axis=1).min()))


def carleson_report(seq: PointSequence) -> CarlesonReport:
    """Carleson constant with witness, plus the embedding double sum."""
    sums = log_distance_matrix(seq).sum(axis=1)
    k = int(np.argmin(sums))  # the first minimal point, as in a scan
    return CarlesonReport(
        delta=math.exp(float(sums[k])),
        embedding_sup=embedding_sup(seq),
        witness_index=seq.ids[k],
    )


def embedding_sup(seq: PointSequence) -> float:
    """Max row sum of the embedding double-sum statistic."""
    z = np.asarray(_require_interior(seq), dtype=np.complex128)
    w = 1.0 - np.abs(z) ** 2
    terms = w[:, None] * w[None, :] / np.abs(1.0 - z.conj()[:, None] * z[None, :]) ** 2
    return float(terms.sum(axis=1).max())


def earl_bound(delta: float) -> float:
    """Interpolation-constant bound phi(delta); decreasing, phi(1) = 1."""
    if not 0.0 < delta <= 1.0:
        raise NumericDomainError(f"separation must lie in (0, 1], got {delta!r}")
    d2 = delta * delta
    if d2 == 0.0:
        return math.inf  # delta^2 underflows; phi exceeds every float
    return (2.0 - d2 + 2.0 * math.sqrt(max(0.0, 1.0 - d2))) / d2


def interpolation_threshold(gamma: float, tol: float = 1e-12) -> float:
    """The separation level delta* with phi(delta*) = 1/gamma.

    Bisection on [1e-9, 1]; phi is strictly decreasing so the bracket is
    self-verifying.  The upper end of the final bracket is returned, so
    phi(delta) < 1/gamma holds for every delta > delta*.
    """
    if not 0.0 < gamma < 1.0:
        raise NumericDomainError(f"gamma must lie in (0, 1), got {gamma!r}")
    target = 1.0 / gamma
    lo, hi = 1e-9, 1.0
    if earl_bound(lo) < target:
        return lo  # gamma so small that any positive separation works
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if earl_bound(mid) > target:
            lo = mid
        else:
            hi = mid
    return hi
