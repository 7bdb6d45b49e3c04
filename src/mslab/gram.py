"""Finite Gram sections, extremal eigenvalues, and Hankel lower bounds.

The Gram matrix of normalized kernels,

    G_ij = k_{l_j}(l_i) / (||k_{l_i}|| * ||k_{l_j}||),

is Hermitian with unit diagonal and positive semidefinite; its extremal
eigenvalues are the finite-section surrogates of the Bessel constant
(lambda_max) and the lower Riesz bound (lambda_min).  A finite section can
only certify necessary conditions for the corresponding infinite
statements: verdicts (``FrameBounds.verdict_at``) carry the section size
for that reason.

Entries are assembled from the closed kernel formula, never by quadrature,
out of each point's Theta value and kernel norm: one
``inner.normalized_values`` pass per sequence, whose arrays the
decomposition drivers and the CLI pass on instead of evaluating again.
Assembly works on stacks of equal-size sections in numpy row blocks of the
upper triangles, mirrored exactly below the diagonal, so no temporary grows
with a full section: ``gram_from_values`` builds a stack of one, and
``part_frame_bounds`` stacks a splitter's parts by size, with one stacked
call of LAPACK's Hermitian solver (``np.linalg.eigvalsh``) per stack.

``section_frame_bounds`` picks a route for one section.  A Blaschke
product of degree d spans a d-dimensional K_Theta, with the
Takenaka-Malmquist-Walsh orthonormal basis e_1, ..., e_d.  So with n > d
points and no singular atoms the section is the Gram matrix of the n rows
of an n-by-d matrix V, formed from one cumulative product over the
factors: lambda_min = 0 is then a proof by rank, not a computed
eigenvalue, and lambda_max is the top eigenvalue of the d-by-d V*V.  No
n-by-n matrix is formed, and no entry 1 - conj(Theta(l_j)) Theta(l_i)
cancels as |Theta| -> 1.  Sections with atoms, or with n <= d, are
assembled in full as above.

``hankel_distance_lb`` bounds dist(Theta * conj(B_L), H^inf) from below by
the largest singular value of a finite Hankel section of the symbol's
negative Fourier coefficients (Nehari's theorem makes the full Hankel norm
equal to the distance; finite sections are dominated by it and increase
with the section size).  Both factors of the symbol are sampled with
``inner.eval_points`` on the whole grid, and the section is one gather of
the coefficient vector by index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericDomainError
from .inner import (
    _NORM_EDGE,
    InnerFunction,
    _one_minus_conj_zeros,
    _row_blocks,
    eval_points,
    normalized_values,
)
from .points import ANGLE_TOL, BOUNDARY_TOL, TWO_PI, PointSequence

_HERMITIAN_TOL = 1e-12
_HANKEL_GRID_CAP = 1 << 16

# Off-diagonal kernel denominators |1 - conj(z_j) z_i| below this are refused.
_SEPARATION_TOL = 1e-14


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian unit-diagonal Gram section with its point labels."""

    entries: np.ndarray
    point_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NumericDomainError("Gram matrix must be square")
        if a.shape[0] != len(self.point_ids):
            raise NumericDomainError("Gram size and id count disagree")
        if not (a == a.conj().T).all():  # exact mirrors skip the deviation pass
            dev = np.max(np.abs(a - a.conj().T))
            if dev > _HERMITIAN_TOL:
                raise NumericDomainError(f"Gram matrix not Hermitian: deviation {dev!r}")
        if a.size and np.abs(a.diagonal() - 1.0).max() > _HERMITIAN_TOL:
            raise NumericDomainError("Gram matrix must have unit diagonal")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FrameBounds:
    """Extremal eigenvalues of one finite section."""

    lambda_min: float
    lambda_max: float
    n: int

    def verdict_at(self, floor: float) -> str:
        """"certified_riesz" when lambda_min clears the floor, else "indeterminate"."""
        return "certified_riesz" if self.lambda_min >= floor else "indeterminate"

    def to_json_dict(self, verdict: str | None = None) -> dict:
        out = {"lambda_min": self.lambda_min, "lambda_max": self.lambda_max, "n": self.n}
        if verdict is not None:
            out["verdict"] = verdict
        return out


def gram(theta: InnerFunction, seq: PointSequence) -> GramMatrix:
    """Normalized-kernel Gram section for a sequence off the spectrum.

    Each point's Theta value and kernel norm is computed once; entries are
    the exact rational expressions in those values.
    """
    if len(seq) == 0:
        raise NumericDomainError("empty point sequence")
    values, norms_sq = normalized_values(theta, seq.z, seq.angle, seq.ids)
    return gram_from_values(seq.z, values, norms_sq, seq.ids)


def gram_from_values(
    z: np.ndarray, values: np.ndarray, norms_sq: np.ndarray, ids: Sequence[int]
) -> GramMatrix:
    """Gram section of points z from their Theta values and kernel norms squared."""
    return GramMatrix(
        _sections(z[None], values[None], norms_sq[None], [ids])[0], tuple(np.asarray(ids).tolist())
    )


def part_frame_bounds(
    z: np.ndarray,
    values: np.ndarray,
    norms_sq: np.ndarray,
    ids: Sequence[int],
    parts: Sequence[np.ndarray],
) -> list[FrameBounds]:
    """Frame bounds of the Gram section of each part, an index array into the points.

    Parts of one size are assembled as stacks of at most 2^15 entries, and
    each stack takes one stacked ``eigvalsh`` call: a part costs a share of
    a few numpy calls, not a few numpy calls of its own.
    """
    bounds: dict[int, FrameBounds] = {}
    by_size: dict[int, list[int]] = {}
    for k, idx in enumerate(parts):
        by_size.setdefault(len(idx), []).append(k)
    labels = np.asarray(ids)
    for m, members in by_size.items():
        for rows in _row_blocks(len(members), m * m):
            chunk = members[rows]
            idx = np.array([parts[k] for k in chunk])
            stack = _sections(z[idx], values[idx], norms_sq[idx], labels[idx])
            if not np.isfinite(stack).all():
                raise NumericDomainError("eigenvalue input has non-finite entries")
            for k, eigs in zip(chunk, np.linalg.eigvalsh(stack)):
                bounds[k] = _gram_bounds(eigs)
    return [bounds[k] for k in range(len(parts))]


def section_frame_bounds(
    theta: InnerFunction,
    z: np.ndarray,
    values: np.ndarray,
    norms_sq: np.ndarray,
    ids: Sequence[int],
) -> FrameBounds:
    """Frame bounds of the Gram section of points z, from their Theta values and kernel norms.

    Blaschke products of degree d < n take the factored route: the n
    normalized kernels lie in the d-dimensional K_Theta, so lambda_min is 0
    by rank, and lambda_max is the top eigenvalue of the d-by-d matrix V*V
    of ``_factored_gram``.  Other sections (atoms, or n <= d) are assembled
    in full.  Both routes refuse an unusable norm, an inseparable pair and
    non-finite input alike.
    """
    z = np.asarray(z, dtype=complex)
    if theta.singular_atoms or z.size <= theta.degree:
        return extremal_eigs(gram_from_values(z, values, norms_sq, ids))
    _require_usable(norms_sq[None], [ids])
    _refuse_inseparable(z, ids)
    m, rows_sq = _factored_gram(theta, z, norms_sq)
    if not (np.isfinite(values).all() and np.isfinite(m).all()):
        raise NumericDomainError("eigenvalue input has non-finite entries")
    off = np.abs(rows_sq - 1.0) > _HERMITIAN_TOL
    if off.any():
        k = int(np.argmax(off))
        raise NumericDomainError(
            f"Gram matrix must have unit diagonal: point {ids[k]} has {float(rows_sq[k])!r}"
        )
    return FrameBounds(lambda_min=0.0, lambda_max=float(np.linalg.eigvalsh(m)[-1]), n=z.size)


def _factored_gram(
    theta: InnerFunction, z: np.ndarray, norms_sq: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """V*V and the squared row norms of V[i, j] = conj(e_j(l_i))/||k_{l_i}||.

    e_j(z) = sqrt(1 - |a_j|^2)/(1 - conj(a_j) z) * prod_{i<j} b_{a_i}(z) is
    the Takenaka-Malmquist-Walsh basis of K_Theta, and k_l = sum_j
    conj(e_j(l)) e_j, so the Gram section is conj(V) V^T, whose nonzero
    eigenvalues are those of V*V.  The factors b_a(z) = (z - a)/(1 - conj(a) z)
    drop their unimodular constants, which only turn the columns of V.

    Each e_j is taken where ``normalized_values`` takes the point's norm:
    an interior point with |z| >= 1 - 1e-12 at z/|z|.  There and at
    boundary points, the norm is the rate sum (1 - |a|^2)/|zeta - a|^2, so
    1 - conj(a) zeta is formed as zeta conj(zeta - a), equal on the circle,
    with the same |zeta - a|; inside, as in ``_interior_norm_sq``.  Either
    way the rows of V keep unit norm next to zeros at the circle.
    Rows are formed in blocks and summed into V*V.
    """
    terms = theta._terms
    a = terms.zeros
    root_weight = np.sqrt(terms.weight)
    radius = np.abs(z)
    on_circle = radius >= _NORM_EDGE
    edge = on_circle & (radius < 1.0 - BOUNDARY_TOL)
    zeta = z.copy()
    zeta[edge] = z[edge] / radius[edge]
    scale = 1.0 / np.sqrt(norms_sq)
    m = np.zeros((a.size, a.size), dtype=complex)
    rows_sq = np.empty(z.size)
    for rows in _row_blocks(z.size, a.size):
        w = zeta[rows, None]
        den = np.where(on_circle[rows, None], w * (w - a).conj(), _one_minus_conj_zeros(terms, w))
        e = np.empty(den.shape, dtype=complex)
        e[:, :1] = 1.0
        np.cumprod((w - a[:-1]) / den[:, :-1], axis=1, out=e[:, 1:])
        e *= root_weight / den
        v = e.conj() * scale[rows, None]
        rows_sq[rows] = (v.real * v.real + v.imag * v.imag).sum(axis=1)
        m += v.conj().T @ v
    return m, rows_sq


def _require_usable(norms_sq: np.ndarray, ids: Sequence[Sequence[int]]) -> None:
    """Refuse a kernel norm squared that is not positive and finite; ``ids[p][k]`` names it."""
    usable = (norms_sq > 0.0) & (norms_sq < math.inf)
    if not usable.all():
        p, k = np.unravel_index(np.argmin(usable), usable.shape)
        raise NumericDomainError(
            f"point {ids[p][k]} has unusable kernel norm squared {float(norms_sq[p, k])!r}"
        )


def _refuse_inseparable(z: np.ndarray, ids: Sequence[int]) -> None:
    """Refuse the first pair i < j with |1 - conj(z_j) z_i| < _SEPARATION_TOL.

    The pair and its message are those of ``_sections``.  That quantity is
    at least 1 - |z_i||z_j|, so only points with
    1 - |z_i| max|z| below twice the tolerance (a margin for rounding) are
    compared pairwise.
    """
    radius = np.abs(z)
    near = np.flatnonzero(1.0 - radius * radius.max() < 2.0 * _SEPARATION_TOL)
    w = z[near]
    close = np.triu(np.abs(1.0 - w[None, :].conj() * w[:, None]) < _SEPARATION_TOL, 1)
    if close.any():
        k, c = np.argwhere(close)[0]
        raise NumericDomainError(
            f"points {ids[near[k]]} and {ids[near[c]]} are numerically inseparable"
        )


def _sections(
    z: np.ndarray, values: np.ndarray, norms_sq: np.ndarray, ids: Sequence[Sequence[int]]
) -> np.ndarray:
    """Stacked Gram sections: row p of the (P, n) inputs gives section p of the (P, n, n) result.

        G_ij = (1 - conj(v_j) v_i)/(1 - conj(z_j) z_i) * s_i s_j,   s = norms_sq^(-1/2)

    Each row block of the upper triangles is one numpy expression over the
    whole stack; the strict lower triangles are exact conjugate mirrors and
    the diagonals are 1.  ``ids[p][k]`` names point k of section p in errors.
    """
    _require_usable(norms_sq, ids)
    count, n = z.shape
    s = 1.0 / np.sqrt(norms_sq)
    g = np.empty((count, n, n), dtype=np.complex128)
    for rows in _row_blocks(n, count * n):
        a = rows.start
        i = np.arange(a, min(rows.stop, n))
        d = np.arange(i.size)
        denom = z[:, None, a:].conj() * z[:, i, None]
        np.subtract(1.0, denom, out=denom)
        denom[:, d, d] = 1.0  # the diagonal of g is set to 1
        near = np.abs(denom) < _SEPARATION_TOL
        if near.any():
            p, k, c = np.argwhere(np.triu(near, 1))[0]
            raise NumericDomainError(
                f"points {ids[p][a + k]} and {ids[p][a + c]} are numerically inseparable"
            )
        block = values[:, None, a:].conj() * values[:, i, None]
        np.subtract(1.0, block, out=block)
        block /= denom
        block *= s[:, i, None] * s[:, None, a:]
        square = block[:, :, : i.size]
        np.copyto(square, square.swapaxes(1, 2).conj(), where=np.tri(i.size, k=-1, dtype=bool))
        g[:, rows, a:] = block
        g[:, rows.stop :, rows] = block[:, :, i.size :].swapaxes(1, 2).conj()
    d = np.arange(n)
    g[:, d, d] = 1.0
    return g


# ---------------------------------------------------------------------------
# Hermitian extremal eigenvalues
# ---------------------------------------------------------------------------

def extremal_eigs(g: GramMatrix) -> FrameBounds:
    """Smallest and largest eigenvalue of a Gram section (LAPACK).

    Tiny negative lambda_min from roundoff on a PSD Gram is clamped to 0.
    """
    if not np.isfinite(g.entries).all():
        raise NumericDomainError("eigenvalue input has non-finite entries")
    return _gram_bounds(np.linalg.eigvalsh(g.entries))


def _gram_bounds(eigs: np.ndarray) -> FrameBounds:
    """Bounds from a Gram section's ascending eigenvalues; roundoff just below 0 is clamped."""
    lam_min = float(eigs[0])
    if -1e-10 < lam_min < 0.0:
        lam_min = 0.0
    return FrameBounds(lambda_min=lam_min, lambda_max=float(eigs[-1]), n=eigs.size)


# ---------------------------------------------------------------------------
# Hankel lower bound for dist(Theta * conj(B_L), H^inf)
# ---------------------------------------------------------------------------

def hankel_distance_lb(theta: InnerFunction, seq: PointSequence, n: int) -> float:
    """Lower bound for the sup-norm distance of Theta*conj(B_L) to H^inf.

    Samples u = Theta * conj(B_L) on a uniform grid of 2^k >= 8n boundary
    nodes (k capped at 16; beyond that the section reuses the densest
    grid, with geometrically small aliasing since u is smooth off the
    spectrum), extracts the negative Fourier coefficients by the discrete
    transform, and returns the largest singular value of the n-by-n Hankel
    section H_jk = u_hat(-j-k+1).

    The symbol is unimodular on the circle, so the distance is at most 1;
    a returned bound at or above 1 - 1e-6 witnesses that the distance is
    essentially 1 (the left-invertibility criterion fails).
    """
    if n < 1:
        raise NumericDomainError("section size must be at least 1")
    boundary = np.flatnonzero(seq.boundary)
    if boundary.size:
        raise NumericDomainError(
            f"point {seq.ids[boundary[0]]} must be interior for the Blaschke symbol"
        )
    b_prod = InnerFunction(blaschke_zeros=tuple(seq.z.tolist()))
    size = 8
    while size < 8 * n and size < _HANKEL_GRID_CAP:
        size *= 2

    nodes = TWO_PI * np.arange(size) / size
    offset = 0.0
    if theta.singular_atoms:
        # never sample exactly on an atom
        atoms = np.array([a for a, _ in theta.singular_atoms])
        gap = np.abs(nodes[:, None] - atoms)
        if (np.minimum(gap, TWO_PI - gap) <= 1e3 * ANGLE_TOL).any():
            offset = math.pi / size

    zeta = np.exp(1j * (nodes + offset))
    u = eval_points(theta, zeta)[0] * eval_points(b_prod, zeta)[0].conj()
    coeffs = np.fft.fft(u) / size  # c_m = u_hat(m) for the offset grid
    m = np.arange(1, 2 * n)
    neg = coeffs[(size - m) % size]  # neg[m - 1] = u_hat(-m)
    if offset != 0.0:
        neg = neg * np.exp(1j * m * offset)
    j = np.arange(n)
    h = neg[j[:, None] + j]  # u_hat(-(j+k+1)) with 0-based j, k
    return float(np.linalg.norm(h, 2))  # sigma_max
