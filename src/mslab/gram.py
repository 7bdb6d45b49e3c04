"""Finite Gram sections and their extremal eigenvalues.

The Gram matrix of normalized kernels,

    G_ij = k_{l_j}(l_i) / (||k_{l_i}|| * ||k_{l_j}||),

is Hermitian with unit diagonal and positive semidefinite; its extremal
eigenvalues are the finite-section surrogates of the Bessel constant
(lambda_max) and the lower Riesz bound (lambda_min).  A finite section can
only certify necessary conditions for the corresponding infinite
statements: reports carry the section size for that reason.  Sections are
plain complex arrays: the strict lower triangle is an exact mirror of the
upper and the diagonal is set to 1, so nothing re-checks either at run time.

Entries are assembled from the closed kernel formula, never by quadrature,
out of each point's Theta value and kernel norm: one
``inner.normalized_values`` pass per sequence, whose arrays the
decomposition drivers and the CLI pass on instead of evaluating again.
Assembly works on stacks of equal-size sections, of every size, in numpy
row blocks of the upper triangles, mirrored exactly below the diagonal, so
no temporary grows with a full section.

Every section's eigenvalues come from ``_stacked_bounds``, by part size,
from stacks assembled alike; only the eigen step differs.  Parts of three
or more points take one stacked call of LAPACK's Hermitian solver
(``np.linalg.eigvalsh``) per stack of equal-size parts, the stack's
extremal eigenvalues read, and clamped, as arrays.  Parts of one or two
points run no eigensolver: a section with unit diagonal
[[1, G_12], [G_21, 1]] has eigenvalues exactly 1 -+ |G_21|, so the bounds
are one point's (1, 1) and a pair's 1 -+ |G_21|, read off its assembled
section, up to the rounding of |G_21| and of the sum, where LAPACK's
reduction and 2-by-2 solve round several times more.  Two front ends feed
it, and each driver calls one of them once, on its finished partition:
``part_frame_bounds`` assembles sections from points for
``split_by_interpolation`` and ``decompose_by_squares``, and
``block_frame_bounds`` reads principal blocks of a Gram already formed for
``pw_split`` (``mslab.pw``).  A whole section is one part of either.

``section_frame_bounds`` picks a route for one section.  A Blaschke
product of degree d spans a d-dimensional K_Theta, with the
Takenaka-Malmquist-Walsh orthonormal basis e_1, ..., e_d.  So with n > d
points and no singular atoms the section is the Gram matrix of the n rows
of an n-by-d matrix V, formed from one cumulative product over the
factors: lambda_min = 0 is then a proof by rank, not a computed
eigenvalue, and lambda_max is the top eigenvalue of the d-by-d V*V.  No
n-by-n matrix is formed, and no entry 1 - conj(Theta(l_j)) Theta(l_i)
cancels as |Theta| -> 1.  Sections with atoms, or with n <= d, are
assembled in full, as one part of ``part_frame_bounds``.  That takes
Theta too, and gives any part of more than d points lambda_min = 0 by the
same rank argument.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericDomainError
from .inner import _NORM_EDGE, InnerFunction, _one_minus_conj_zeros, _row_blocks
from .points import BOUNDARY_TOL

# Rows of the factored route's V must have unit norm to this tolerance.
_UNIT_ROW_TOL = 1e-12

# Off-diagonal kernel denominators |1 - conj(z_j) z_i| below this are refused.
_SEPARATION_TOL = 1e-14


def part_frame_bounds(
    theta: InnerFunction,
    z: np.ndarray,
    values: np.ndarray,
    norms_sq: np.ndarray,
    ids: Sequence[int],
    members: np.ndarray,
    offsets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and lambda_max of the Gram section of each part, as arrays.

    Part k is the points at positions ``members[offsets[k]:offsets[k + 1]]``
    of z, whose Theta values and kernel norms are ``values`` and
    ``norms_sq``.  Parts of one size are bounded together
    (``_stacked_bounds``): a part costs a share of a few numpy calls, not a
    few numpy calls of its own.  When Theta is a Blaschke product of degree
    d, a part of more than d points has lambda_min = 0 by rank, as in
    ``section_frame_bounds``, not the roundoff its eigensolver returns.
    """
    labels = np.asarray(ids)
    return _stacked_bounds(
        members,
        offsets,
        lambda idx: _sections(z[idx], values[idx], norms_sq[idx], labels[idx]),
        math.inf if theta.singular_atoms else theta.degree,
    )


def block_frame_bounds(
    g: np.ndarray, members: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and lambda_max of the principal block of the Hermitian ``g``
    at each part's positions ``members[offsets[k]:offsets[k + 1]]``, as arrays.

    ``g`` has a unit diagonal, as ``pw.pw_gram``'s ``fill_diagonal`` makes
    it: a part of one or two points is bounded by ``_stacked_bounds``' closed
    form, which reads no diagonal entry.  No Theta comes with ``g``, so no
    lambda_min is set by rank.
    """
    return _stacked_bounds(
        members, offsets, lambda idx: g[idx[:, :, None], idx[:, None, :]], math.inf
    )


def _stacked_bounds(
    members: np.ndarray,
    offsets: np.ndarray,
    sections: Callable[[np.ndarray], np.ndarray],
    rank: float,
) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and lambda_max of each part, grouped by size here.

    ``part_frame_bounds`` and ``block_frame_bounds`` supply ``sections``,
    which maps a (P, m) array of parts of size m to the (P, m, m) stack of
    their Gram sections, each with unit diagonal.  Every size goes in stacks
    of at most 2^15 entries, and each stack takes one finiteness check.  A
    stack of parts of three or more points then takes one stacked
    ``eigvalsh`` call.  A pair's bounds are read off its stack as 1 -+ c,
    c = |G_21|, the exact eigenvalues of [[1, G_12], [G_21, 1]] up to the
    rounding of c and of the sum (1 - c is exact where c >= 1/2), and one
    point's as 1 -+ 0.  Parts of more than ``rank`` points, the dimension
    the kernels span, get lambda_min = 0.  Roundoff in (-1e-10, 0) in
    lambda_min is clamped to 0; -0.0 is kept.
    """
    low, high = np.empty((2, offsets.size - 1))
    for parts, slots in _by_size(offsets):
        m = slots.shape[1]
        if not m:
            raise NumericDomainError(f"part {int(parts[0])} is empty: it has no Gram section")
        for rows in _row_blocks(parts.size, m * m):
            stack = sections(members[slots[rows]])
            if not np.isfinite(stack).all():
                raise NumericDomainError("eigenvalue input has non-finite entries")
            if m > 2:
                eigs = np.linalg.eigvalsh(stack)
                low[parts[rows]], high[parts[rows]] = eigs[:, 0], eigs[:, -1]
            else:
                c = np.abs(stack[:, 1, 0]) if m == 2 else 0.0
                low[parts[rows]], high[parts[rows]] = 1.0 - c, 1.0 + c
            if m > rank:
                low[parts[rows]] = 0.0
    return np.where((-1e-10 < low) & (low < 0.0), 0.0, low), high


def _by_size(offsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per size m of the parts with members at ``offsets[k]:offsets[k + 1]``: the
    positions of the parts of size m, and the (count, m) array of their member slots."""
    sizes = np.diff(offsets)
    groups = []
    for m in dict.fromkeys(sizes.tolist()):
        parts = np.flatnonzero(sizes == m)
        groups.append((parts, np.add.outer(offsets[parts], np.arange(m))))
    return groups


def section_frame_bounds(
    theta: InnerFunction,
    z: np.ndarray,
    values: np.ndarray,
    norms_sq: np.ndarray,
    ids: Sequence[int],
) -> tuple[float, float]:
    """(lambda_min, lambda_max) of the Gram section of points z, from their
    Theta values and kernel norms.

    Blaschke products of degree d < n take the factored route: the n
    normalized kernels lie in the d-dimensional K_Theta, so lambda_min is 0
    by rank, and lambda_max is the top eigenvalue of the d-by-d matrix V*V
    of ``_factored_gram``.  Other sections (atoms, or n <= d) are assembled
    in full, as one part of ``part_frame_bounds``.  Both routes refuse an
    unusable norm, an inseparable pair and non-finite input alike.
    """
    z = np.asarray(z, dtype=complex)
    if theta.singular_atoms or z.size <= theta.degree:
        low, high = part_frame_bounds(
            theta, z, values, norms_sq, ids, np.arange(z.size), np.array([0, z.size])
        )
        return float(low[0]), float(high[0])
    _require_usable(norms_sq[None], [ids])
    _refuse_inseparable(z, ids)
    m, rows_sq = _factored_gram(theta, z, norms_sq)
    if not (np.isfinite(values).all() and np.isfinite(m).all()):
        raise NumericDomainError("eigenvalue input has non-finite entries")
    off = np.abs(rows_sq - 1.0) > _UNIT_ROW_TOL
    if off.any():
        k = int(np.argmax(off))
        raise NumericDomainError(
            f"Gram matrix must have unit diagonal: point {ids[k]} has {float(rows_sq[k])!r}"
        )
    return 0.0, float(np.linalg.eigvalsh(m)[-1])


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
    with the same |zeta - a|; inside, by ``inner._one_minus_conj_zeros``.
    Either way the rows of V keep unit norm next to zeros at the circle.
    Rows are formed in blocks, held as (terms, points) arrays, and summed
    into V*V.
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
    for cols in _row_blocks(z.size, a.size):
        w = zeta[cols]
        den = np.where(on_circle[cols], w * (w - a).conj(), _one_minus_conj_zeros(terms, w))
        e = np.empty(den.shape, dtype=complex)
        e[:1] = 1.0
        np.cumprod((w - a[:-1]) / den[:-1], axis=0, out=e[1:])
        e *= root_weight / den
        e *= scale[cols]  # column i of e is conj(V[i])
        rows_sq[cols] = (e.real * e.real + e.imag * e.imag).sum(axis=0)
        m += e @ e.conj().T
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

    Sections of every size n, one and two points included, are assembled
    here.  Each row block's index pairs i < j of the upper triangles are one
    numpy expression over the whole stack; the strict lower triangles are
    exact conjugate mirrors and the diagonals are 1.  The refusals are an
    unusable norm, then the first inseparable pair, by section, then row,
    then column.  ``ids[p][k]`` names point k of section p in errors.
    """
    _require_usable(norms_sq, ids)
    count, n = z.shape
    s = 1.0 / np.sqrt(norms_sq)
    g = np.empty((count, n, n), dtype=np.complex128)
    d = np.arange(n)
    g[:, d, d] = 1.0
    for rows in _row_blocks(n, count * n):
        i, j = np.nonzero(d[rows, None] < d)
        i += rows.start
        denom = z[:, j].conj() * z[:, i]
        np.subtract(1.0, denom, out=denom)
        near = np.abs(denom) < _SEPARATION_TOL
        if near.any():
            p, k = np.argwhere(near)[0]
            raise NumericDomainError(
                f"points {ids[p][i[k]]} and {ids[p][j[k]]} are numerically inseparable"
            )
        block = values[:, j].conj() * values[:, i]
        np.subtract(1.0, block, out=block)
        block /= denom
        block *= s[:, i] * s[:, j]
        g[:, i, j] = block
        g[:, j, i] = block.conj()
    return g
