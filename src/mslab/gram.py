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

Every section's bounds come from ``_stacked_bounds``, by part size, one
stack of equal-size parts at a time.  Assembled stacks take ``_eig_bounds``:
parts of three or more points one stacked call of LAPACK's Hermitian solver
(``np.linalg.eigvalsh``), the stack's extremal eigenvalues read, and
clamped, as arrays.  Parts of one or two points run no eigensolver: a
section with unit diagonal [[1, G_12], [G_21, 1]] has eigenvalues exactly
1 -+ |G_21|, so the bounds are one point's (1, 1) and a pair's 1 -+ |G_21|,
read off its assembled section, up to the rounding of |G_21| and of the
sum, where LAPACK's reduction and 2-by-2 solve round several times more.
Two front ends feed it, and each caller calls one of them once, on its
finished partition or its whole section: ``part_frame_bounds`` bounds parts
of points for ``split_by_interpolation``, ``decompose_by_squares`` and
``analyze``, and ``block_frame_bounds`` reads principal blocks of a Gram
already formed for ``pw_split`` (``mslab.pw``) and ``pw``.  A whole
section is one part of either.

Only ``part_frame_bounds`` decides the rank route.  A Blaschke product of
degree d spans a d-dimensional K_Theta, with the Takenaka-Malmquist-Walsh
orthonormal basis e_1, ..., e_d.  So with n > d points and no singular
atoms a part's section is the Gram matrix of the n rows of an n-by-d
matrix V, formed from one cumulative product over the factors: lambda_min
= 0 is then a proof by rank, not a computed eigenvalue, and lambda_max is
the top eigenvalue of the d-by-d V*V, one stacked ``eigvalsh`` per stack of
such parts.  No n-by-n matrix is formed, and no entry
1 - conj(Theta(l_j)) Theta(l_i) cancels as |Theta| -> 1.  Parts of Theta
with atoms, or of n <= d points, are assembled in full.
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
    d, parts of more than d points take the factored route: lambda_min = 0
    by rank and lambda_max the top eigenvalue of V*V (``_factored_gram``),
    one stacked ``eigvalsh`` call.  Other parts are assembled
    (``_sections``) and bounded by ``_eig_bounds``.
    """
    labels = np.asarray(ids)
    rank = math.inf if theta.singular_atoms else theta.degree

    def bounds(idx: np.ndarray) -> tuple:
        args = z[idx], values[idx], norms_sq[idx], labels[idx]
        if idx.shape[1] > rank:
            return 0.0, np.linalg.eigvalsh(_factored_gram(theta, *args))[:, -1]
        return _eig_bounds(_sections(*args))

    return _stacked_bounds(members, offsets, bounds)


def block_frame_bounds(
    g: np.ndarray, members: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and lambda_max of the principal block of the Hermitian ``g``
    at each part's positions ``members[offsets[k]:offsets[k + 1]]``, as arrays.

    ``g`` has a unit diagonal, as ``pw.pw_gram``'s ``fill_diagonal`` makes
    it: a part of one or two points is bounded by ``_eig_bounds``' closed
    form, which reads no diagonal entry.  No Theta comes with ``g``, so
    every block is bounded by its eigenvalues, with no rank route.
    """
    return _stacked_bounds(
        members, offsets, lambda idx: _eig_bounds(g[idx[:, :, None], idx[:, None, :]])
    )


def _stacked_bounds(
    members: np.ndarray, offsets: np.ndarray, bounds: Callable[[np.ndarray], tuple]
) -> tuple[np.ndarray, np.ndarray]:
    """lambda_min and lambda_max of each part, grouped by size here.

    ``part_frame_bounds`` and ``block_frame_bounds`` supply ``bounds``,
    which maps a (P, m) array of parts of size m to their lambda_min and
    lambda_max, arrays of P or scalars.  Every size goes in stacks of at
    most 2^15 section entries.  Roundoff in (-1e-10, 0) in lambda_min is
    clamped to 0; -0.0 is kept.
    """
    low, high = np.empty((2, offsets.size - 1))
    for parts, slots in _by_size(offsets):
        m = slots.shape[1]
        if not m:
            raise NumericDomainError(f"part {int(parts[0])} is empty: it has no Gram section")
        for rows in _row_blocks(parts.size, m * m):
            low[parts[rows]], high[parts[rows]] = bounds(members[slots[rows]])
    return np.where((-1e-10 < low) & (low < 0.0), 0.0, low), high


def _eig_bounds(stack: np.ndarray) -> tuple:
    """lambda_min and lambda_max of each section of a (P, m, m) stack with unit diagonal.

    The stack takes one finiteness check.  Sections of three or more points
    then take one stacked ``eigvalsh`` call.  A pair's bounds are read off
    its section as 1 -+ c, c = |G_21|, the exact eigenvalues of
    [[1, G_12], [G_21, 1]] up to the rounding of c and of the sum (1 - c is
    exact where c >= 1/2), and one point's as 1 -+ 0.
    """
    if not np.isfinite(stack).all():
        raise NumericDomainError("eigenvalue input has non-finite entries")
    m = stack.shape[1]
    if m > 2:
        eigs = np.linalg.eigvalsh(stack)
        return eigs[:, 0], eigs[:, -1]
    c = np.abs(stack[:, 1, 0]) if m == 2 else 0.0
    return 1.0 - c, 1.0 + c


def _by_size(offsets: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per size m of the parts with members at ``offsets[k]:offsets[k + 1]``: the
    positions of the parts of size m, and the (count, m) array of their member slots."""
    sizes = np.diff(offsets)
    groups = []
    for m in dict.fromkeys(sizes.tolist()):
        parts = np.flatnonzero(sizes == m)
        groups.append((parts, np.add.outer(offsets[parts], np.arange(m))))
    return groups


def _factored_gram(
    theta: InnerFunction, z: np.ndarray, values: np.ndarray, norms_sq: np.ndarray, ids: np.ndarray
) -> np.ndarray:
    """V*V of V[i, j] = conj(e_j(l_i))/||k_{l_i}||, for each row of the (P, n)
    stack z of n > d points of a Blaschke product of degree d: (P, d, d).

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
    Rows are formed in blocks of columns of the stack, held as (terms,
    points) arrays, and summed into each row's V*V by one stacked product.
    The refusals are those of ``_sections`` and ``_eig_bounds``, in their
    order, then a row of V off the unit sphere; ``ids[p][k]`` names point k
    of row p.
    """
    _require_usable(norms_sq, ids)
    _refuse_inseparable(z, ids)
    terms = theta._terms
    a = terms.zeros
    root_weight = np.sqrt(terms.weight)
    radius = np.abs(z)
    on_circle = radius >= _NORM_EDGE
    edge = on_circle & (radius < 1.0 - BOUNDARY_TOL)
    zeta = z.copy()
    zeta[edge] = z[edge] / radius[edge]
    scale = 1.0 / np.sqrt(norms_sq)
    count, n = z.shape
    m = np.zeros((count, a.size, a.size), dtype=complex)
    rows_sq = np.empty(z.shape)
    for cols in _row_blocks(n, count * a.size):
        w = zeta[:, cols].ravel()
        den = np.where(on_circle[:, cols].ravel(), w * (w - a).conj(), _one_minus_conj_zeros(terms, w))
        e = np.empty(den.shape, dtype=complex)
        e[:1] = 1.0
        np.cumprod((w - a[:-1]) / den[:-1], axis=0, out=e[1:])
        e *= root_weight / den
        e *= scale[:, cols].ravel()  # column i of e is conj(V[i])
        rows_sq[:, cols] = (e.real * e.real + e.imag * e.imag).sum(axis=0).reshape(count, -1)
        e = e.reshape(a.size, count, -1).transpose(1, 0, 2)
        m += e @ e.conj().swapaxes(1, 2)
    if not (np.isfinite(values).all() and np.isfinite(m).all()):
        raise NumericDomainError("eigenvalue input has non-finite entries")
    off = np.abs(rows_sq - 1.0) > _UNIT_ROW_TOL
    if off.any():
        p, k = np.argwhere(off)[0]
        raise NumericDomainError(
            f"Gram matrix must have unit diagonal: point {ids[p][k]} has {float(rows_sq[p, k])!r}"
        )
    return m


def _require_usable(norms_sq: np.ndarray, ids: Sequence[Sequence[int]]) -> None:
    """Refuse a kernel norm squared that is not positive and finite; ``ids[p][k]`` names it."""
    usable = (norms_sq > 0.0) & (norms_sq < math.inf)
    if not usable.all():
        p, k = np.unravel_index(np.argmin(usable), usable.shape)
        raise NumericDomainError(
            f"point {ids[p][k]} has unusable kernel norm squared {float(norms_sq[p, k])!r}"
        )


def _refuse_inseparable(z: np.ndarray, ids: Sequence[Sequence[int]]) -> None:
    """Refuse the first pair i < j of a row of the (P, n) stack z with
    |1 - conj(z_j) z_i| < _SEPARATION_TOL, by row p, then i, then j.

    ``ids[p][k]`` names point k of row p.  That quantity is at least
    1 - |z_i||z_j|, so only points with 1 - |z_i| max|z| below twice the
    tolerance (a margin for rounding), max over their row, are compared
    pairwise: each row's near points are moved to its front, in order, and
    the columns past the most any row has are dropped.  A far point kept in
    a shorter row is apart from every point by the same bound.
    """
    radius = np.abs(z)
    near = 1.0 - radius * radius.max(axis=1, keepdims=True) < 2.0 * _SEPARATION_TOL
    rows = np.flatnonzero(near.any(axis=1))
    if not rows.size:
        return
    near = near[rows]
    cols = np.argsort(~near, axis=1, kind="stable")[:, : near.sum(axis=1).max()]
    w = np.take_along_axis(z[rows], cols, 1)
    denom = w[:, None, :].conj() * w[:, :, None]
    close = np.triu(np.abs(np.subtract(1.0, denom, out=denom)) < _SEPARATION_TOL, 1)
    if close.any():
        p, i, j = np.argwhere(close)[0]
        labels = ids[rows[p]]
        raise NumericDomainError(
            f"points {labels[cols[p, i]]} and {labels[cols[p, j]]} are numerically inseparable"
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
    unusable norm, then the first inseparable pair (``_refuse_inseparable``).
    ``ids[p][k]`` names point k of section p in errors.
    """
    _require_usable(norms_sq, ids)
    _refuse_inseparable(z, ids)
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
        block = values[:, j].conj() * values[:, i]
        np.subtract(1.0, block, out=block)
        block /= denom
        block *= s[:, i] * s[:, j]
        g[:, i, j] = block
        g[:, j, i] = block.conj()
    return g
