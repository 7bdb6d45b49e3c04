"""Adaptive Simpson quadrature of smooth real integrands, many intervals at once.

Each interval follows Lyness's recursion (JACM 16, 1969): Simpson's rule S1
against the sum S2 of the rule on the two halves; S2 + (S2 - S1)/15 is
accepted once |S2 - S1| <= 15 tol, else each half is refined with tol/2.
The recursion runs level by level: each round evaluates the integrand once,
on the new nodes of every open interval.  Past ``_BATCH`` open intervals the
rest wait on a stack, newest first, so memory stays bounded and a hopeless
integrand meets the depth limit as soon as the recursion would.
No module of the package integrates numerically any more; this one is
kept only because ``bench/tracer.py`` lists it among the traced layers.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericDomainError

# Open intervals refined per integrand call; the rest wait on the stack.
_BATCH = 1 << 12


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    rel_tol: float = 1e-9,
    abs_tol: float = 1e-14,
    max_depth: int = 60,
) -> np.ndarray:
    """Integrals of f over the intervals [a_i, b_i] (1-D arrays), by adaptive Simpson.

    ``f`` maps an array of nodes to the array of its values.  An interval's
    tolerance starts at rel_tol * max(|S1|, abs_tol) + abs_tol.  Raises if
    an interval needs more than ``max_depth`` splits (integrand too rough
    for the requested tolerance).
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    total = np.zeros(a.shape)
    owner = np.flatnonzero(b != a)
    if not owner.size:
        return total
    a, b = a[owner], b[owner]
    m = 0.5 * (a + b)
    fa, fm, fb = np.split(f(np.concatenate([a, m, b])), 3)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = rel_tol * np.maximum(np.abs(whole), abs_tol) + abs_tol
    # rows: owner, a, b, f(a), f(m), f(b), S1, tol; all of one batch share a depth
    stack = [(max_depth, np.array([owner, a, b, fa, fm, fb, whole, tol]))]
    while stack:
        depth, batch = stack.pop()
        if batch.shape[1] > _BATCH:
            stack.append((depth, batch[:, _BATCH:]))
            batch = batch[:, :_BATCH]
        owner, a, b, fa, fm, fb, whole, tol = batch
        m = 0.5 * (a + b)
        flm, frm = np.split(f(np.concatenate([0.5 * (a + m), 0.5 * (m + b)])), 2)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        if depth <= 0:
            raise NumericDomainError("adaptive quadrature failed to converge")
        both = left + right
        done = np.abs(both - whole) <= 15.0 * tol
        np.add.at(total, owner[done].astype(int), (both + (both - whole) / 15.0)[done])
        split = ~done
        if split.any():
            half = 0.5 * tol
            stack.append((depth - 1, np.hstack([
                np.array([owner, a, m, fa, flm, fm, left, half])[:, split],
                np.array([owner, m, b, fm, frm, fb, right, half])[:, split],
            ])))
    return total
