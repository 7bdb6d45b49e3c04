"""Boundary argument, level sets, and Clark-family machinery.

On any boundary arc free of spectrum, a nonconstant inner function has a
strictly increasing continuous argument whose rate is the angular
derivative |Theta'|.  For finite data that argument has a closed form,
``inner.boundary_argument`` (Phi), with exp(i Phi) = Theta(e^{it}) exactly,
and ``inner.argument_and_rate`` gives Phi' = |Theta'| from the same pass;
so every level set {Theta = alpha} is enumerated completely as the roots
of the monotone Phi - target, one target per 2*pi of argument increase.
An arc is just its ends (lo, hi) and Phi there.  Every target of every
level on every arc is solved in one lockstep run: one evaluation of Phi
and Phi' on a grid of two points per 2*pi of each arc's increase
brackets every target, then safeguarded Newton steps, one array
evaluation per round, close each bracket to the rounding band of Phi.
The arcs between singular atoms, where Phi diverges, are cut by one
earlier run of the same solver where the increase from each arc's middle
reaches the budget, each cut started inside a closed-form bracket from
its atom's own term.

A level set carries a Clark family: arrays of the angles of its points
tau_n (``ClarkFamily.points``), their angular derivatives, and the weights
a_n = 1/|Theta'(tau_n)| of the associated boundary measure.  For a
complete family these weights reproduce the Herglotz transform

    Re (alpha + Theta(z))/(alpha - Theta(z))
        = sum_n a_n (1 - |z|^2)/|tau_n - z|^2,

which ``herglotz_residuals`` checks at an array of points.  Near a
singular atom the level points accumulate, so enumeration is capped and
the family flagged ``truncated``; a truncated family no longer certifies
the identity.  A point's stability margin against the level point that
anchors its Carleson square is taken with the square parts, in
``mslab.decompose``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericDomainError
from .inner import (
    InnerFunction,
    _values,
    argument_and_rate,
    boundary_argument,
    eval_points,
)
from .points import TWO_PI, normalize_angles


# A trim cut stays this far, in angle, from the atom it cuts away: ten times
# the 1e-12 within which a boundary point counts as on the atom (and the
# 1e-13 margin of ``_check_arc_clear``).
_ATOM_CLEARANCE = 1e-11


@dataclass(frozen=True, eq=False)
class ClarkFamily:
    """Level set of Theta at a unimodular alpha, with weights 1/|Theta'|.

    ``points`` holds the level points' angles in [0, 2*pi), ``derivs`` the
    rates |Theta'| there and ``weights`` their reciprocals, as float arrays.
    """

    alpha: complex
    points: np.ndarray
    derivs: np.ndarray
    weights: np.ndarray
    truncated: bool = False

    def __len__(self) -> int:
        return self.points.size


def _check_arc_clear(theta: InnerFunction, lo: np.ndarray, hi: np.ndarray) -> None:
    """Refuse the first arc [lo, hi] within 1e-13 of an atom's angle or its 2*pi shifts."""
    atoms = np.array([a for a, _ in theta.singular_atoms])
    shifts = atoms[:, None] + np.array([0.0, TWO_PI, -TWO_PI])
    touch = (lo[:, None, None] - 1e-13 <= shifts) & (shifts <= hi[:, None, None] + 1e-13)
    if touch.any():
        j, i, _ = np.argwhere(touch)[0]
        raise NumericDomainError(
            f"arc [{float(lo[j])}, {float(hi[j])}] touches the singular atom at angle {atoms[i]}"
        )


def _solve(
    theta: InnerFunction,
    lo: np.ndarray,
    hi: np.ndarray,
    cells: np.ndarray,
    arc: np.ndarray,
    targets: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Brackets (a, b) of the roots of Phi = target on arcs [lo, hi] free of atoms.

    Arc j is sampled at ``cells[j] + 1`` equally spaced angles, its ends
    included, in one evaluation of Phi and Phi'; one searchsorted per arc
    then brackets each target (on arc ``arc``) between neighbouring
    samples.  Phi carries a rounding noise of about
    4 eps (|target| + 4 degree + 1).  A target below Phi(lo) or within
    that noise above it gives (lo, lo), and one above Phi(hi) or within
    the noise below it gives (hi, hi): a root at an end of the full
    circle is 0 or 2*pi exactly.  From the sample nearer the target in
    Phi, every bracket takes lockstep Newton steps, one array evaluation
    per round, each step kept strictly inside its bracket or replaced by
    the midpoint (the bracketed Newton of Numerical Recipes' ``rtsafe``).
    A bracket is done once it is no wider than the rounding band
    noise/Phi', and never below two ulps of its ends, so its midpoint is
    within one ulp of the root (the level check in ``level_sets`` allows
    about two); a step shorter than half the band probes the open side
    by half a band instead.  Every end is a point where Phi was
    evaluated, so Phi(a) < target <= Phi(b) holds on return.
    """
    cells = np.asarray(cells, dtype=int)
    owner = np.repeat(np.arange(lo.size), cells + 1)
    first = np.concatenate([[0], np.cumsum(cells + 1)])
    frac = (np.arange(owner.size) - first[owner]) / cells[owner]
    grid = lo[owner] * (1.0 - frac) + hi[owner] * frac
    values, rates = argument_and_rate(theta, grid)
    noise = 4.0 * np.finfo(float).eps * (np.abs(targets) + 4.0 * theta.degree + 1.0)
    below = targets - values[first[arc]] <= noise
    above = ~below & (values[first[arc + 1] - 1] - targets < noise)
    k = np.empty(targets.size, dtype=int)
    for j in range(lo.size):
        on = arc == j
        k[on] = first[j] + np.searchsorted(values[first[j] : first[j + 1]], targets[on])
    k = np.clip(k, first[arc] + 1, first[arc + 1] - 1)
    a, b = grid[k - 1], grid[k]
    a[below], b[above] = lo[arc[below]], hi[arc[above]]
    b[below], a[above] = a[below], b[above]
    # Newton starts from the sample whose Phi is nearer the target; the
    # open brackets are carried as compact arrays, written back as they close
    near = np.where(targets - values[k - 1] < values[k] - targets, k - 1, k)
    live = np.flatnonzero(~(below | above))
    a_, b_, t_, noise_ = a[live], b[live], targets[live], noise[live]
    x_, phi, rate = grid[near[live]], values[near[live]], rates[near[live]]
    while True:
        band = np.maximum(noise_ / rate, 2.0 * np.spacing(np.maximum(np.abs(a_), np.abs(b_))))
        open_ = b_ - a_ > band
        if not (live.size and open_.all()):
            a[live], b[live] = a_, b_
            if not open_.any():
                return a, b
            live, a_, b_, t_, noise_ = live[open_], a_[open_], b_[open_], t_[open_], noise_[open_]
            x_, phi, rate, band = x_[open_], phi[open_], rate[open_], band[open_]
        step = (t_ - phi) / rate
        short = np.abs(step) < 0.5 * band  # probe the open side instead
        if short.any():
            step[short] = np.where(phi[short] < t_[short], 0.5, -0.5) * band[short]
        x_ = x_ + step
        out = ~((x_ > a_) & (x_ < b_))
        if out.any():
            x_[out] = 0.5 * (a_[out] + b_[out])
        phi, rate = argument_and_rate(theta, x_)
        low = phi < t_
        a_, b_ = np.where(low, x_, a_), np.where(low, b_, x_)


def _level_arcs(theta: InnerFunction, max_points_per_arc: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum-free arcs (lo, hi) covering the solvable part of the circle.

    Pure Blaschke data gives the full circle.  Phi diverges at the atoms,
    so each arc between neighbouring atoms is cut where Phi reaches
    Phi(mid) -+ pi (``max_points_per_arc`` + 1), on the side of the cut
    that stays within that budget, but never nearer than ``_ATOM_CLEARANCE``
    to the atom: next to a light atom Phi reaches the budget only there,
    and the arc ends at the clearance with less.  Both cuts of every arc
    come from one ``_solve``.

    Each cut is bracketed in closed form first.  On a half-arc [lo, hi]
    with the atom (a, m) at its outer end, Phi = m cot((a - t)/2) + R,
    where every other term of R increases along the arc; so at the cut,
    m cot((a - t)/2) = target - R lies between target - R(hi) and
    target - R(lo), and inverting the cotangent there brackets t.  An end
    of that bracket inside the half-arc replaces the half-arc's end where
    Phi, evaluated there, confirms it; the solve then starts inside the
    bracket, not from the arc's middle, whose Newton steps overshoot
    towards the pole.
    """
    if not theta.singular_atoms:
        return np.array([0.0]), np.array([TWO_PI])
    atoms, mass = np.array(sorted(theta.singular_atoms)).T
    ends = np.append(atoms[1:], atoms[0] + TWO_PI)
    mid = 0.5 * (atoms + ends)
    count = atoms.size
    # the half-arcs: [atom + clearance, mid] against the atom below, then
    # [mid, end - clearance] against the atom above
    lo = np.concatenate([np.minimum(atoms + _ATOM_CLEARANCE, mid), mid])
    hi = np.concatenate([mid, np.maximum(ends - _ATOM_CLEARANCE, mid)])
    pole, m = np.concatenate([atoms, ends]), np.concatenate([mass, np.roll(mass, -1)])
    side = np.repeat([-1.0, 1.0], count)  # the pole's side of its half-arc
    phi_lo, phi_hi = np.split(boundary_argument(theta, np.concatenate([lo, hi])), 2)
    half = math.pi * (max_points_per_arc + 1)
    targets = np.concatenate([phi_hi[:count] - half, phi_lo[count:] + half])  # Phi(mid) -+ half

    def own(t: np.ndarray) -> np.ndarray:  # the pole's term m cot((a - t)/2)
        return m / np.tan(0.5 * (pole - t))

    def inverse(c: np.ndarray) -> np.ndarray:  # the t on the half-arc where own(t) = c
        return np.clip(pole - 2.0 * np.arctan2(side * m, side * c), lo, hi)

    below, above = inverse(targets - (phi_hi - own(hi))), inverse(targets - (phi_lo - own(lo)))
    phi_below, phi_above = np.split(boundary_argument(theta, np.concatenate([below, above])), 2)
    a, b = _solve(
        theta,
        np.where((phi_below < targets) & (below < hi), below, lo),
        np.where((phi_above >= targets) & (above > lo), above, hi),
        np.ones(2 * count, dtype=int),
        np.arange(2 * count),
        targets,
    )
    lo, hi = b[:count], a[count:]
    keep = hi - lo > 0.0
    _check_arc_clear(theta, lo[keep], hi[keep])
    return lo[keep], hi[keep]


def _level_targets(
    v0: np.ndarray, v1: np.ndarray, phase: np.ndarray, full_circle: bool, max_points_per_arc: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bool]]:
    """Values of Phi at which arg Theta = phase[i] (mod 2*pi), on each arc's range [v0[j], v1[j]].

    Returns the targets, ordered by arc, then level, then value, with the
    arc and the level of each, and per level whether an arc hit the cap.
    The targets on arc j for level i are phase[i] + 2*pi (k + m), m = 0,
    1, ..., with k = ceil((v0 - phase)/2*pi).  On the full circle their
    count is the number of turns round((v1 - v0)/2*pi): any run of
    degree-many consecutive sheets carries the complete root set mod 2*pi,
    which sidesteps all float-noise bookkeeping at the wrap seam; it is
    capped above ``max_points_per_arc``.  On an arc between atoms the count
    is the number of targets <= v1, a floor estimate moved by one either
    way by that very test; it is capped at ``max_points_per_arc``.
    """
    k = np.ceil((v0[:, None] - phase) / TWO_PI)  # (arc, level)
    if full_circle:
        count = np.broadcast_to(np.round((v1 - v0) / TWO_PI)[:, None], k.shape)
        capped = count > max_points_per_arc
    else:
        top = v1[:, None]
        count = np.maximum(np.floor((top - phase) / TWO_PI) - k + 1.0, 0.0)
        count -= (count >= 1.0) & (phase + TWO_PI * (k + count - 1.0) > top)
        count += phase + TWO_PI * (k + count) <= top
        capped = count >= max_points_per_arc
    count = np.minimum(count, max_points_per_arc).astype(int).ravel()
    pair = np.repeat(np.arange(count.size), count)
    step = np.arange(pair.size) - np.repeat(np.cumsum(count) - count, count)
    arc, level = np.divmod(pair, phase.size)
    targets = phase[level] + TWO_PI * (k.ravel()[pair] + step)
    return targets, arc, level, capped.any(axis=0).tolist()


def level_sets(
    theta: InnerFunction,
    alphas: Sequence[complex],
    max_points_per_arc: int = 512,
) -> list[ClarkFamily]:
    """Level sets for several unimodular values, solved together.

    Pure Blaschke data is solved on the full circle and enumeration is
    complete (one point per 2*pi of argument increase, i.e. the degree).
    Arcs between singular atoms are trimmed to an argument budget of
    ``max_points_per_arc + 1`` turns, so each arc gives at most, and as a
    rule exactly, ``max_points_per_arc`` points per level; such families
    are flagged truncated.  Every target of every level on every arc is
    solved in one lockstep ``_solve``, on a grid of two points per 2*pi of
    each arc's increase (so a target's root does not depend on which
    other targets share the call), and all roots are checked against
    their levels in one evaluation.
    """
    if theta.is_constant:
        raise NumericDomainError("constant inner function has no level sets")
    values = []
    for alpha in alphas:
        alpha = complex(alpha)
        if not abs(abs(alpha) - 1.0) <= 1e-12:  # also refuses NaN
            raise ConfigError(
                f"level value must be unimodular, got |alpha| = {abs(alpha)!r}"
            )
        values.append(alpha)
    lo, hi = _level_arcs(theta, max_points_per_arc)
    v0, v1 = np.split(boundary_argument(theta, np.concatenate([lo, hi])), 2)
    full_circle = not theta.singular_atoms
    if full_circle:
        increase = float(v1[0] - v0[0])
        if int(round(increase / TWO_PI)) != theta.degree:
            raise NumericDomainError(
                f"argument increase {increase} inconsistent with degree {theta.degree}"
            )
    phase = np.array([cmath.phase(alpha) for alpha in values], dtype=float)
    t, arc_of, owner_of, capped = _level_targets(v0, v1, phase, full_circle, max_points_per_arc)
    if np.any(v0[arc_of] - t > 1e-8):
        raise NumericDomainError("level target below the branch range")
    if np.any(t - v1[arc_of] > 1e-8):
        raise NumericDomainError("level target above the branch range")
    turns = np.ceil((v1 - v0) / TWO_PI).astype(int)
    a, b = _solve(theta, lo, hi, 2 * np.maximum(turns, 1), arc_of, t)
    counts = np.bincount(owner_of, minlength=len(values))
    if full_circle:
        for n, cap in zip(counts.tolist(), capped):
            if not cap and n != theta.degree:
                raise NumericDomainError(f"found {n} level points, expected {theta.degree}")
    roots = normalize_angles(0.5 * (a + b))
    order = np.lexsort((roots, owner_of))  # by level, then by angle
    ang = roots[order]
    level = np.array(values, dtype=complex)[owner_of[order]]
    vals, derivs = eval_points(theta, np.exp(1j * ang))
    residual = np.abs(vals - level)
    # the achievable residual is floored by the rate times one ulp of angle
    tol = np.maximum(1e-10, 8.0 * derivs * 2.3e-16 * np.maximum(1.0, np.abs(ang)))
    miss = np.flatnonzero(residual > tol)
    if miss.size:
        i = miss[0]
        raise NumericDomainError(
            f"level point at angle {ang[i]} misses alpha: residual {float(residual[i])!r}"
        )
    splits = np.cumsum(counts)[:-1]
    return [
        ClarkFamily(
            alpha=alpha,
            points=fam_ang,
            derivs=fam_d,
            weights=1.0 / fam_d,
            truncated=not full_circle or cap,
        )
        for alpha, cap, fam_ang, fam_d in zip(
            values, capped, np.split(ang, splits), np.split(derivs, splits)
        )
    ]


def level_set(
    theta: InnerFunction,
    alpha: complex,
    max_points_per_arc: int = 512,
) -> ClarkFamily:
    """All boundary solutions of Theta = alpha, with derivatives and weights."""
    return level_sets(theta, [alpha], max_points_per_arc)[0]


def herglotz_residuals(
    theta: InnerFunction, family: ClarkFamily, z: np.ndarray
) -> np.ndarray:
    """Gap between the Herglotz transform and the family's Poisson sum at
    each of a 1-D array of interior points.

    Small (<= 1e-8) only for complete families; a truncated family misses
    mass near the spectrum and its residuals do not certify anything.
    """
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise NumericDomainError("Herglotz residual needs an interior point")
    val = _values(theta._terms, z)
    lhs = ((family.alpha + val) / (family.alpha - val)).real
    taus = np.exp(1j * family.points)
    poisson = (1.0 - np.abs(z[:, None]) ** 2) / np.abs(taus - z[:, None]) ** 2
    return np.abs(lhs - poisson @ family.weights)

