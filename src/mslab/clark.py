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
reaches the budget.

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

``variation_along_path`` integrates |Theta'| along a polyline inside the
disk by adaptive quadrature (``mslab.quadrature``); off the circle no
closed form gives it.
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
    argument_and_rate,
    boundary_argument,
    derivative,
    eval_points,
)
from .points import TWO_PI, normalize_angles
from .quadrature import adaptive_simpson


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

    def to_json_dict(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "points": self.points.tolist(),
            "derivs": self.derivs.tolist(),
            "weights": self.weights.tolist(),
            "truncated": self.truncated,
        }


def _check_arc_clear(theta: InnerFunction, lo: float, hi: float) -> None:
    for a, _ in theta.singular_atoms:
        for shift in (a, a + TWO_PI, a - TWO_PI):
            if lo - 1e-13 <= shift <= hi + 1e-13:
                raise NumericDomainError(
                    f"arc [{lo}, {hi}] touches the singular atom at angle {a}"
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
    # Newton starts from the sample whose Phi is nearer the target
    near = np.where(targets - values[k - 1] < values[k] - targets, k - 1, k)
    x, phi, rate = grid[near], values[near], rates[near]
    live = np.flatnonzero(~(below | above))
    while True:
        a_, b_ = a[live], b[live]
        band = np.maximum(
            noise[live] / rate[live], 2.0 * np.spacing(np.maximum(np.abs(a_), np.abs(b_)))
        )
        open_ = b_ - a_ > band
        live, a_, b_, band = live[open_], a_[open_], b_[open_], band[open_]
        if not live.size:
            return a, b
        t_ = targets[live]
        step = (t_ - phi[live]) / rate[live]
        short = np.abs(step) < 0.5 * band  # probe the open side instead
        step[short] = np.where(phi[live[short]] < t_[short], 0.5, -0.5) * band[short]
        x_ = x[live] + step
        out = ~((x_ > a_) & (x_ < b_))
        x_[out] = 0.5 * (a_[out] + b_[out])
        x[live] = x_
        phi[live], rate[live] = argument_and_rate(theta, x_)
        low = phi[live] < t_
        a[live[low]], b[live[~low]] = x_[low], x_[~low]


def _level_arcs(theta: InnerFunction, max_points_per_arc: int) -> tuple[np.ndarray, np.ndarray]:
    """Spectrum-free arcs (lo, hi) covering the solvable part of the circle.

    Pure Blaschke data gives the full circle.  Phi diverges at the atoms,
    so each arc between neighbouring atoms is cut where Phi reaches
    Phi(mid) -+ pi (``max_points_per_arc`` + 1), on the side of the cut
    that stays within that budget, but never nearer than ``_ATOM_CLEARANCE``
    to the atom: next to a light atom Phi reaches the budget only there,
    and the arc ends at the clearance with less.  Both cuts of every arc
    come from one ``_solve``, each bracketed by its half-arc's ends alone.
    """
    if not theta.singular_atoms:
        return np.array([0.0]), np.array([TWO_PI])
    atoms = np.sort([a for a, _ in theta.singular_atoms])
    ends = np.append(atoms[1:], atoms[0] + TWO_PI)
    mid = 0.5 * (atoms + ends)
    centre = boundary_argument(theta, mid)
    half = math.pi * (max_points_per_arc + 1)
    cuts = np.arange(2 * atoms.size)
    a, b = _solve(
        theta,
        np.concatenate([np.minimum(atoms + _ATOM_CLEARANCE, mid), mid]),
        np.concatenate([mid, np.maximum(ends - _ATOM_CLEARANCE, mid)]),
        np.ones_like(cuts),
        cuts,
        np.concatenate([centre - half, centre + half]),
    )
    lo, hi = b[: atoms.size], a[atoms.size :]
    keep = hi - lo > 0.0
    for l, h in zip(lo[keep].tolist(), hi[keep].tolist()):
        _check_arc_clear(theta, l, h)
    return lo[keep], hi[keep]


def _branch_targets(
    v0: float, v1: float, target_arg: float, full_circle: bool, max_points_per_arc: int
) -> tuple[list[float], bool]:
    """Values of Phi in [v0, v1] at which arg Theta = target_arg (mod 2*pi), and a cap flag."""
    k = math.ceil((v0 - target_arg) / TWO_PI)
    if full_circle:
        # any run of degree-many consecutive sheets carries the complete
        # root set mod 2*pi; enumerating exactly that many sidesteps all
        # float-noise bookkeeping at the wrap seam
        count = int(round((v1 - v0) / TWO_PI))
        capped = count > max_points_per_arc
        return [target_arg + TWO_PI * (k + j) for j in range(min(count, max_points_per_arc))], capped
    targets: list[float] = []
    while len(targets) < max_points_per_arc:
        target = target_arg + TWO_PI * (k + len(targets))
        if target > v1:
            break
        targets.append(target)
    return targets, len(targets) >= max_points_per_arc


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
    targets: list[float] = []
    owner: list[int] = []  # the level of each target
    arc: list[int] = []  # the arc of each target
    capped = [False] * len(values)
    for j in range(lo.size):
        for i, alpha in enumerate(values):
            found, cap = _branch_targets(
                float(v0[j]), float(v1[j]), cmath.phase(alpha), full_circle, max_points_per_arc
            )
            capped[i] = capped[i] or cap
            targets += found
            owner += [i] * len(found)
            arc += [j] * len(found)
    t = np.array(targets, dtype=float)
    arc_of, owner_of = np.array(arc, dtype=int), np.array(owner, dtype=int)
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
    val, _ = eval_points(theta, z)
    lhs = ((family.alpha + val) / (family.alpha - val)).real
    taus = np.exp(1j * family.points)
    poisson = (1.0 - np.abs(z[:, None]) ** 2) / np.abs(taus - z[:, None]) ** 2
    return np.abs(lhs - poisson @ family.weights)


def variation_along_path(
    theta: InnerFunction,
    tau: complex,
    lam: complex,
    via: Sequence[complex] | None = None,
) -> float:
    """Integral of |Theta'| along the path from tau to lam.

    The path is the straight segment by default; ``via`` inserts polyline
    waypoints (useful to route around spectrum points).  The analytic
    derivative comes from differentiating the product/atom representation;
    every segment must stay clear of the spectrum.
    """
    nodes = [complex(tau)] + [complex(w) for w in (via or ())] + [complex(lam)]
    total = 0.0
    for start, end in zip(nodes, nodes[1:]):
        if start == end:
            continue
        for p in theta.spectrum_points():
            if _segment_distance(start, end, p) < 1e-12:
                raise NumericDomainError(
                    f"path from {start} to {end} hits the spectrum at {p}"
                )
        chord = end - start

        def integrand(t: np.ndarray, base: complex = start, step: complex = chord) -> np.ndarray:
            return np.abs(derivative(theta, base + t * step))

        total += abs(chord) * float(adaptive_simpson(integrand, 0.0, 1.0, rel_tol=1e-8)[0])
    return total


def _segment_distance(a: complex, b: complex, p: complex) -> float:
    """Euclidean distance from point p to the segment [a, b]."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(p - a)
    t = ((p - a) * ab.conjugate()).real / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))
