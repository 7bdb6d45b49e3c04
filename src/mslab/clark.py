"""Boundary argument, level sets, and Clark-family machinery.

On any boundary arc free of spectrum, a nonconstant inner function has a
strictly increasing continuous argument whose rate is the angular
derivative |Theta'|.  For finite data that argument has a closed form,
``inner.boundary_argument`` (Phi), with exp(i Phi) = Theta(e^{it}) exactly;
so every level set {Theta = alpha} is enumerated completely by monotone
bisection of Phi - target, one target per 2*pi of argument increase.
All targets on an arc are bisected in lockstep, one array evaluation of
Phi per round, down to the spacing of doubles at the arc's ends.  Arcs
next to a singular atom, where Phi diverges, are cut by the same
bisection where the increase from the arc's middle reaches the budget.

A level set carries a Clark family: the points tau_n, their angular
derivatives, and the weights a_n = 1/|Theta'(tau_n)| of the associated
boundary measure.  For a complete family these weights reproduce the
Herglotz transform

    Re (alpha + Theta(z))/(alpha - Theta(z))
        = sum_n a_n (1 - |z|^2)/|tau_n - z|^2,

which ``herglotz_residual`` checks pointwise.  Near a singular atom the
level points accumulate, so enumeration is capped and the family flagged
``truncated``; a truncated family no longer certifies the identity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericDomainError
from .inner import InnerFunction, boundary_argument, derivative, eval_points
from .points import TWO_PI, PointSequence, UnitPoint, normalize_angle
from .quadrature import adaptive_simpson


# A trim cut stays this far, in angle, from the atom it cuts away: ten times
# the 1e-12 within which a boundary point counts as on the atom (and the
# 1e-13 margin of ``_check_arc_clear``).
_ATOM_CLEARANCE = 1e-11


@dataclass(frozen=True)
class ArgBranch:
    """Continuous increasing branch Phi of arg Theta(e^{i t}) on one arc.

    ``thetas`` holds the arc's ends and ``values`` the closed-form Phi of
    ``inner.boundary_argument`` there; ``value_at`` evaluates Phi exactly
    anywhere on the arc, and the bisections of this module solve Phi =
    target between the ends.
    """

    inner: InnerFunction
    arc: tuple[float, float]
    thetas: np.ndarray
    values: np.ndarray

    @property
    def total_increase(self) -> float:
        return float(self.values[-1] - self.values[0])

    def value_at(self, angle: float) -> float:
        return float(boundary_argument(self.inner, np.array([angle]))[0])


@dataclass(frozen=True)
class ClarkFamily:
    """Level set of Theta at a unimodular alpha, with weights 1/|Theta'|."""

    alpha: complex
    points: tuple[UnitPoint, ...]
    derivs: tuple[float, ...]
    weights: tuple[float, ...]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.points)

    @property
    def angles(self) -> tuple[float, ...]:
        return tuple(p.angle for p in self.points)

    def to_json_dict(self) -> dict:
        return {
            "alpha": [self.alpha.real, self.alpha.imag],
            "points": list(self.angles),
            "derivs": list(self.derivs),
            "weights": list(self.weights),
            "truncated": self.truncated,
        }


def _check_arc_clear(theta: InnerFunction, lo: float, hi: float) -> None:
    for a, _ in theta.singular_atoms:
        for shift in (a, a + TWO_PI, a - TWO_PI):
            if lo - 1e-13 <= shift <= hi + 1e-13:
                raise NumericDomainError(
                    f"arc [{lo}, {hi}] touches the singular atom at angle {a}"
                )


def build_arg_branch(theta: InnerFunction, arc: tuple[float, float]) -> ArgBranch:
    """Closed-form increasing argument branch on a spectrum-free arc."""
    lo, hi = float(arc[0]), float(arc[1])
    if not hi > lo:
        raise ConfigError("arc must have positive length")
    if hi - lo > TWO_PI + 1e-12:
        raise ConfigError("arc cannot exceed a full turn")
    if theta.is_constant:
        raise NumericDomainError("constant inner function has no argument branch")
    _check_arc_clear(theta, lo, hi)
    ends = np.array([lo, hi])
    return ArgBranch(theta, (lo, hi), ends, boundary_argument(theta, ends))


def _bisect(
    theta: InnerFunction, a: np.ndarray, b: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lockstep bisection of Phi = target on brackets [a, b] with no atom inside.

    Each round evaluates Phi at all live midpoints at once; a bracket is
    done once it is no wider than the spacing of doubles at its initial
    ends.  An end that moved keeps its side: Phi(a) < target <= Phi(b).
    """
    a, b = a.astype(float), b.astype(float)
    floor = np.spacing(np.maximum(np.abs(a), np.abs(b)))
    while True:
        m = 0.5 * (a + b)
        k = np.flatnonzero((b - a > floor) & (m > a) & (m < b))
        if not k.size:
            return a, b
        low = boundary_argument(theta, m[k]) < targets[k]
        a[k[low]] = m[k[low]]
        b[k[~low]] = m[k[~low]]


def _solve_on_branch(branch: ArgBranch, targets: np.ndarray) -> np.ndarray:
    """Angles where the branch takes the target values, all in lockstep."""
    t = np.asarray(targets, dtype=float)
    if np.any(branch.values[0] - t > 1e-8):
        raise NumericDomainError("level target below the branch range")
    if np.any(t - branch.values[-1] > 1e-8):
        raise NumericDomainError("level target above the branch range")
    lo, hi = branch.arc
    a, b = _bisect(branch.inner, np.full(t.size, lo), np.full(t.size, hi), t)
    return 0.5 * (a + b)


def _trim_to_budget(
    theta: InnerFunction, lo: float, hi: float, budget: float
) -> tuple[float, float]:
    """Cut an atom-bounded arc so its argument increase stays within budget.

    Phi diverges at the atoms, so each side is cut where Phi reaches
    Phi(mid) -+ budget/2, on the side of the cut that stays within budget,
    but never nearer than ``_ATOM_CLEARANCE`` to the atom: next to a light
    atom Phi reaches the budget only there, and the arc ends at the
    clearance with less.
    """
    mid = 0.5 * (lo + hi)
    half = 0.5 * budget
    centre = float(boundary_argument(theta, np.array([mid]))[0])
    a, b = _bisect(
        theta,
        np.array([min(lo + _ATOM_CLEARANCE, mid), mid]),
        np.array([mid, max(hi - _ATOM_CLEARANCE, mid)]),
        np.array([centre - half, centre + half]),
    )
    return float(b[0]), float(a[1])


def _level_branches(theta: InnerFunction, max_points_per_arc: int) -> list[ArgBranch]:
    """Argument branches covering the solvable part of the circle.

    Pure Blaschke data gives a single full-circle branch.  Each arc between
    neighbouring atoms is trimmed to an argument increase of
    ``max_points_per_arc + 1`` turns, so its families are truncated.
    """
    if not theta.singular_atoms:
        return [build_arg_branch(theta, (0.0, TWO_PI))]
    atoms = sorted(a for a, _ in theta.singular_atoms)
    budget = TWO_PI * (max_points_per_arc + 1)
    branches: list[ArgBranch] = []
    for i, a in enumerate(atoms):
        b = atoms[(i + 1) % len(atoms)]
        if i + 1 == len(atoms):
            b = b + TWO_PI
        c_lo, c_hi = _trim_to_budget(theta, a, b, budget)
        if c_hi - c_lo > 0.0:
            branches.append(build_arg_branch(theta, (c_lo, c_hi)))
    return branches


def _branch_targets(
    branch: ArgBranch, target_arg: float, full_circle: bool, max_points_per_arc: int
) -> tuple[list[float], bool]:
    """Branch values at which arg Theta = target_arg (mod 2*pi), and a cap flag."""
    v0 = float(branch.values[0])
    v1 = float(branch.values[-1])
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


def _family_from_angles(
    theta: InnerFunction, alpha: complex, angles: list[float], truncated: bool
) -> ClarkFamily:
    ang = np.sort(np.asarray(angles, dtype=float))
    vals, derivs = eval_points(theta, np.exp(1j * ang))
    residual = np.abs(vals - alpha)
    # the achievable residual is floored by the rate times one ulp of angle
    tol = np.maximum(1e-10, 8.0 * derivs * 2.3e-16 * np.maximum(1.0, np.abs(ang)))
    miss = np.flatnonzero(residual > tol)
    if miss.size:
        i = miss[0]
        raise NumericDomainError(
            f"level point at angle {ang[i]} misses alpha: residual {float(residual[i])!r}"
        )
    return ClarkFamily(
        alpha=alpha,
        points=tuple(UnitPoint.boundary(t) for t in ang),
        derivs=tuple(float(d) for d in derivs),
        weights=tuple(float(w) for w in 1.0 / derivs),
        truncated=truncated,
    )


def level_sets(
    theta: InnerFunction,
    alphas: Sequence[complex],
    max_points_per_arc: int = 512,
) -> list[ClarkFamily]:
    """Level sets for several unimodular values, sharing one branch build.

    Pure Blaschke data is solved on the full circle and enumeration is
    complete (one point per 2*pi of argument increase, i.e. the degree).
    Arcs between singular atoms are trimmed to an argument budget of
    ``max_points_per_arc + 1`` turns, so each arc gives at most, and as a
    rule exactly, ``max_points_per_arc`` points per level; such families
    are flagged truncated.  The targets of every level on a branch
    are solved together in one lockstep bisection.
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
    branches = _level_branches(theta, max_points_per_arc)
    full_circle = not theta.singular_atoms
    if full_circle:
        branch = branches[0]
        increase = float(branch.values[-1] - branch.values[0])
        if int(round(increase / TWO_PI)) != theta.degree:
            raise NumericDomainError(
                f"argument increase {increase} inconsistent with degree {theta.degree}"
            )
    angles: list[list[float]] = [[] for _ in values]
    capped = [False] * len(values)
    for branch in branches:
        targets: list[float] = []
        owner: list[int] = []
        for i, alpha in enumerate(values):
            found, cap = _branch_targets(
                branch, cmath.phase(alpha), full_circle, max_points_per_arc
            )
            capped[i] = capped[i] or cap
            targets += found
            owner += [i] * len(found)
        for i, root in zip(owner, _solve_on_branch(branch, np.array(targets))):
            angles[i].append(normalize_angle(float(root)))
    families = []
    for alpha, found, cap in zip(values, angles, capped):
        if full_circle and not cap and len(found) != theta.degree:
            raise NumericDomainError(
                f"found {len(found)} level points, expected {theta.degree}"
            )
        families.append(_family_from_angles(theta, alpha, found, not full_circle or cap))
    return families


def level_set(
    theta: InnerFunction,
    alpha: complex,
    max_points_per_arc: int = 512,
) -> ClarkFamily:
    """All boundary solutions of Theta = alpha, with derivatives and weights."""
    return level_sets(theta, [alpha], max_points_per_arc)[0]


def herglotz_residual(
    theta: InnerFunction, family: ClarkFamily, z: complex | UnitPoint
) -> float:
    """Gap between the Herglotz transform and the family's Poisson sum at z.

    Small (<= 1e-8) only for complete families; a truncated family misses
    mass near the spectrum and its residual does not certify anything.
    """
    w = z.value if isinstance(z, UnitPoint) else complex(z)
    return float(herglotz_residuals(theta, family, np.array([w]))[0])


def herglotz_residuals(
    theta: InnerFunction, family: ClarkFamily, z: np.ndarray
) -> np.ndarray:
    """``herglotz_residual`` over a 1-D array of interior points."""
    z = np.asarray(z, dtype=complex)
    if np.any(np.abs(z) >= 1.0):
        raise NumericDomainError("Herglotz residual needs an interior point")
    val, _ = eval_points(theta, z)
    lhs = ((family.alpha + val) / (family.alpha - val)).real
    taus = np.array([p.value for p in family.points], dtype=complex)
    weights = np.array(family.weights, dtype=float)
    poisson = (1.0 - np.abs(z[:, None]) ** 2) / np.abs(taus - z[:, None]) ** 2
    return np.abs(lhs - poisson @ weights)


def stability_margin(
    theta: InnerFunction, family: ClarkFamily, seq: PointSequence
) -> list[float]:
    """Per-index perturbation ratios |lambda_n - tau_n| * |Theta'(tau_n)|.

    The pairing is by position, never re-matched: a silent nearest-point
    rematch would hide exactly the violations this measures.
    """
    if len(seq) != len(family.points):
        raise ConfigError(
            f"sequence length {len(seq)} does not match family size {len(family.points)}"
        )
    out = []
    for (_pid, lam), tau, d in zip(seq, family.points, family.derivs):
        out.append(abs(lam.value - tau.value) * d)
    return out


def variation_along_path(
    theta: InnerFunction,
    tau: complex | UnitPoint,
    lam: complex | UnitPoint,
    via: Sequence[complex] | None = None,
) -> float:
    """Integral of |Theta'| along the path from tau to lam.

    The path is the straight segment by default; ``via`` inserts polyline
    waypoints (useful to route around spectrum points).  The analytic
    derivative comes from differentiating the product/atom representation;
    every segment must stay clear of the spectrum.
    """
    a = tau.value if isinstance(tau, UnitPoint) else complex(tau)
    b = lam.value if isinstance(lam, UnitPoint) else complex(lam)
    nodes = [a] + [complex(w) for w in (via or ())] + [b]
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
