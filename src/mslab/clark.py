"""Boundary argument tracking, level sets, and Clark-family machinery.

On any boundary arc free of spectrum, a nonconstant inner function has a
strictly increasing continuous argument branch whose rate is the angular
derivative |Theta'|.  Tracking that branch gives guaranteed, complete
enumeration of every level set {Theta = alpha} by monotone bisection: each
2*pi of argument increase contains exactly one solution.

Branches are sampled level-synchronously: every round checks all pending
cells with one array evaluation (``inner.eval_points``) at their
midpoints and splits those that fail.  A cell's argument increase is read
from the principal arguments at its ends, which is only sound if the true
increase is below a full turn; the cell's width times the proven rate
bound of ``inner.rate_bound`` (below pi/2) certifies that, whatever the
rate does between samples.  Root solving bisects all targets on a branch
in lockstep, one array evaluation per round.

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
from .inner import InnerFunction, boundary_derivative, derivative, eval_points, rate_bound
from .points import TWO_PI, PointSequence, UnitPoint, normalize_angle
from .quadrature import adaptive_simpson

# Refinement targets for argument-branch sampling.
_MAX_WRAP_INCREMENT = math.pi / 4.0
_SLOPE_REL_TOL = 5e-7
_MAX_BRANCH_SAMPLES = 1 << 20


@dataclass(frozen=True)
class ArgBranch:
    """Continuous increasing branch of arg Theta(e^{i theta}) on one arc.

    Dense samples plus monotone piecewise-linear interpolation; consecutive
    sampled increments stay below pi/4 and each cell's width times its
    proven rate bound stays below pi/2, so principal-argument differences
    within a cell are unambiguous.
    """

    arc: tuple[float, float]
    thetas: np.ndarray
    values: np.ndarray

    @property
    def total_increase(self) -> float:
        return float(self.values[-1] - self.values[0])

    def value_at(self, theta: float) -> float:
        return float(np.interp(theta, self.thetas, self.values))


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


def _deriv_at(theta: InnerFunction, angle: float) -> float:
    return boundary_derivative(theta, cmath.exp(1j * angle))


def _principal_args(theta: InnerFunction, angles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal arguments of Theta and rates |Theta'| at e^{i angles}."""
    values, rates = eval_points(theta, np.exp(1j * angles))
    return np.angle(values), rates


def _check_arc_clear(theta: InnerFunction, lo: float, hi: float) -> None:
    for a, _ in theta.singular_atoms:
        for shift in (a, a + TWO_PI, a - TWO_PI):
            if lo - 1e-13 <= shift <= hi + 1e-13:
                raise NumericDomainError(
                    f"arc [{lo}, {hi}] touches the singular atom at angle {a}"
                )


def _seed_angles(theta: InnerFunction, lo: float, hi: float) -> list[float]:
    """Initial sample angles: a uniform grid plus clusters at the angles of
    near-boundary zeros, where the argument rate spikes."""
    span = hi - lo
    n0 = max(32, 16 + 8 * theta.degree)
    grid = [lo + span * i / n0 for i in range(n0 + 1)]
    for eta in theta.blaschke_zeros:
        gap = 1.0 - abs(eta)
        if gap < 0.25:
            base = cmath.phase(eta)
            for shift in (base, base + TWO_PI, base - TWO_PI):
                for j in range(-8, 9):
                    t = shift + 0.5 * j * gap
                    if lo < t < hi:
                        grid.append(t)
    return sorted(set(grid))


def build_arg_branch(theta: InnerFunction, arc: tuple[float, float]) -> ArgBranch:
    """Adaptively sampled increasing argument branch on a spectrum-free arc.

    Refinement is level-synchronous: each round checks every pending cell,
    with one evaluation of all their midpoints, and splits those that fail.
    A cell is accepted once its wrapped increment is below pi/4, its width
    times the proven rate bound of ``rate_bound`` is below pi/2 (so the true
    increment is the wrapped one), and its secant matches the midpoint rate
    to the branch slope tolerance.
    """
    lo, hi = float(arc[0]), float(arc[1])
    if not hi > lo:
        raise ConfigError("arc must have positive length")
    if hi - lo > TWO_PI + 1e-12:
        raise ConfigError("arc cannot exceed a full turn")
    if theta.is_constant:
        raise NumericDomainError("constant inner function has no argument branch")
    _check_arc_clear(theta, lo, hi)

    angles = np.array(_seed_angles(theta, lo, hi))
    princ, _ = _principal_args(theta, angles)
    # pending cells [a, b] with the principal arguments at their ends
    a, b, pa, pb = angles[:-1], angles[1:], princ[:-1], princ[1:]
    evaluated = angles.size
    accepted: list[tuple[np.ndarray, ...]] = []
    while a.size:
        evaluated += a.size
        if evaluated > _MAX_BRANCH_SAMPLES:
            raise NumericDomainError("argument branch refinement exhausted")
        m = 0.5 * (a + b)
        pm, rate_m = _principal_args(theta, m)
        h = b - a
        inc = np.mod(pb - pa, TWO_PI)
        ok = (inc < _MAX_WRAP_INCREMENT) & (np.abs(inc / h - rate_m) <= _SLOPE_REL_TOL * rate_m)
        ok[ok] = h[ok] * rate_bound(theta, a[ok], b[ok]) < 0.5 * math.pi
        accepted.append((a[ok], b[ok], pa[ok], pb[ok]))
        split = ~ok
        a, b, pa, pb, m, pm = a[split], b[split], pa[split], pb[split], m[split], pm[split]
        if np.any((m <= a) | (m >= b)):
            raise NumericDomainError("argument branch refinement exhausted")
        a, b = np.concatenate([a, m]), np.concatenate([m, b])
        pa, pb = np.concatenate([pa, pm]), np.concatenate([pm, pb])

    a, b, pa, pb = (np.concatenate(parts) for parts in zip(*accepted))
    order = np.argsort(a)
    th = np.concatenate([a[order[:1]], b[order]])
    vals = np.cumsum(np.concatenate([pa[order[:1]], np.mod(pb - pa, TWO_PI)[order]]))
    if np.any(np.diff(vals) <= 0.0):
        raise NumericDomainError("argument branch is not strictly increasing")
    return ArgBranch(arc=(lo, hi), thetas=th, values=vals)


def _solve_on_branch(
    theta: InnerFunction, branch: ArgBranch, targets: np.ndarray, tol: float = 1e-12
) -> np.ndarray:
    """Monotone bisection for branch(theta) = target, all targets in lockstep.

    Each round evaluates the live midpoints at once.  Inside a sample cell
    (increment < pi/4) the branch value is the cell's base value plus the
    wrapped principal-argument increment from the cell's base angle, whose
    principal argument is computed once per bracket.
    """
    vals, ths = branch.values, branch.thetas
    t = np.asarray(targets, dtype=float)
    if np.any(vals[0] - t > 1e-8):
        raise NumericDomainError("level target below the branch range")
    if np.any(t - vals[-1] > 1e-8):
        raise NumericDomainError("level target above the branch range")
    below, above = t < vals[0], t > vals[-1]
    idx = np.clip(np.searchsorted(vals, t, side="right") - 1, 0, len(vals) - 2)
    a, b = ths[idx], ths[idx + 1]
    fa, fb = vals[idx], vals[idx + 1]
    live = ~(below | above)
    if np.any(live & ~((fa <= t) & (t <= fb))):
        raise NumericDomainError("level target escaped its bracket")
    base_val = vals[idx]
    base_arg, _ = _principal_args(theta, a)
    # refine in branch-value space as well: the value gap, not the angle
    # gap, bounds the residual |Theta(tau) - alpha| where the rate is large
    for _ in range(200):
        m = 0.5 * (a + b)
        live &= ~((b - a <= tol) & (fb - fa <= 1e-12))
        live &= (m > a) & (m < b)  # double-precision floor
        k = np.flatnonzero(live)
        if not k.size:
            break
        pm, _ = _principal_args(theta, m[k])
        fm = base_val[k] + np.mod(pm - base_arg[k], TWO_PI)
        low = fm < t[k]
        a[k[low]], fa[k[low]] = m[k[low]], fm[low]
        b[k[~low]], fb[k[~low]] = m[k[~low]], fm[~low]
    roots = 0.5 * (a + b)
    roots[below] = ths[0]
    roots[above] = ths[-1]
    return roots


def _trim_to_budget(
    theta: InnerFunction, lo: float, hi: float, budget: float
) -> tuple[float, float, bool]:
    """Cut an atom-bounded arc so its argument increase stays within budget.

    The increase diverges at the atoms, so each side is cut where the
    integral of the rate from the midpoint reaches half the budget.
    """
    mid = 0.5 * (lo + hi)
    rate = lambda t: _deriv_at(theta, t)  # noqa: E731

    def cut(side_end: float, toward_mid: float) -> tuple[float, bool]:
        # integral of rate over [c, mid] (or [mid, c]) as c -> side_end
        def increase(c: float) -> float:
            a, b = (c, toward_mid) if c < toward_mid else (toward_mid, c)
            return adaptive_simpson(rate, a, b, rel_tol=1e-6)

        span = abs(side_end - toward_mid)
        prev = toward_mid
        for k in range(1, 48):
            c = side_end + (toward_mid - side_end) * 0.5**k
            if increase(c) > 0.5 * budget:
                # bisect between c (too much) and prev (within budget)
                far, near = c, prev
                for _ in range(30):
                    m = 0.5 * (far + near)
                    if increase(m) > 0.5 * budget:
                        far = m
                    else:
                        near = m
                    if abs(far - near) <= 1e-3 * span:
                        break
                return near, True
            prev = c
        return prev, True  # machine-precision close to the atom

    c_lo, t1 = cut(lo, mid)
    c_hi, t2 = cut(hi, mid)
    return c_lo, c_hi, (t1 or t2)


def _level_branches(
    theta: InnerFunction, max_points_per_arc: int
) -> tuple[list[ArgBranch], bool, bool]:
    """Argument branches covering the solvable part of the circle.

    Returns (branches, truncated, full_circle).  Pure Blaschke data gives a
    single full-circle branch; atom-bounded arcs are trimmed so each carries
    at most ``max_points_per_arc`` turns of argument.
    """
    if not theta.singular_atoms:
        return [build_arg_branch(theta, (0.0, TWO_PI))], False, True
    atoms = sorted(a for a, _ in theta.singular_atoms)
    budget = TWO_PI * (max_points_per_arc + 1)
    branches: list[ArgBranch] = []
    truncated = False
    for i, a in enumerate(atoms):
        b = atoms[(i + 1) % len(atoms)]
        if i + 1 == len(atoms):
            b = b + TWO_PI
        c_lo, c_hi, cut_flag = _trim_to_budget(theta, a, b, budget)
        truncated = truncated or cut_flag
        if c_hi - c_lo > 0.0:
            branches.append(build_arg_branch(theta, (c_lo, c_hi)))
    return branches, truncated, False


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
    Arcs between singular atoms are trimmed to an argument budget so at
    most ``max_points_per_arc`` points per arc are produced per level; such
    families are flagged truncated.  The targets of every level on a branch
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
    branches, trimmed, full_circle = _level_branches(theta, max_points_per_arc)
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
        for i, root in zip(owner, _solve_on_branch(theta, branch, np.array(targets))):
            angles[i].append(normalize_angle(float(root)))
    families = []
    for alpha, found, cap in zip(values, angles, capped):
        if full_circle and not cap and len(found) != theta.degree:
            raise NumericDomainError(
                f"found {len(found)} level points, expected {theta.degree}"
            )
        families.append(_family_from_angles(theta, alpha, found, trimmed or cap))
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

        def integrand(t: float, base: complex = start, step: complex = chord) -> float:
            return abs(derivative(theta, base + t * step))

        total += abs(chord) * adaptive_simpson(integrand, 0.0, 1.0, rel_tol=1e-8)
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
