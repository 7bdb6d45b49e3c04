"""Decomposition engines that split kernel families into certified parts.

Two pipelines are implemented.

``split_by_interpolation`` covers the regime where the sequence stays
uniformly off the spectrum, i.e. gamma = sup |Theta(lambda_n)| < 1.  Any
part with Carleson constant delta_j has interpolation constant at most
phi(delta_j), so the distance from Theta to B_j H^inf is bounded by
gamma * phi(delta_j); once that product is below 1 the part's normalized
kernels form a Riesz basic sequence.  The splitter therefore drives every
part's separation above the threshold delta* with phi(delta*) = 1/gamma.
Its core ``split_log_distances`` reads gamma, a Mills order and one
matrix L[i, j] = log rho(l_i, l_j) that its caller forms once, in the disk
or (``mslab.pw``) the half-plane: a part's constant is exp of the min row
sum of L over the part.  Recursive two-way (Mills) splits on index sets
run until every part certifies, a first-fit merge of the certified parts
keeps running row sums and stops where a merged part would fall below
delta*, and every emitted part is re-verified from a fresh sum over its
own block of L before its certificate chain is written.  The merge tries
a part against all bins with bincounts over the points' bin slots and no
clash pre-filter.  At gamma = 0, delta* is the smallest delta with a
finite phi(delta), about 1.49e-154.

``decompose_by_squares`` covers points that approach the boundary.  It
builds the N level sets {Theta = e^{2pi i l/N}} and cuts the circle into
arcs carrying equal angular mass 1/N.  An ``Arc`` is also the Carleson
square over it, (lo, hi] x [1 - |J|/2pi, 1], anchored at its hi endpoint,
and ``ArcSystem.locate`` is the one membership rule.  A point inside a
square joins that square's level bucket: one sort ranks each square's
points by id, and sub-part m of a level takes the m-th point of every
square of that level, so each sub-part is a small perturbation of one
Clark family.  A point outside all squares lies in the uncovered region,
where |Theta| stays below a measurable delta < 1 and the interpolation
splitter applies.  ``select_arc_system`` picks N when none is given.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .carleson import earl_bound, interpolation_threshold, log_distance_matrix
from .clark import level_sets
from .errors import CertificationError, ConfigError, NumericDomainError
from .gram import FrameBounds, part_frame_bounds
from .inner import (
    InnerFunction,
    boundary_argument,
    eval_points,
    normalized_values,
    spectrum_distance,
)
from .points import TWO_PI, PointSequence, normalize_angles

_ARC_MASS_REL_TOL = 1e-6
_GAMMA_CEILING = 1.0 - 1e-14


# ---------------------------------------------------------------------------
# Partition containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PartCertificate:
    """Per-part certificate data; interpolation fields are None on square parts."""

    gamma: float | None = None
    delta_j: float | None = None
    earl_value: float | None = None
    dist_bound: float | None = None
    frame_bounds: FrameBounds | None = None

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "delta_j": self.delta_j,
            "earl_value": self.earl_value,
            "dist_bound": self.dist_bound,
            "frame_bounds": None
            if self.frame_bounds is None
            else self.frame_bounds.to_json_dict(),
        }


@dataclass(frozen=True)
class PartitionPart:
    ids: tuple[int, ...]
    route: str
    certificate: PartCertificate
    stability_margins: tuple[float, ...] | None = None

    def to_json_dict(self) -> dict:
        out = {
            "ids": list(self.ids),
            "route": self.route,
            "certificate": self.certificate.to_json_dict(),
        }
        if self.stability_margins is not None:
            out["stability_margins"] = list(self.stability_margins)
        return out


@dataclass(frozen=True)
class Partition:
    """Parts plus global data; ``arcs`` is the square pipeline's arc system, not reported."""

    parts: tuple[PartitionPart, ...]
    global_info: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    arcs: ArcSystem | None = None

    def all_ids(self) -> tuple[int, ...]:
        out: list[int] = []
        for part in self.parts:
            out.extend(part.ids)
        return tuple(sorted(out))

    def to_json_dict(self) -> dict:
        return {
            "parts": [p.to_json_dict() for p in self.parts],
            "global": dict(self.global_info),
            "flags": list(self.flags),
        }


# ---------------------------------------------------------------------------
# Interpolation-constant splitting
# ---------------------------------------------------------------------------

# A merged part keeps this much room, in log separation, above delta*: its
# running row sums differ from a fresh sum of the same entries in the last
# bits, and gamma * phi(delta*) itself may round to 1.
_MERGE_SLACK = 1e-9

# The smallest delta whose phi(delta) ~ 4/delta^2 is finite: at gamma = 0
# any part with delta_j >= delta* certifies, since gamma * phi(delta_j) = 0.
# It also floors delta* = 2 sqrt(gamma)/(1 + gamma) for a subnormal gamma.
_DELTA_FINITE = 2.0 / math.sqrt(np.finfo(float).max)


def _log_delta(L: np.ndarray, idx: np.ndarray) -> float:
    """Log Carleson constant of the points ``idx``: min row sum of L[idx, idx], 0 for one."""
    return 0.0 if len(idx) == 1 else float(L[idx][:, idx].sum(axis=1).min())


def modulus_rank(modulus: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rank of each point in decreasing ``modulus`` order, ties by id: the Mills order."""
    order = np.lexsort((ids, -modulus))
    rank = np.empty(len(ids), dtype=int)
    rank[order] = np.arange(len(ids))
    return rank


def _first_fit(L: np.ndarray, groups: list[np.ndarray], log_floor: float) -> list[np.ndarray]:
    """First-fit of groups, largest first, into bins whose min row sum of L stays >= log_floor.

    Every placed point keeps its running row sum within its bin and its bin's
    slot, counted from 1 (slot 0: not placed yet).  One bincount per group row
    over the slots sums each bin's entries in index order; one more counts the
    members the group would push below the floor.  Entries of L are <= 0, so a
    pair below the floor pushes its member below it: no clash pre-filter.
    """
    slot = np.zeros(len(L), dtype=int)
    running = np.zeros(len(L))  # row sum of each placed point within its bin
    opened = 0
    for group in groups:
        rows = L[group]
        own = rows[:, group].sum(axis=1)
        grown = running + rows.sum(axis=0)
        shut = np.bincount(slot, weights=grown < log_floor) > 0
        joined = own[:, None] + np.array([np.bincount(slot, weights=row) for row in rows])
        shut |= (joined < log_floor).any(axis=0)
        shut[0] = True  # slot 0 takes no group
        s = int(shut.argmin())  # the first open bin's slot, 0 if every bin is shut
        if s:
            np.copyto(running, grown, where=slot == s)
            running[group] = joined[:, s]
        else:
            opened += 1
            s = opened
            running[group] = own
        slot[group] = s
    return [np.flatnonzero(slot == s) for s in range(1, opened + 1)]


def _mills_halves(
    L: np.ndarray, idx: np.ndarray, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two halves, as sorted positions into L, of the points ``idx`` (sorted)."""
    sub = L[idx][:, idx]
    sub.flat[:: len(idx) + 1] = np.inf
    i0, j0 = divmod(int(np.argmin(sub)), len(idx))  # first closest pair, i0 < j0
    near_a = sub[i0].copy()  # log distance from each point to the nearest of a
    near_b = sub[j0].copy()
    a, b = [i0], [j0]
    for k in np.argsort(rank[idx]).tolist():
        if k == i0 or k == j0:
            continue
        da, db = near_a[k], near_b[k]
        if da > db or (da == db and len(a) <= len(b)):
            a.append(k)
            np.minimum(near_a, sub[k], out=near_a)
        else:
            b.append(k)
            np.minimum(near_b, sub[k], out=near_b)
    return idx[sorted(a)], idx[sorted(b)]


def _clique_size(clash: np.ndarray) -> int:
    """Size of a greedy clique of the clash graph, highest degree first."""
    joins = np.ones(len(clash), dtype=bool)  # clashes with every clique member so far
    size = 0
    for v in np.argsort(-clash.sum(axis=1), kind="stable").tolist():
        if joins[v]:
            size += 1
            joins &= clash[v]
    return size


def split_by_interpolation(
    theta: InnerFunction,
    seq: PointSequence,
    *,
    max_depth: int = 20,
) -> Partition:
    """Split into parts whose certificates give gamma * phi(delta_j) < 1.

    Requires gamma = max |Theta(lambda_n)| < 1.  The sequence is evaluated
    once, for gamma and for every part's Gram section.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot split an empty sequence")
    values, norms_sq = normalized_values(theta, seq.z, seq.angle, seq.ids)
    # refused before L is formed, which refuses boundary points itself
    gamma = _off_spectrum(float(np.abs(values).max()))
    return split_log_distances(
        log_distance_matrix(seq),
        modulus_rank(np.abs(seq.z), seq.ids),
        seq.ids,
        gamma,
        lambda parts: part_frame_bounds(seq.z, values, norms_sq, seq.ids, parts),
        max_depth=max_depth,
    )


def _off_spectrum(gamma: float) -> float:
    """gamma, if it is below 1 - 1e-14."""
    if gamma >= _GAMMA_CEILING:
        raise CertificationError(
            f"off-spectrum condition violated: max |Theta(lambda)| = {gamma} is not < 1"
        )
    return gamma


def split_log_distances(
    L: np.ndarray,
    rank: np.ndarray,
    ids: np.ndarray,
    gamma: float,
    frame_bounds,
    *,
    max_depth: int = 20,
    route: str = "interp",
) -> Partition:
    """Split points into parts with gamma * phi(delta_j) < 1, from their log distances.

    L[i, j] = log rho(l_i, l_j) is the points' log-distance matrix (zero
    diagonal, exactly symmetric), ``rank`` their Mills order, ``ids`` their
    labels and gamma the certified bound on the symbol over them, any floor
    included.  ``frame_bounds`` maps the emitted parts, as arrays of
    positions, to their ``FrameBounds``.  ``parts_lower_bound`` in the
    global info is the size of a greedy clique of points pairwise closer
    than delta*, no two of which can share a part.
    """
    gamma = _off_spectrum(gamma)
    delta_star = _DELTA_FINITE if gamma == 0.0 else max(_DELTA_FINITE, interpolation_threshold(gamma))

    def certified(delta: float) -> bool:
        return delta >= delta_star and gamma * earl_bound(delta) < 1.0

    flags: list[str] = []
    delta_all = math.exp(float(L.sum(axis=1).min()))
    found: list[np.ndarray] = []
    stack = [(np.arange(len(L)), delta_all, 0)]
    while stack:
        idx, delta_j, depth = stack.pop()
        if certified(delta_j):
            found.append(idx)
            continue
        if depth >= max_depth:
            raise CertificationError(
                f"split recursion exceeded depth {max_depth} (gamma = {gamma})"
            )
        if len(idx) == 1:  # a singleton has delta 1: impossible, guard anyway
            raise CertificationError(
                f"cannot certify singleton part at gamma = {gamma}"
            )
        halves = _mills_halves(L, idx, rank)
        deltas = [math.exp(_log_delta(L, half)) for half in halves]
        if min(deltas) < math.sqrt(delta_j) - 1e-12:
            flags.append(
                f"mills sqrt-target missed at depth {depth} (delta {delta_j:.6g}); re-splitting"
            )
        for half, delta in zip(halves, deltas):
            stack.append((half, delta, depth + 1))

    log_star = math.log(delta_star)
    found.sort(key=lambda idx: (-len(idx), int(idx[0])))
    merged = _first_fit(L, found, log_star + _MERGE_SLACK)
    merged.sort(key=lambda idx: int(ids[idx].min()))
    deltas = [math.exp(_log_delta(L, idx)) for idx in merged]  # fresh sums, not the running ones
    for delta_j in deltas:
        if not certified(delta_j):
            raise NumericDomainError(
                f"part re-verification failed: delta {delta_j} at delta* {delta_star}"
            )
    parts = []
    for idx, delta_j, fb in zip(merged, deltas, frame_bounds(merged)):
        phi = earl_bound(delta_j)
        parts.append(
            PartitionPart(
                ids=tuple(ids[idx].tolist()),
                route=route,
                certificate=PartCertificate(
                    gamma=gamma,
                    delta_j=delta_j,
                    earl_value=phi,
                    dist_bound=gamma * phi,
                    frame_bounds=fb,
                ),
            )
        )
    return Partition(
        parts=tuple(parts),
        global_info={
            "gamma": gamma,
            "delta_star": delta_star,
            "delta_input": delta_all,
            "parts_lower_bound": _clique_size(L < log_star),
        },
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# Arc systems and their Carleson squares
# ---------------------------------------------------------------------------

# The uncovered region is healthy while its sampled sup of |Theta| stays
# below this: the level-count search aims under it, and a split above it
# is flagged.
_HEALTH_MARGIN = 0.9

# The level-count search accepts an arc system whose per-arc spread of
# |Theta'|, sampled at _RATE_GRID midpoints per arc, stays below
# _SPREAD_CEILING; it tries the powers of two from _LEVEL_COUNT_START to
# _LEVEL_COUNT_LIMIT.
_SPREAD_CEILING = 4.0
_RATE_GRID = 32
_LEVEL_COUNT_START = 8
_LEVEL_COUNT_LIMIT = 256


@dataclass(frozen=True)
class Arc:
    """One boundary arc (lo, hi] in angle and the Carleson square over it.

    ``hi`` is the designated level-set endpoint, in [0, 2 pi); ``lo`` may be
    negative for the arc wrapping through angle zero.  ``mass`` is the
    angular mass (Phi(hi) - Phi(lo))/(2 pi), checked against 1/N.  The
    square is (lo, hi] x [1 - |J|/(2 pi), 1], anchored at e^{i hi}, where
    |Theta'| is ``hi_derivative``.
    """

    lo: float
    hi: float
    level: int
    mass: float
    hi_derivative: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def inner_radius(self) -> float:
        return 1.0 - self.length / TWO_PI


@dataclass(frozen=True)
class ArcSystem:
    """Arcs of angular mass 1/N in increasing angle; ``truncated`` if arcs near atoms were dropped."""

    level_count: int
    arcs: tuple[Arc, ...]
    truncated: bool = False

    @property
    def total_mass(self) -> float:
        return sum(a.mass for a in self.arcs)

    def locate(self, z: np.ndarray) -> np.ndarray:
        """Position in ``arcs`` of the first arc whose square holds each point, -1 if none.

        A square holds the points with inner_radius <= |z| <= 1 + 1e-14 and
        phase in the window (lo + 1e-12, hi + 1e-12]: a point within 1e-12
        of lo belongs to the previous arc, whose designated hi that is.  An
        arc as long as the circle holds every phase.  The windows follow
        each other without overlap, so a bisection of the sorted lows leaves
        at most the neighbouring arcs as candidates.  The modulus is
        ``np.hypot``, equal to Python's ``abs``, and the phase
        ``cmath.phase`` of each point (numpy's differs in the last bit).
        """
        z = np.asarray(z, dtype=complex)
        m = len(self.arcs)
        if m == 0 or z.size == 0:
            return np.full(z.size, -1)
        found = np.full(z.size, m)
        lo, width, inner = np.array([(a.lo, a.length, a.inner_radius) for a in self.arcs]).T
        phase = np.array([cmath.phase(w) for w in z.tolist()])
        radius = np.hypot(z.real, z.imag)
        k = np.searchsorted(lo, np.mod(phase, TWO_PI), side="right") - 1
        for cand in ((k - 1) % m, k % m, (k + 1) % m):
            d = normalize_angles(phase - lo[cand])
            in_arc = (width[cand] >= TWO_PI - 1e-12) | ((1e-12 < d) & (d <= width[cand] + 1e-12))
            held = in_arc & (radius >= inner[cand]) & (radius <= 1.0 + 1e-14)
            found = np.where(held, np.minimum(found, cand), found)
        return np.where(found < m, found, -1)


def build_arc_system(
    theta: InnerFunction, level_count: int, max_points_per_arc: int = 512
) -> ArcSystem:
    """Cut the circle into arcs of angular mass 1/N at the N level sets.

    The level sets at e^{2 pi i l / N} are merged and sorted; consecutive
    points bound the arcs, each tagged by the level of its hi endpoint.
    An arc's mass, the integral of |Theta'|/(2 pi) over it, is
    (Phi(hi) - Phi(lo))/(2 pi) from one ``boundary_argument`` call on the
    arc ends, and is checked against 1/N: level points that double
    precision cannot resolve fail that check.
    Arcs that would contain a singular atom are dropped and the system is
    flagged truncated.
    """
    if level_count < 1:
        raise ConfigError("level count must be at least 1")
    if theta.is_constant:
        raise NumericDomainError("constant inner function admits no arc system")
    alphas = [cmath.exp(2j * math.pi * l / level_count) for l in range(1, level_count + 1)]
    families = level_sets(theta, alphas, max_points_per_arc)
    truncated = any(f.truncated for f in families)

    angle = np.concatenate([fam.points for fam in families])
    if angle.size < 1:
        raise NumericDomainError("no level points found")
    level = np.repeat(np.arange(1, level_count + 1), [len(fam) for fam in families])
    deriv = np.concatenate([fam.derivs for fam in families])
    order = np.lexsort((deriv, level, angle))  # by angle, then level, then derivative
    hi, level, deriv = angle[order], level[order], deriv[order]
    collide = np.flatnonzero(np.diff(hi) < 1e-11)
    if collide.size:
        i = collide[0]
        raise NumericDomainError(
            f"level points at angles {float(hi[i])} and {float(hi[i + 1])} collide"
        )

    lo = np.concatenate([hi[-1:] - TWO_PI, hi[:-1]])
    atoms = np.array([a for a, _ in theta.singular_atoms])
    # atoms never coincide with level points, so a wrapped offset in
    # (0, length) means the atom sits strictly inside this arc
    holds_atom = (
        normalize_angles(atoms[None, :] - lo[:, None]) < (hi - lo)[:, None] + 1e-15
    ).any(axis=1)
    truncated = truncated or bool(holds_atom.any())
    keep = ~holds_atom
    lo, hi, level, deriv = lo[keep], hi[keep], level[keep], deriv[keep]
    phi_lo, phi_hi = np.split(boundary_argument(theta, np.concatenate([lo, hi])), 2)
    masses = (phi_hi - phi_lo) / TWO_PI
    target = 1.0 / level_count
    off = np.abs(masses - target) > _ARC_MASS_REL_TOL * target
    if off.any() and not truncated:
        raise NumericDomainError(
            f"arc mass check failed: got {float(masses[off][0])}, expected {target}"
        )
    # an end arc next to a truncation cut can lose its partner point; it is
    # surrendered along with the already-cut zone
    fields = (x[~off].tolist() for x in (lo, hi, level, masses, deriv))
    arcs = tuple(Arc(*row) for row in zip(*fields))
    return ArcSystem(level_count=level_count, arcs=arcs, truncated=truncated)


@dataclass(frozen=True)
class UncoveredRegionReport:
    """Sampled boundary diagnostics of the region left under the squares."""

    delta: float
    samples: int


def uncovered_region_report(
    theta: InnerFunction, arcs: ArcSystem, samples: int = 4096
) -> UncoveredRegionReport:
    """Max |Theta| over the in-disk boundary of the region under the arcs' squares.

    The boundary consists of the squares' inner sides plus the radial
    segments joining adjacent squares of different depths; by the maximum
    principle the sampled max bounds |Theta| throughout the region (up to
    sampling resolution).
    """
    if not arcs.arcs:
        raise NumericDomainError("arc system is empty")
    lo, length, hi, inner = (
        np.array([(arc.lo, arc.length, arc.hi, arc.inner_radius) for arc in arcs.arcs]).T
    )
    per_side = max(8, math.ceil(samples / lo.size))
    sides = lo[:, None] + length[:, None] * (np.arange(per_side) + 0.5) / per_side
    # radial joints between adjacent squares of different depth
    r_lo, r_hi = np.minimum(inner, np.roll(inner, -1)), np.maximum(inner, np.roll(inner, -1))
    joint = r_hi - r_lo >= 1e-15
    joints = r_lo[joint, None] + (r_hi - r_lo)[joint, None] * (np.arange(8) + 0.5) / 8
    radii = np.concatenate([np.repeat(inner, per_side), joints.ravel()])
    z = radii * np.exp(1j * np.concatenate([sides.ravel(), np.repeat(hi[joint], 8)]))
    values, _ = eval_points(theta, z)
    return UncoveredRegionReport(delta=float(np.abs(values).max()), samples=int(z.size))


# ---------------------------------------------------------------------------
# Full square-pipeline decomposition
# ---------------------------------------------------------------------------

def rate_comparability(theta: InnerFunction, arcs: ArcSystem) -> float:
    """Worst per-arc max/min ratio of |Theta'| over _RATE_GRID midpoints of each arc."""
    lo, length = np.array([(arc.lo, arc.length) for arc in arcs.arcs]).T
    angles = lo[:, None] + length[:, None] * (np.arange(_RATE_GRID) + 0.5) / _RATE_GRID
    _, rates = eval_points(theta, np.exp(1j * angles.ravel()))
    rates = rates.reshape(angles.shape)
    return float(np.max(rates.max(axis=1) / rates.min(axis=1)))


def select_arc_system(
    theta: InnerFunction,
    *,
    samples: int = 2048,
    max_points_per_arc: int = 512,
) -> tuple[ArcSystem, UncoveredRegionReport]:
    """The arc system at the smallest usable power-of-two N, with its uncovered-region report.

    Usable means: the uncovered region's sampled sup of |Theta| is below
    ``_HEALTH_MARGIN`` and the per-arc rate spread stays below
    ``_SPREAD_CEILING``.  The two criteria pull in opposite directions (the
    spread improves with N while the sublevel sup creeps toward 1), so when
    no N meets the health margin the spread-qualified N with the smallest
    sup below 1 is taken instead; certificates stay valid for any sup < 1.
    """
    best: tuple[ArcSystem, UncoveredRegionReport] | None = None
    n = _LEVEL_COUNT_START
    while n <= _LEVEL_COUNT_LIMIT:
        arcs = build_arc_system(theta, n, max_points_per_arc)
        region = uncovered_region_report(theta, arcs, samples)
        if rate_comparability(theta, arcs) <= _SPREAD_CEILING:
            if region.delta < _HEALTH_MARGIN:
                return arcs, region
            if region.delta < 1.0 - 1e-9 and (best is None or region.delta < best[1].delta):
                best = (arcs, region)
        n *= 2
    if best is not None:
        return best
    raise CertificationError(
        f"no usable level count up to {_LEVEL_COUNT_LIMIT}: sublevel bound or rate spread failed"
    )


def _square_parts(
    seq: PointSequence, arcs: ArcSystem, located: np.ndarray
) -> list[tuple[np.ndarray, str, tuple[float, ...]]]:
    """Square sub-parts as (positions in ``seq``, route, stability margins).

    One lexsort ranks each square's points by id; sub-part m of a level
    holds the m-th point of every square of that level, in sequence order.
    A point's margin is |lambda - e^{i hi}| |Theta'(e^{i hi})| against the
    anchor of its own square, with ``np.hypot`` for the modulus.
    """
    held = np.flatnonzero(located >= 0)
    held = held[np.lexsort((seq.ids[held], located[held]))]
    rank = np.arange(held.size) - np.searchsorted(located[held], located[held])
    level = np.array([arc.level for arc in arcs.arcs], dtype=int)[located[held]]
    order = np.lexsort((held, rank, level))
    held, rank, level = held[order], rank[order], level[order]
    starts = np.flatnonzero((np.diff(level, prepend=-1) != 0) | (np.diff(rank, prepend=-1) != 0))
    hi = np.array([arc.hi for arc in arcs.arcs])[located[held]]
    rate = np.array([arc.hi_derivative for arc in arcs.arcs])[located[held]]
    gap = seq.z[held] - np.exp(1j * hi)
    margin = np.hypot(gap.real, gap.imag) * rate
    return [
        (idx, f"square:{level[s]}:{rank[s] + 1}", tuple(m.tolist()))
        for s, idx, m in zip(
            starts.tolist(), np.split(held, starts[1:]), np.split(margin, starts[1:])
        )
    ]


def decompose_by_squares(
    theta: InnerFunction,
    seq: PointSequence,
    level_count: int | None = None,
    *,
    samples: int = 4096,
    max_depth: int = 20,
    max_points_per_arc: int = 512,
) -> Partition:
    """Classify points into Carleson-square buckets and an uncovered bucket.

    Square-bucket points are grouped by level and spread into sub-parts
    with at most one point per square: sub-part m of a level takes the
    m-th smallest id of every square of that level.  Each sub-part gets
    exact Gram frame bounds and, per point, the stability margin
    |lambda - e^{i hi}| |Theta'(e^{i hi})| against its own square's anchor.
    The uncovered bucket is routed through the interpolation splitter with
    the region-wide modulus bound as its gamma.  If that bound reaches 1 the
    bucket is emitted uncertified and flagged; a larger level count fixes
    it.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot decompose an empty sequence")
    if theta.is_constant:
        raise NumericDomainError("constant inner function: nothing to decompose")
    on_spectrum = np.flatnonzero(spectrum_distance(theta, seq.z) <= 1e-13)
    if on_spectrum.size:
        raise NumericDomainError(f"point {seq.ids[on_spectrum[0]]} lies on the spectrum")

    if level_count is None:
        arcs, region = select_arc_system(
            theta, samples=samples, max_points_per_arc=max_points_per_arc
        )
        level_count = arcs.level_count
    else:
        arcs = build_arc_system(theta, level_count, max_points_per_arc)
        region = uncovered_region_report(theta, arcs, samples)

    flags: list[str] = []
    if arcs.truncated:
        flags.append("square system truncated near the spectrum")
    if region.delta >= _HEALTH_MARGIN:
        flags.append(
            f"uncovered-region modulus bound {region.delta:.6f} exceeds the "
            f"{_HEALTH_MARGIN} health margin"
        )

    located = arcs.locate(seq.z)
    uncovered = np.flatnonzero(located < 0)  # positions in seq
    escaped = uncovered[seq.boundary[uncovered]]
    if escaped.size:
        raise NumericDomainError(
            f"boundary point {seq.ids[escaped[0]]} escaped every square; "
            "the uncovered region is interior-only"
        )

    z = seq.z
    values, norms_sq = normalized_values(theta, z, seq.angle, seq.ids)
    parts: list[PartitionPart] = []

    if uncovered.size:
        sub = seq.subset(uncovered)
        gamma_used = max(region.delta, float(np.abs(values[uncovered]).max()))
        if gamma_used >= _GAMMA_CEILING:
            flags.append(
                f"sublevel bound failed at level count {level_count} "
                f"(delta = {gamma_used}); uncovered bucket left uncertified - increase N"
            )
            (fb,) = part_frame_bounds(z, values, norms_sq, seq.ids, [uncovered])
            parts.append(
                PartitionPart(
                    ids=tuple(sorted(sub.ids.tolist())),
                    route="uncovered:uncertified",
                    certificate=PartCertificate(gamma=gamma_used, frame_bounds=fb),
                )
            )
        else:
            inner_partition = split_log_distances(
                log_distance_matrix(sub),
                modulus_rank(np.abs(sub.z), sub.ids),
                sub.ids,
                gamma_used,
                lambda parts: part_frame_bounds(
                    z, values, norms_sq, seq.ids, [uncovered[p] for p in parts]
                ),
                max_depth=max_depth,
                route="uncovered:interp",
            )
            flags.extend(inner_partition.flags)
            parts.extend(inner_partition.parts)

    square_parts = _square_parts(seq, arcs, located)
    bounds = part_frame_bounds(z, values, norms_sq, seq.ids, [idx for idx, _, _ in square_parts])
    for (idx, route, margins), fb in zip(square_parts, bounds):
        parts.append(
            PartitionPart(
                ids=tuple(seq.ids[idx].tolist()),
                route=route,
                certificate=PartCertificate(frame_bounds=fb),
                stability_margins=margins,
            )
        )
    counts = np.bincount(located[located >= 0])

    partition = Partition(
        parts=tuple(parts),
        global_info={
            "level_count": level_count,
            "max_per_square": int(counts.max()) if counts.size else 0,
            "delta_uncovered": region.delta,
        },
        flags=tuple(flags),
        arcs=arcs,
    )
    if partition.all_ids() != tuple(sorted(seq.ids.tolist())):
        raise NumericDomainError("partition failed to cover the sequence exactly")
    return partition
