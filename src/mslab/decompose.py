"""Decomposition engines that split kernel families into certified parts.

Two pipelines are implemented.

``split_by_interpolation`` covers the regime where the sequence stays
uniformly off the spectrum, i.e. gamma = sup |Theta(lambda_n)| < 1.  Any
part with Carleson constant delta_j has interpolation constant at most
phi(delta_j), so the distance from Theta to B_j H^inf is bounded by
gamma * phi(delta_j); once that product is below 1 the part's normalized
kernels form a Riesz basic sequence.  The splitter therefore drives every
part's separation above the threshold delta* with phi(delta*) = 1/gamma.
It reads one matrix L[i, j] = log rho(l_i, l_j), computed once: a part's
constant is exp of the min row sum of L over the part.  Recursive two-way
(Mills) splits on index sets run until every part certifies, a first-fit
merge of the certified parts keeps running row sums and stops where a
merged part would fall below delta*, and every emitted part is re-verified
from a fresh sum over its own block of L before its certificate chain is
written.  The merge tries a part against all bins with bincounts over the
points' bin slots and no clash pre-filter.  At gamma = 0, delta* is the
smallest delta with a finite phi(delta), about 1.49e-154.

``decompose_by_squares`` covers points that approach the boundary.  It
builds the N level sets {Theta = e^{2pi i l/N}}, cuts the circle into arcs
carrying equal angular mass 1/N, erects a Carleson square over each arc,
and classifies each point: inside a square it joins that square's level
bucket (within a bucket, sub-parts take at most one point per square, so
each sub-part is a small perturbation of one Clark family); outside all
squares it lies in the uncovered region, where |Theta| stays below a
measurable delta < 1 and the interpolation splitter applies.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .carleson import earl_bound, interpolation_threshold, log_distance_matrix
from .clark import ClarkFamily, level_sets, stability_margin
from .errors import CertificationError, ConfigError, NumericDomainError
from .gram import FrameBounds, part_frame_bounds
from .inner import InnerFunction, eval_points, normalized_values, spectrum_distance
from .points import TWO_PI, PointSequence, UnitPoint, normalize_angle
from .quadrature import adaptive_simpson

ThetaLike = InnerFunction | Callable[[complex], complex]

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


def _modulus_rank(seq: PointSequence) -> np.ndarray:
    """Rank of each point in decreasing modulus order, ties by id."""
    order = np.lexsort((np.asarray(seq.ids), -np.abs(np.asarray(seq.values))))
    rank = np.empty(len(seq), dtype=int)
    rank[order] = np.arange(len(seq))
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
    theta: ThetaLike,
    seq: PointSequence,
    *,
    gamma_floor: float = 0.0,
    max_depth: int = 20,
    route: str = "interp",
) -> Partition:
    """Split into parts whose certificates give gamma * phi(delta_j) < 1.

    Requires the off-spectrum condition gamma = max |Theta(lambda_n)| < 1
    (gamma_floor lets a caller impose a larger certified bound, e.g. a
    region-wide sup).  Theta may be an inner-function record or a plain
    evaluator; frame bounds are attached per part only for records.

    Every layer reads one log-distance matrix L of the sequence: Mills
    splits recurse on index sets until each part certifies, the certified
    parts are merged first-fit (largest first) while the merged row sums
    stay above delta*, and each emitted part is re-verified from a fresh sum
    over its own block of L.  ``parts_lower_bound`` in the global info is the size of a
    greedy clique of points pairwise closer than delta*, no two of which
    can share a part.  The sequence is evaluated once: gamma and every
    part's Gram section read the same values and kernel norms.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot split an empty sequence")
    if isinstance(theta, InnerFunction):
        values, norms_sq = normalized_values(theta, seq.points, seq.ids)
    else:
        values = np.array([complex(theta(p.value)) for p in seq.points])
        norms_sq = None
    return _split_evaluated(
        seq, values, norms_sq, gamma_floor=gamma_floor, max_depth=max_depth, route=route
    )


def _split_evaluated(
    seq: PointSequence,
    values: np.ndarray,
    norms_sq: np.ndarray | None,
    *,
    gamma_floor: float,
    max_depth: int,
    route: str,
) -> Partition:
    """``split_by_interpolation`` on Theta values (and kernel norms, for frame bounds) already evaluated."""
    gamma_points = float(np.abs(values).max())
    gamma = max(gamma_points, gamma_floor)
    if gamma >= _GAMMA_CEILING:
        raise CertificationError(
            f"off-spectrum condition violated: max |Theta(lambda)| = {gamma} is not < 1"
        )
    delta_star = _DELTA_FINITE if gamma == 0.0 else max(_DELTA_FINITE, interpolation_threshold(gamma))
    L = log_distance_matrix(seq)
    rank = _modulus_rank(seq)

    def certified(delta: float) -> bool:
        return delta >= delta_star and gamma * earl_bound(delta) < 1.0

    flags: list[str] = []
    delta_all = math.exp(float(L.sum(axis=1).min()))
    found: list[np.ndarray] = []
    stack = [(np.arange(len(seq)), delta_all, 0)]
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
    merged.sort(key=lambda idx: min(seq.ids[k] for k in idx))
    deltas = [math.exp(_log_delta(L, idx)) for idx in merged]  # fresh sums, not the running ones
    for delta_j in deltas:
        if not certified(delta_j):
            raise NumericDomainError(
                f"part re-verification failed: delta {delta_j} at delta* {delta_star}"
            )
    if norms_sq is None:
        bounds: list[FrameBounds | None] = [None] * len(merged)
    else:
        z = np.array(seq.values, dtype=complex)
        bounds = part_frame_bounds(z, values, norms_sq, seq.ids, merged)
    parts = []
    for idx, delta_j, fb in zip(merged, deltas, bounds):
        phi = earl_bound(delta_j)
        parts.append(
            PartitionPart(
                ids=tuple(seq.ids[k] for k in idx),
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
# Arc and square systems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Arc:
    """One boundary arc: (lo, hi] in angle, tagged by its hi endpoint.

    ``hi`` is the designated level-set endpoint; ``lo`` may be negative for
    the arc wrapping through angle zero.  ``mass`` is the independently
    integrated angular mass, verified against 1/N.
    """

    lo: float
    hi: float
    level: int
    mass: float
    hi_derivative: float

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains_angle(self, angle: float) -> bool:
        if self.length >= TWO_PI - 1e-12:
            return True
        # a point within angle tolerance of lo belongs to the previous arc
        # (this arc's lo is that arc's designated hi endpoint)
        d = normalize_angle(angle - self.lo)
        return 1e-12 < d <= self.length + 1e-12


@dataclass(frozen=True)
class ArcSystem:
    level_count: int
    arcs: tuple[Arc, ...]
    truncated: bool = False

    @property
    def total_mass(self) -> float:
        return sum(a.mass for a in self.arcs)


@dataclass(frozen=True)
class CarlesonSquare:
    """Radial box over one arc: angles (lo, hi], radius >= 1 - |J|/(2 pi)."""

    arc_index: int
    lo: float
    hi: float
    level: int
    inner_radius: float
    anchor_angle: float
    anchor_derivative: float

    def contains(self, z: complex | UnitPoint) -> bool:
        w = z.value if isinstance(z, UnitPoint) else complex(z)
        r = abs(w)
        if r < self.inner_radius or r > 1.0 + 1e-14:
            return False
        if self.hi - self.lo >= TWO_PI - 1e-12:
            return True
        d = normalize_angle(cmath.phase(w) - self.lo)
        return 1e-12 < d <= (self.hi - self.lo) + 1e-12


@dataclass(frozen=True)
class SquareSystem:
    level_count: int
    squares: tuple[CarlesonSquare, ...]
    truncated: bool = False

    def square_of(self, z: complex | UnitPoint) -> CarlesonSquare | None:
        w = z.value if isinstance(z, UnitPoint) else complex(z)
        k = int(self.locate([w])[0])
        return self.squares[k] if k >= 0 else None

    def locate(self, z: Sequence[complex]) -> np.ndarray:
        """Position in ``squares`` of the first square containing each point, -1 if none.

        The same answer as scanning ``CarlesonSquare.contains`` in order.
        The squares' angular windows (lo + 1e-12, hi + 1e-12] follow each
        other without overlap, so a bisection of the sorted lows leaves at
        most the neighbouring squares as candidates; each candidate is
        checked by the scan's own rule, on the same phase and modulus.
        """
        m = len(self.squares)
        if m == 0 or len(z) == 0:
            return np.full(len(z), -1)
        found = np.full(len(z), m)
        lo = np.array([sq.lo for sq in self.squares])
        width = np.array([sq.hi - sq.lo for sq in self.squares])
        inner = np.array([sq.inner_radius for sq in self.squares])
        phase = np.array([cmath.phase(w) for w in z])
        radius = np.array([abs(w) for w in z])
        k = np.searchsorted(lo, np.mod(phase, TWO_PI), side="right") - 1
        for cand in ((k - 1) % m, k % m, (k + 1) % m):
            d = np.fmod(phase - lo[cand], TWO_PI)  # normalize_angle, elementwise
            d = np.where(d < 0.0, d + TWO_PI, d)
            d = np.where(d >= TWO_PI, d - TWO_PI, d)
            in_arc = (width[cand] >= TWO_PI - 1e-12) | ((1e-12 < d) & (d <= width[cand] + 1e-12))
            held = in_arc & (radius >= inner[cand]) & (radius <= 1.0 + 1e-14)
            found = np.where(held, np.minimum(found, cand), found)
        return np.where(found < m, found, -1)

    def by_level(self, level: int) -> list[CarlesonSquare]:
        return [sq for sq in self.squares if sq.level == level]


def build_arc_system(
    theta: InnerFunction, level_count: int, max_points_per_arc: int = 512
) -> ArcSystem:
    """Cut the circle into arcs of angular mass 1/N at the N level sets.

    The level sets at e^{2 pi i l / N} are merged and sorted; consecutive
    points bound the arcs, each tagged by the level of its hi endpoint.
    Per-arc mass is re-integrated independently of the level sets, all
    arcs in one lockstep adaptive Simpson over the rate |Theta'|/(2 pi) of
    ``eval_points``, and checked against 1/N.
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

    tagged: list[tuple[float, int, float]] = []  # (angle, level, derivative)
    for l, fam in zip(range(1, level_count + 1), families):
        for p, d in zip(fam.points, fam.derivs):
            tagged.append((p.angle, l, d))
    tagged.sort()
    n_pts = len(tagged)
    if n_pts < 1:
        raise NumericDomainError("no level points found")
    for i in range(1, n_pts):
        if tagged[i][0] - tagged[i - 1][0] < 1e-11:
            raise NumericDomainError(
                f"level points at angles {tagged[i - 1][0]} and {tagged[i][0]} collide"
            )

    atom_angles = [a for a, _ in theta.singular_atoms]
    spans: list[tuple[float, float, int, float]] = []  # (lo, hi, level, derivative)
    for i, (hi, level, hi_deriv) in enumerate(tagged):
        lo = tagged[i - 1][0] if i > 0 else tagged[-1][0] - TWO_PI
        # atoms never coincide with level points, so a wrapped offset in
        # (0, length) means the atom sits strictly inside this arc
        if any(normalize_angle(a - lo) < (hi - lo) + 1e-15 for a in atom_angles):
            truncated = True
        else:
            spans.append((lo, hi, level, hi_deriv))
    lo, hi = np.array([span[:2] for span in spans]).reshape(-1, 2).T
    masses = adaptive_simpson(
        lambda t: eval_points(theta, np.exp(1j * t))[1] / TWO_PI, lo, hi, rel_tol=1e-9
    )
    arcs: list[Arc] = []
    target = 1.0 / level_count
    for (lo, hi, level, hi_deriv), mass in zip(spans, masses.tolist()):
        if abs(mass - target) > _ARC_MASS_REL_TOL * target:
            if truncated:
                # an end arc next to a truncation cut can lose its partner
                # point; surrender it along with the already-cut zone
                continue
            raise NumericDomainError(
                f"arc mass check failed: got {mass}, expected {target}"
            )
        arcs.append(Arc(lo=lo, hi=hi, level=level, mass=mass, hi_derivative=hi_deriv))
    return ArcSystem(level_count=level_count, arcs=tuple(arcs), truncated=truncated)


def build_squares(arcs: ArcSystem) -> SquareSystem:
    """Carleson square over each arc, depth equal to the arc's turn fraction."""
    squares = []
    for idx, arc in enumerate(arcs.arcs):
        squares.append(
            CarlesonSquare(
                arc_index=idx,
                lo=arc.lo,
                hi=arc.hi,
                level=arc.level,
                inner_radius=1.0 - arc.length / TWO_PI,
                anchor_angle=normalize_angle(arc.hi),
                anchor_derivative=arc.hi_derivative,
            )
        )
    return SquareSystem(
        level_count=arcs.level_count, squares=tuple(squares), truncated=arcs.truncated
    )


@dataclass(frozen=True)
class UncoveredRegionReport:
    """Sampled boundary diagnostics of the region left under the squares."""

    delta: float
    log_modulus_worst_const: float
    samples: int


def uncovered_region_report(
    theta: InnerFunction, squares: SquareSystem, samples: int = 4096
) -> UncoveredRegionReport:
    """Max |Theta| over the in-disk boundary of the uncovered region.

    The boundary consists of the squares' inner sides plus the radial
    segments joining adjacent squares of different depths; by the maximum
    principle the sampled max bounds |Theta| throughout the region (up to
    sampling resolution).  Also records the worst constant C for which
    log|Theta(z)| <= -C (1-|z|) |Theta'(z/|z|)| held on the samples.
    """
    sqs = squares.squares
    if not sqs:
        raise NumericDomainError("square system is empty")
    per_side = max(8, math.ceil(samples / len(sqs)))
    steps = np.arange(per_side) + 0.5
    radii = [np.full(per_side, sq.inner_radius) for sq in sqs]
    angles = [sq.lo + (sq.hi - sq.lo) * steps / per_side for sq in sqs]
    # radial joints between adjacent squares of different depth
    for i, sq in enumerate(sqs):
        nxt = sqs[(i + 1) % len(sqs)]
        r_lo = min(sq.inner_radius, nxt.inner_radius)
        r_hi = max(sq.inner_radius, nxt.inner_radius)
        if r_hi - r_lo < 1e-15:
            continue
        radii.append(r_lo + (r_hi - r_lo) * (np.arange(8) + 0.5) / 8)
        angles.append(np.full(8, sq.hi))
    z = np.concatenate(radii) * np.exp(1j * np.concatenate(angles))
    values, rates = eval_points(theta, z)
    mod = np.abs(values)
    r = np.abs(z)
    # log|Theta| <= -C (1-|z|) |Theta'| holds for every C at a zero of Theta
    off_zero = (r > 0.0) & (r < 1.0) & (mod > 0.0)
    consts = -np.log(mod[off_zero]) / ((1.0 - r[off_zero]) * rates[off_zero])
    return UncoveredRegionReport(
        delta=float(mod.max()),
        log_modulus_worst_const=float(consts.min()) if consts.size else math.inf,
        samples=int(z.size),
    )


def uncovered_region_delta(
    theta: InnerFunction, squares: SquareSystem, samples: int = 4096
) -> float:
    """Sampled sup of |Theta| over the uncovered region's in-disk boundary."""
    return uncovered_region_report(theta, squares, samples).delta


def count_per_square(
    squares: SquareSystem, seq: PointSequence
) -> tuple[int, list[int]]:
    """Exact membership counts per square; first element is the max count."""
    return _square_counts(squares, squares.locate(seq.values))


def _square_counts(squares: SquareSystem, located: np.ndarray) -> tuple[int, list[int]]:
    counts = np.bincount(located[located >= 0], minlength=len(squares.squares))
    return (int(counts.max()) if counts.size else 0), counts.tolist()


# ---------------------------------------------------------------------------
# Full square-pipeline decomposition
# ---------------------------------------------------------------------------

def rate_comparability(theta: InnerFunction, arcs: ArcSystem, grid: int = 32) -> float:
    """Worst per-arc max/min ratio of |Theta'| over a midpoint subgrid of each arc."""
    lo = np.array([arc.lo for arc in arcs.arcs])
    length = np.array([arc.length for arc in arcs.arcs])
    angles = lo[:, None] + length[:, None] * (np.arange(grid) + 0.5) / grid
    _, rates = eval_points(theta, np.exp(1j * angles.ravel()))
    rates = rates.reshape(angles.shape)
    return float(np.max(rates.max(axis=1) / rates.min(axis=1)))


def select_level_count(
    theta: InnerFunction,
    *,
    delta_ceiling: float = 0.9,
    spread_ceiling: float = 4.0,
    start: int = 8,
    limit: int = 256,
    samples: int = 2048,
) -> int:
    """Smallest power-of-two N at which the square system is usable.

    Usable means: the uncovered region's sampled sup of |Theta| is below
    ``delta_ceiling`` and the per-arc rate spread stays below
    ``spread_ceiling``.  The two criteria pull in opposite directions (the
    spread improves with N while the sublevel sup creeps toward 1), so when
    no N meets the health margin the spread-qualified N with the smallest
    sup below 1 is taken instead; certificates stay valid for any sup < 1.
    """
    arcs, _squares, _region = _select_square_system(
        theta,
        delta_ceiling=delta_ceiling,
        spread_ceiling=spread_ceiling,
        start=start,
        limit=limit,
        samples=samples,
    )
    return arcs.level_count


def _select_square_system(
    theta: InnerFunction,
    *,
    delta_ceiling: float = 0.9,
    spread_ceiling: float = 4.0,
    start: int = 8,
    limit: int = 256,
    samples: int = 2048,
    max_points_per_arc: int = 512,
) -> tuple[ArcSystem, SquareSystem, UncoveredRegionReport]:
    """The search behind ``select_level_count``, returning what it built for the pick."""
    best: tuple[float, tuple] | None = None
    n = start
    while n <= limit:
        arcs = build_arc_system(theta, n, max_points_per_arc)
        squares = build_squares(arcs)
        region = uncovered_region_report(theta, squares, samples)
        if rate_comparability(theta, arcs) <= spread_ceiling:
            if region.delta < delta_ceiling:
                return arcs, squares, region
            if region.delta < 1.0 - 1e-9 and (best is None or region.delta < best[0]):
                best = (region.delta, (arcs, squares, region))
        n *= 2
    if best is not None:
        return best[1]
    raise CertificationError(
        f"no usable level count up to {limit}: sublevel bound or rate spread failed"
    )


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
    with at most one point per square; each sub-part gets exact Gram frame
    bounds and stability margins against its squares' anchor points.  The
    uncovered bucket is routed through the interpolation splitter with the
    region-wide modulus bound as its gamma.  If that bound reaches 1 the
    bucket is emitted uncertified and flagged; a larger level count fixes
    it.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot decompose an empty sequence")
    if theta.is_constant:
        raise NumericDomainError("constant inner function: nothing to decompose")
    on_spectrum = np.flatnonzero(spectrum_distance(theta, np.array(seq.values)) <= 1e-13)
    if on_spectrum.size:
        raise NumericDomainError(f"point {seq.ids[on_spectrum[0]]} lies on the spectrum")

    if level_count is None:
        arcs, squares, region = _select_square_system(
            theta, samples=samples, max_points_per_arc=max_points_per_arc
        )
        level_count = arcs.level_count
    else:
        arcs = build_arc_system(theta, level_count, max_points_per_arc)
        squares = build_squares(arcs)
        region = uncovered_region_report(theta, squares, samples)

    flags: list[str] = []
    if squares.truncated:
        flags.append("square system truncated near the spectrum")
    if region.delta >= 0.9:
        flags.append(
            f"uncovered-region modulus bound {region.delta:.6f} exceeds the 0.9 health margin"
        )

    located = squares.locate(seq.values)
    uncovered: list[int] = []  # positions in seq
    bucket: dict[int, dict[int, list[int]]] = {}  # level -> arc_index -> ids
    for k, (pid, p) in enumerate(seq):
        if located[k] < 0:
            if p.is_boundary:
                raise NumericDomainError(
                    f"boundary point {pid} escaped every square; "
                    "the uncovered region is interior-only"
                )
            uncovered.append(k)
        else:
            sq = squares.squares[located[k]]
            bucket.setdefault(sq.level, {}).setdefault(sq.arc_index, []).append(pid)

    max_count, _counts = _square_counts(squares, located)
    z = np.array(seq.values, dtype=complex)
    values, norms_sq = normalized_values(theta, seq.points, seq.ids)
    parts: list[PartitionPart] = []

    if uncovered:
        sub = seq.subset(seq.ids[k] for k in uncovered)
        gamma_used = max(region.delta, float(np.abs(values[uncovered]).max()))
        if gamma_used >= _GAMMA_CEILING:
            flags.append(
                f"sublevel bound failed at level count {level_count} "
                f"(delta = {gamma_used}); uncovered bucket left uncertified - increase N"
            )
            (fb,) = part_frame_bounds(z, values, norms_sq, seq.ids, [np.array(uncovered)])
            parts.append(
                PartitionPart(
                    ids=tuple(sorted(sub.ids)),
                    route="uncovered:uncertified",
                    certificate=PartCertificate(gamma=gamma_used, frame_bounds=fb),
                )
            )
        else:
            inner_partition = _split_evaluated(
                sub,
                values[uncovered],
                norms_sq[uncovered],
                gamma_floor=region.delta,
                max_depth=max_depth,
                route="uncovered:interp",
            )
            flags.extend(inner_partition.flags)
            parts.extend(inner_partition.parts)

    position = {pid: k for k, pid in enumerate(seq.ids)}
    square_parts: list[tuple[PointSequence, str, list[float]]] = []
    square_by_index = {sq.arc_index: sq for sq in squares.squares}
    for level in sorted(bucket):
        per_square = bucket[level]
        for ids in per_square.values():
            ids.sort()
        depth = max(len(ids) for ids in per_square.values())
        alpha = cmath.exp(2j * math.pi * level / level_count)
        for m in range(depth):
            owner: dict[int, int] = {}  # id -> arc_index
            for arc_index in sorted(per_square):
                ids = per_square[arc_index]
                if m < len(ids):
                    owner[ids[m]] = arc_index
            part_seq = seq.subset(owner)
            # index-matched anchor family: each point against its own
            # square's designated level point
            anchors = []
            derivs = []
            for pid, _lam in part_seq:
                sq = square_by_index[owner[pid]]
                anchors.append(UnitPoint.boundary(sq.anchor_angle))
                derivs.append(sq.anchor_derivative)
            anchor_family = ClarkFamily(
                alpha=alpha,
                points=tuple(anchors),
                derivs=tuple(derivs),
                weights=tuple(1.0 / d for d in derivs),
            )
            margins = stability_margin(theta, anchor_family, part_seq)
            square_parts.append((part_seq, f"square:{level}:{m + 1}", margins))

    bounds = part_frame_bounds(
        z,
        values,
        norms_sq,
        seq.ids,
        [np.array([position[pid] for pid in part_seq.ids]) for part_seq, _, _ in square_parts],
    )
    for (part_seq, route, margins), fb in zip(square_parts, bounds):
        parts.append(
            PartitionPart(
                ids=tuple(part_seq.ids),
                route=route,
                certificate=PartCertificate(frame_bounds=fb),
                stability_margins=tuple(margins),
            )
        )

    partition = Partition(
        parts=tuple(parts),
        global_info={
            "level_count": level_count,
            "max_per_square": max_count,
            "delta_uncovered": region.delta,
        },
        flags=tuple(flags),
        arcs=arcs,
    )
    if partition.all_ids() != tuple(sorted(seq.ids)):
        raise NumericDomainError("partition failed to cover the sequence exactly")
    return partition
