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
written.

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
from typing import Callable

import numpy as np

from .carleson import (
    carleson_constant,
    earl_bound,
    interpolation_threshold,
    log_distance_matrix,
)
from .clark import ClarkFamily, level_sets, stability_margin
from .errors import CertificationError, ConfigError, NumericDomainError
from .gram import FrameBounds, extremal_eigs, gram
from .inner import InnerFunction, boundary_derivative, eval_inner, eval_points, spectrum_distance
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


def _log_delta(L: np.ndarray, idx: np.ndarray) -> float:
    """Log Carleson constant of the points ``idx``: the min row sum of L[idx, idx]."""
    return float(L[idx][:, idx].sum(axis=1).min())


def _modulus_rank(seq: PointSequence) -> np.ndarray:
    """Rank of each point in decreasing modulus order, ties by id."""
    order = np.lexsort((np.asarray(seq.ids), -np.abs(np.asarray(seq.values))))
    rank = np.empty(len(seq), dtype=int)
    rank[order] = np.arange(len(seq))
    return rank


def _first_fit(L: np.ndarray, groups: list[np.ndarray], log_floor: float) -> list[np.ndarray]:
    """First-fit of index groups into bins whose min row sum of L stays >= log_floor.

    Every placed point keeps its running row sum within its bin, so trying
    a group against all bins costs one |group| x n block of L.  Entries of
    L are <= 0, so a single pair below the floor rules its bin out: the
    group's rows of the clash matrix L < log_floor drop those bins before
    any sum is formed.
    """
    clash = L < log_floor
    label = np.full(len(L), -1)  # bin of each placed point
    running = np.zeros(len(L))  # row sum of each placed point within its bin
    bins: list[list[int]] = []
    for group in groups:
        own = L[group][:, group].sum(axis=1)
        # shut[b]: bin b cannot take the group; the last slot, label -1,
        # stands for the points not placed yet
        shut = np.zeros(len(bins) + 1, dtype=bool)
        shut[-1] = True
        shut[label[clash[group].any(axis=0)]] = True
        live = np.flatnonzero(~shut[label])
        owner = label[live]
        cross = L[group][:, live]
        grown = running[live] + cross.sum(axis=0)
        shut[owner[grown < log_floor]] = True
        joined = own[:, None] + np.array(
            [np.bincount(owner, weights=row, minlength=len(bins)) for row in cross]
        )
        shut[:-1] |= (joined < log_floor).any(axis=0)
        fits = np.flatnonzero(~shut)
        if fits.size:
            b = int(fits[0])
            running[live[owner == b]] = grown[owner == b]
            running[group] = joined[:, b]
        else:
            b = len(bins)
            bins.append([])
            running[group] = own
        label[group] = b
        bins[b].extend(int(k) for k in group)
    return [np.array(sorted(members)) for members in bins]


def greedy_interpolating_cover(seq: PointSequence, delta_floor: float) -> list[PointSequence]:
    """Partition into parts with Carleson constant >= delta_floor.

    First-fit greedy over points in decreasing modulus order, followed by
    re-verification of every part.  Singletons have constant 1, so the
    cover always succeeds.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot cover an empty sequence")
    L = log_distance_matrix(seq)
    order = np.argsort(_modulus_rank(seq))
    log_floor = math.log(delta_floor) if delta_floor > 0.0 else -math.inf
    bins = _first_fit(L, [order[k : k + 1] for k in range(len(seq))], log_floor)
    parts = [_subsequence(seq, idx) for idx in bins]
    for part in parts:
        got = carleson_constant(part)
        if got < delta_floor - 1e-15:
            raise NumericDomainError(
                f"greedy cover verification failed: delta {got} < floor {delta_floor}"
            )
    return parts


def _mills_halves(
    L: np.ndarray, idx: np.ndarray, rank: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The two halves, as sorted positions into L, of the points ``idx``."""
    sub = L[idx][:, idx]
    np.fill_diagonal(sub, np.inf)
    i0, j0 = divmod(int(np.argmin(sub)), len(idx))  # first closest pair, i0 < j0
    near_a = sub[i0].copy()  # log distance from each point to the nearest of a
    near_b = sub[j0].copy()
    a, b = [i0], [j0]
    rest = np.delete(np.arange(len(idx)), [i0, j0])
    for k in rest[np.argsort(rank[idx[rest]])]:
        da, db = near_a[k], near_b[k]
        if da > db or (da == db and len(a) <= len(b)):
            a.append(k)
            np.minimum(near_a, sub[k], out=near_a)
        else:
            b.append(k)
            np.minimum(near_b, sub[k], out=near_b)
    return np.sort(idx[a]), np.sort(idx[b])


def _subsequence(seq: PointSequence, idx: np.ndarray) -> PointSequence:
    return PointSequence(
        tuple(seq.points[k] for k in idx), tuple(seq.ids[k] for k in idx)
    )


def mills_split(seq: PointSequence) -> tuple[PointSequence, PointSequence]:
    """Split a sequence in two without losing separation.

    Heuristic: the two pseudohyperbolically closest points seed different
    halves; remaining points go, in decreasing modulus order, to the half
    maximizing their minimum distance to it.  Dropping points can only
    raise each factor's Carleson constant, so min(delta_1, delta_2) >=
    delta always holds; the sqrt(delta) quality target is the caller's to
    check (re-splitting recursively when missed).
    """
    n = len(seq)
    if n == 0:
        raise NumericDomainError("cannot split an empty sequence")
    if n == 1:
        return seq, PointSequence((), ())
    a, b = _mills_halves(log_distance_matrix(seq), np.arange(n), _modulus_rank(seq))
    return _subsequence(seq, a), _subsequence(seq, b)


def _theta_values(theta: ThetaLike, seq: PointSequence) -> list[complex]:
    if isinstance(theta, InnerFunction):
        return [eval_inner(theta, p) for p in seq.points]
    return [complex(theta(p.value)) for p in seq.points]


def _clique_size(clash: np.ndarray) -> int:
    """Size of a greedy clique of the clash graph, highest degree first."""
    clique: list[int] = []
    for v in np.argsort(-clash.sum(axis=1), kind="stable"):
        if clash[v, clique].all():
            clique.append(int(v))
    return len(clique)


def split_by_interpolation(
    theta: ThetaLike,
    seq: PointSequence,
    *,
    gamma_floor: float = 0.0,
    max_depth: int = 20,
    attach_frame_bounds: bool = True,
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
    can share a part.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot split an empty sequence")
    values = _theta_values(theta, seq)
    gamma_points = max(abs(v) for v in values)
    gamma = max(gamma_points, gamma_floor)
    if gamma >= _GAMMA_CEILING:
        raise CertificationError(
            f"off-spectrum condition violated: max |Theta(lambda)| = {gamma} is not < 1"
        )
    delta_star = 0.0 if gamma == 0.0 else interpolation_threshold(gamma)
    L = log_distance_matrix(seq)
    rank = _modulus_rank(seq)

    def certified(delta: float) -> bool:
        return delta >= delta_star and gamma * earl_bound(delta) < 1.0

    flags: list[str] = []
    delta_all = carleson_constant(seq)
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

    log_star = math.log(delta_star) if delta_star > 0.0 else -math.inf
    found.sort(key=lambda idx: (-len(idx), int(idx[0])))
    merged = _first_fit(L, found, log_star + _MERGE_SLACK)
    merged.sort(key=lambda idx: min(seq.ids[k] for k in idx))
    parts = []
    for idx in merged:
        delta_j = math.exp(_log_delta(L, idx))  # a fresh sum, not the running ones
        if not certified(delta_j):
            raise NumericDomainError(
                f"part re-verification failed: delta {delta_j} at delta* {delta_star}"
            )
        phi = earl_bound(delta_j)
        fb = None
        if attach_frame_bounds and isinstance(theta, InnerFunction):
            fb = extremal_eigs(gram(theta, _subsequence(seq, idx)))
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
        for sq in self.squares:
            if sq.contains(z):
                return sq
        return None

    def by_level(self, level: int) -> list[CarlesonSquare]:
        return [sq for sq in self.squares if sq.level == level]


def build_arc_system(
    theta: InnerFunction, level_count: int, max_points_per_arc: int = 512
) -> ArcSystem:
    """Cut the circle into arcs of angular mass 1/N at the N level sets.

    The level sets at e^{2 pi i l / N} are merged and sorted; consecutive
    points bound the arcs, each tagged by the level of its hi endpoint.
    Per-arc mass is re-integrated independently and checked against 1/N.
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

    rate = lambda t: boundary_derivative(theta, cmath.exp(1j * t)) / TWO_PI  # noqa: E731
    atom_angles = [a for a, _ in theta.singular_atoms]
    arcs: list[Arc] = []
    target = 1.0 / level_count
    for i in range(n_pts):
        hi, level, hi_deriv = tagged[i]
        lo = tagged[i - 1][0] if i > 0 else tagged[-1][0] - TWO_PI
        # atoms never coincide with level points, so a wrapped offset in
        # (0, length) means the atom sits strictly inside this arc
        contains_atom = any(
            normalize_angle(a - lo) < (hi - lo) + 1e-15 for a in atom_angles
        )
        if contains_atom:
            truncated = True
            continue
        mass = adaptive_simpson(rate, lo, hi, rel_tol=1e-9)
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
    counts = [0] * len(squares.squares)
    for _, p in seq:
        sq = squares.square_of(p)
        if sq is not None:
            counts[sq.arc_index] += 1
    return (max(counts) if counts else 0), counts


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
    for pid, p in seq:
        if spectrum_distance(theta, p.value) <= 1e-13:
            raise NumericDomainError(f"point {pid} lies on the spectrum")

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

    uncovered_ids: list[int] = []
    bucket: dict[int, dict[int, list[int]]] = {}  # level -> arc_index -> ids
    for pid, p in seq:
        sq = squares.square_of(p)
        if sq is None:
            if p.is_boundary:
                raise NumericDomainError(
                    f"boundary point {pid} escaped every square; "
                    "the uncovered region is interior-only"
                )
            uncovered_ids.append(pid)
        else:
            bucket.setdefault(sq.level, {}).setdefault(sq.arc_index, []).append(pid)

    max_count, _counts = count_per_square(squares, seq)
    parts: list[PartitionPart] = []

    if uncovered_ids:
        sub = seq.subset(uncovered_ids)
        gamma_pts = max(abs(eval_inner(theta, p)) for p in sub.points)
        gamma_used = max(region.delta, gamma_pts)
        if gamma_used >= _GAMMA_CEILING:
            flags.append(
                f"sublevel bound failed at level count {level_count} "
                f"(delta = {gamma_used}); uncovered bucket left uncertified - increase N"
            )
            parts.append(
                PartitionPart(
                    ids=tuple(sorted(uncovered_ids)),
                    route="uncovered:uncertified",
                    certificate=PartCertificate(
                        gamma=gamma_used,
                        frame_bounds=extremal_eigs(gram(theta, sub)),
                    ),
                )
            )
        else:
            inner_partition = split_by_interpolation(
                theta,
                sub,
                gamma_floor=region.delta,
                max_depth=max_depth,
                route="uncovered:interp",
            )
            flags.extend(inner_partition.flags)
            parts.extend(inner_partition.parts)

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
            parts.append(
                PartitionPart(
                    ids=tuple(part_seq.ids),
                    route=f"square:{level}:{m + 1}",
                    certificate=PartCertificate(
                        frame_bounds=extremal_eigs(gram(theta, part_seq))
                    ),
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
