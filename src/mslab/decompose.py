"""Decomposition engines that split kernel families into certified parts.

Two pipelines are implemented.

``split_by_interpolation`` covers the regime where the sequence stays
uniformly off the spectrum, i.e. gamma = sup |Theta(lambda_n)| < 1.  Any
part with Carleson constant delta_j has interpolation constant at most
phi(delta_j), so the distance from Theta to B_j H^inf is bounded by
gamma * phi(delta_j); once that product is below 1 the part's normalized
kernels form a Riesz basic sequence.  The splitter therefore drives every
part's separation above the threshold delta* with phi(delta*) = 1/gamma.
Its core ``split_log_distances`` reads gamma, the points' labels and one
matrix L[i, j] = log rho(l_i, l_j) that its caller forms once, in the disk
or (``mslab.pw``) the half-plane: a part's constant is exp of the min row
sum of L over the part.  One first-fit pass places the points one at a
time, most clashing first (most points closer than delta*, ties to the
smaller row sum of L), into the first part that keeps every member's
running row sum at or above log delta*, opening a new part when none can
take the point.  The longest head of that order whose points are pairwise
closer than delta* opens one part per point in one step; every later
point takes one bincount of its row of L over the parts.  A lone point
certifies for every gamma < 1, so every point ends in a certified part.
Every emitted part is re-verified from a fresh sum over its own block of
L, all parts of one size in one stacked sum (a pair reads its one entry),
before its certificate chain is written.  The splitter leaves the frame
bounds NaN: each driver bounds its finished partition in one call of
``gram.part_frame_bounds``, the square pipeline its uncovered bucket and
square parts together.  At gamma = 0, delta* is the smallest delta with a
finite phi(delta), about 1.49e-154.

``decompose_by_squares`` covers points that approach the boundary.  It
builds the N level sets {Theta = e^{2pi i l/N}} and cuts the circle into
arcs carrying equal angular mass 1/N.  An ``ArcSystem`` holds the arcs
as arrays, one entry per arc; arc (lo, hi] = J carries the Carleson square
(lo, hi] x [1 - |J|/2pi, 1], anchored at its hi endpoint, and
``ArcSystem.locate`` is the one membership rule.  A point inside a
square joins that square's level bucket: one sort ranks each square's
points by id, and sub-part m of a level takes the m-th point of every
square of that level, so each sub-part is a small perturbation of one
Clark family.  A point outside all squares lies in the uncovered region,
where |Theta| stays below a measurable delta < 1 and the interpolation
splitter applies.  N is 8 when none is given.

Both return a ``Partition``, one table of arrays: member positions with
per-part offsets, per-part routes, certificates and frame bounds, and
per-member margins; the square pipeline joins the tables of its uncovered
bucket and its square parts.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .carleson import _earl_bounds, interpolation_threshold, log_distance_matrix
from .clark import level_sets
from .errors import CertificationError, ConfigError, NumericDomainError
from .gram import _by_size, part_frame_bounds
from .inner import (
    InnerFunction,
    _log_modulus_sq,
    _one_minus_modulus_sq,
    boundary_argument,
    normalized_values,
    spectrum_distance,
)
from .points import TWO_PI, PointSequence, normalize_angles

_ARC_MASS_REL_TOL = 1e-6
_GAMMA_CEILING = 1.0 - 1e-14


# ---------------------------------------------------------------------------
# Partition containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Partition:
    """A partition's parts as one table of arrays, plus global data and flags.

    Part k holds the points at positions ``members[offsets[k]:offsets[k + 1]]``
    of the split sequence, in report order, and row k of the per-part
    columns: ``route``; the certificate's ``gamma``, ``delta_j``,
    ``earl_value`` and ``dist_bound``, NaN where the part has none (square
    parts, and all but gamma on the uncertified bucket); and the frame
    bounds ``lambda_min`` and ``lambda_max`` of its Gram section.
    ``margins`` holds each member's stability margin, in ``members`` order,
    NaN on the parts that have none.  ``arcs`` is the square pipeline's arc
    system, not reported.
    """

    members: np.ndarray
    offsets: np.ndarray
    route: tuple[str, ...]
    gamma: np.ndarray
    delta_j: np.ndarray
    earl_value: np.ndarray
    dist_bound: np.ndarray
    lambda_min: np.ndarray
    lambda_max: np.ndarray
    margins: np.ndarray
    global_info: dict = field(default_factory=dict)
    flags: tuple[str, ...] = ()
    arcs: ArcSystem | None = None

    @property
    def parts(self) -> list[np.ndarray]:
        """Each part's member positions."""
        return np.split(self.members, self.offsets[1:-1])


# The table's columns of numbers.
_COLUMNS = ("gamma", "delta_j", "earl_value", "dist_bound", "lambda_min", "lambda_max", "margins")


def _plain_parts(members, offsets, route, gamma=math.nan, margins=math.nan) -> Partition:
    """Parts with gamma and margins if given, but no interpolation certificate or frame bounds."""
    blank = np.full(len(route), math.nan)
    return Partition(
        members, offsets, route, np.full(len(route), gamma), blank, blank, blank, blank, blank,
        np.broadcast_to(margins, members.shape),
    )


def _joined(pieces: list[Partition], **info) -> Partition:
    """One table of the pieces' parts, piece after piece, with ``info`` as its global data."""
    sizes = np.concatenate([np.diff(p.offsets) for p in pieces])
    stacked = {c: np.concatenate([getattr(p, c) for p in pieces]) for c in ("members", *_COLUMNS)}
    offsets, route = np.concatenate([[0], np.cumsum(sizes)]), sum((p.route for p in pieces), ())
    return Partition(offsets=offsets, route=route, **stacked, **info)


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


def _log_deltas(L: np.ndarray, members: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Log Carleson constant of each part: min row sum of its block of L, 0 for one point.

    The parts of one size (``gram._by_size``) are summed as one stack of
    blocks, over axis 1: row after row, as a lone block ``L[idx][:, idx]``
    (Fortran-ordered) sums along its rows, so with L exactly symmetric each
    value equals that block's ``.sum(axis=1).min()`` bit for bit.  A pair's value is its entry L[i, j]
    itself: with a zero diagonal, each of its block's two sums is 0 + L[i, j].
    """
    out = np.zeros(offsets.size - 1)
    for parts, slots in _by_size(offsets):
        idx = members[slots]
        if slots.shape[1] == 2:
            out[parts] = L[idx[:, 0], idx[:, 1]]
        elif slots.shape[1] > 2:
            out[parts] = L[idx[:, :, None], idx[:, None, :]].sum(axis=1).min(axis=1)
    return out


def _first_fit(
    L: np.ndarray, order: np.ndarray, log_floor: float
) -> tuple[np.ndarray, np.ndarray]:
    """First-fit of single points, in ``order``, into bins whose min row sum stays >= log_floor.

    Every placed point keeps its running row sum within its bin and its bin's
    slot, counted from 1 (slot 0: not placed yet).  Entries of L, and so the
    running sums, are <= 0: one member closer than the floor shuts its bin.
    So the longest head of the order whose points are pairwise closer than
    the floor opens one bin per point, in one step.  Every later point takes
    one bincount of its row of L over the slots, in which a member it would
    push below the floor weighs -inf: each bin's sum is the point's row sum
    there, or -inf, and the point joins the first bin whose sum is
    >= log_floor.  Bins come out as member positions and offsets, in slot
    order, each in ascending position.
    """
    near = np.tril((L < log_floor)[np.ix_(order, order)], -1)
    # the head ends at the first point that is not near every point before it
    head = int(np.append(np.count_nonzero(near, axis=1) < np.arange(order.size), True).argmax())
    slot = np.zeros(len(L), dtype=int)
    slot[order[:head]] = np.arange(1, head + 1)
    running = np.zeros(len(L))  # row sum of each placed point within its bin
    for k in order[head:].tolist():
        row = L[k]
        grown = running + row
        joined = np.bincount(slot, weights=np.where(grown < log_floor, -np.inf, row))
        joined[0] = np.nan  # slot 0 takes no point, even at a floor of -inf
        s = int((joined >= log_floor).argmax())  # the first open bin's slot, 0 if none
        if s:
            np.copyto(running, grown, where=slot == s)
            running[k] = joined[s]
        else:
            s = joined.size
        slot[k] = s
    # slot 0 is empty, so the cumulative counts start at 0
    return np.argsort(slot, kind="stable"), np.cumsum(np.bincount(slot))


def _clique_size(clash: np.ndarray) -> int:
    """Size of a greedy clique of the clash graph, highest degree first."""
    joins = np.ones(len(clash), dtype=bool)  # clashes with every clique member so far
    size = 0
    for v in np.argsort(-clash.sum(axis=1), kind="stable").tolist():
        if joins[v]:
            size += 1
            joins &= clash[v]
    return size


def split_by_interpolation(theta: InnerFunction, seq: PointSequence) -> Partition:
    """Split into parts whose certificates give gamma * phi(delta_j) < 1.

    Requires gamma = max |Theta(lambda_n)| < 1.  The sequence is evaluated
    once, for gamma and for every part's Gram section; the finished parts
    are bounded in one ``part_frame_bounds`` call.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot split an empty sequence")
    values, norms_sq = normalized_values(theta, seq.z, seq.angle, seq.ids)
    # refused before L is formed, which refuses boundary points itself
    gamma = _off_spectrum(float(np.abs(values).max()))
    partition = split_log_distances(log_distance_matrix(seq), seq.ids, gamma)
    low, high = part_frame_bounds(
        theta, seq.z, values, norms_sq, seq.ids, partition.members, partition.offsets
    )
    return replace(partition, lambda_min=low, lambda_max=high)


def _off_spectrum(gamma: float) -> float:
    """gamma, if it is below 1 - 1e-14."""
    if gamma >= _GAMMA_CEILING:
        raise CertificationError(
            f"off-spectrum condition violated: max |Theta(lambda)| = {gamma} is not < 1"
        )
    return gamma


def split_log_distances(
    L: np.ndarray, ids: np.ndarray, gamma: float, *, route: str = "interp"
) -> Partition:
    """Split points into parts with gamma * phi(delta_j) < 1, from their log distances.

    L[i, j] = log rho(l_i, l_j) is the points' log-distance matrix (zero
    diagonal, exactly symmetric), ``ids`` their labels and gamma the
    certified bound on the symbol over them, any floor included.  The
    parts' frame bounds are left NaN, for the caller to fill from its own
    Gram data.  Points are placed one at a time by first-fit, in decreasing
    clash degree (the number of points closer than delta*), ties to the
    smaller row sum of L, then the lower position.  A lone point has delta = 1 and phi(1) = 1, so it
    certifies for every gamma < 1 and the split cannot fail.  Each part's
    delta_j is exp of a fresh sum (``math.exp``: ``np.exp`` may differ in
    the last bit), and phi and gamma * phi are ``earl_bound``'s arithmetic
    on the whole column.  ``parts_lower_bound`` in the global info is the
    size of a greedy clique of points pairwise closer than delta*, no two
    of which can share a part.
    """
    gamma = _off_spectrum(gamma)
    delta_star = _DELTA_FINITE if gamma == 0.0 else max(_DELTA_FINITE, interpolation_threshold(gamma))
    log_star = math.log(delta_star)
    sums = L.sum(axis=1)
    clash = L < log_star
    order = np.lexsort((sums, -clash.sum(axis=1)))
    members, offsets = _first_fit(L, order, log_star + _MERGE_SLACK)
    # parts in the order of their smallest labels, members kept in order
    sizes = np.diff(offsets)
    first = np.minimum.reduceat(ids[members], offsets[:-1])
    members = members[np.argsort(np.repeat(first, sizes), kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(sizes[np.argsort(first, kind="stable")])])
    delta_j = np.array([math.exp(x) for x in _log_deltas(L, members, offsets).tolist()])
    certified = delta_j >= delta_star
    earl_value = _earl_bounds(np.where(certified, delta_j, 1.0))
    dist_bound = gamma * earl_value
    failed = np.flatnonzero(~certified | (dist_bound >= 1.0))
    if failed.size:
        raise NumericDomainError(
            f"part re-verification failed: delta {float(delta_j[failed[0]])} at delta* {delta_star}"
        )
    blank = np.full(delta_j.size, math.nan)
    return Partition(
        members, offsets, (route,) * delta_j.size, np.full(delta_j.size, gamma), delta_j,
        earl_value, dist_bound, blank, blank, np.full(members.size, math.nan),
        global_info={
            "gamma": gamma,
            "delta_star": delta_star,
            "delta_input": math.exp(float(sums.min())),
            "parts_lower_bound": _clique_size(clash),
        },
    )


# ---------------------------------------------------------------------------
# Arc systems and their Carleson squares
# ---------------------------------------------------------------------------

# A split whose uncovered region has a sampled sup of |Theta| at or above
# this is flagged, at the default level count or a given one.
_HEALTH_MARGIN = 0.9

# Points sampled along the squares' inner sides for the uncovered-region sup.
_UNCOVERED_SAMPLES = 4096


@dataclass(frozen=True, eq=False)
class ArcSystem:
    """Arcs of angular mass 1/N in increasing angle, and the Carleson squares over them.

    Arc k is (lo[k], hi[k]]: ``hi`` is its designated level-set endpoint, in
    [0, 2 pi), of level ``level`` (1..N); ``lo`` may be negative for the arc
    wrapping through angle zero.  ``mass`` is the angular mass
    (Phi(hi) - Phi(lo))/(2 pi), checked against 1/N, and ``rate`` is
    |Theta'| at e^{i hi}.  The square over arc k is
    (lo, hi] x [inner_radius, 1], inner_radius = 1 - (hi - lo)/(2 pi),
    anchored at e^{i hi}.  ``truncated`` if arcs near atoms were dropped.
    The arrays are read-only.
    """

    level_count: int
    lo: np.ndarray
    hi: np.ndarray
    level: np.ndarray
    mass: np.ndarray
    rate: np.ndarray
    truncated: bool

    def __post_init__(self) -> None:
        for name in ("lo", "hi", "level", "mass", "rate"):
            getattr(self, name).setflags(write=False)

    def __len__(self) -> int:
        return self.lo.size

    @property
    def inner_radius(self) -> np.ndarray:
        return 1.0 - (self.hi - self.lo) / TWO_PI

    def locate(self, z: np.ndarray) -> np.ndarray:
        """Position of the first arc whose square holds each point, -1 if none.

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
        m = len(self)
        if m == 0 or z.size == 0:
            return np.full(z.size, -1)
        found = np.full(z.size, m)
        lo, width, inner = self.lo, self.hi - self.lo, self.inner_radius
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
    return ArcSystem(
        level_count, lo[~off], hi[~off], level[~off], masses[~off], deriv[~off], truncated
    )


@dataclass(frozen=True)
class UncoveredRegionReport:
    """Sampled sup of |Theta| under the squares, and the number of points sampled."""

    delta: float
    samples: int


def uncovered_region_report(theta: InnerFunction, arcs: ArcSystem) -> UncoveredRegionReport:
    """Max |Theta| over the in-disk boundary of the region under the arcs' squares.

    The boundary consists of the squares' inner sides, about
    ``_UNCOVERED_SAMPLES`` points in all and at least 8 per side, plus the
    radial segments joining adjacent squares of different depths, 8 points
    each; by the maximum principle the sampled max bounds |Theta|
    throughout the region (up to sampling resolution).  |Theta| is read as
    exp(S/2) from the real kernel ``inner._log_modulus_sq``, S = log|Theta|^2,
    with no complex value formed.
    """
    if not len(arcs):
        raise NumericDomainError("arc system is empty")
    lo, hi, inner = arcs.lo, arcs.hi, arcs.inner_radius
    per_side = max(8, math.ceil(_UNCOVERED_SAMPLES / lo.size))
    sides = lo[:, None] + (hi - lo)[:, None] * (np.arange(per_side) + 0.5) / per_side
    # radial joints between adjacent squares of different depth
    r_lo, r_hi = np.minimum(inner, np.roll(inner, -1)), np.maximum(inner, np.roll(inner, -1))
    joint = r_hi - r_lo >= 1e-15
    joints = r_lo[joint, None] + (r_hi - r_lo)[joint, None] * (np.arange(8) + 0.5) / 8
    radii = np.concatenate([np.repeat(inner, per_side), joints.ravel()])
    z = radii * np.exp(1j * np.concatenate([sides.ravel(), np.repeat(hi[joint], 8)]))
    log_mod_sq = _log_modulus_sq(theta._terms, z, _one_minus_modulus_sq(z))
    return UncoveredRegionReport(delta=math.exp(0.5 * float(log_mod_sq.max())), samples=int(z.size))


# ---------------------------------------------------------------------------
# Full square-pipeline decomposition
# ---------------------------------------------------------------------------

def _square_parts(
    seq: PointSequence, arcs: ArcSystem, located: np.ndarray
) -> tuple[np.ndarray, np.ndarray, tuple[str, ...], np.ndarray]:
    """Square sub-parts as member positions in ``seq``, offsets, routes and
    each member's stability margin.

    One lexsort ranks each square's points by id; sub-part m of a level
    holds the m-th point of every square of that level, in sequence order.
    A point's margin is |lambda - e^{i hi}| |Theta'(e^{i hi})| against the
    anchor of its own square, with ``np.hypot`` for the modulus.
    """
    held = np.flatnonzero(located >= 0)
    held = held[np.lexsort((seq.ids[held], located[held]))]
    rank = np.arange(held.size) - np.searchsorted(located[held], located[held])
    level = arcs.level[located[held]]
    order = np.lexsort((held, rank, level))
    held, rank, level = held[order], rank[order], level[order]
    starts = np.flatnonzero((np.diff(level, prepend=-1) != 0) | (np.diff(rank, prepend=-1) != 0))
    gap = seq.z[held] - np.exp(1j * arcs.hi[located[held]])
    margin = np.hypot(gap.real, gap.imag) * arcs.rate[located[held]]
    routes = tuple(f"square:{level[s]}:{rank[s] + 1}" for s in starts.tolist())
    return held, np.append(starts, held.size), routes, margin


def decompose_by_squares(
    theta: InnerFunction,
    seq: PointSequence,
    level_count: int = 8,
    *,
    max_points_per_arc: int = 512,
) -> Partition:
    """Classify points into Carleson-square buckets and an uncovered bucket.

    The squares are those of ``build_arc_system`` at ``level_count`` levels,
    8 when none is given: doubling the count only nests the squares, which
    cannot lower the uncovered region's sup.  Square-bucket points are
    grouped by level and spread into sub-parts
    with at most one point per square: sub-part m of a level takes the
    m-th smallest id of every square of that level.  Each sub-part gets,
    per point, the stability margin |lambda - e^{i hi}| |Theta'(e^{i hi})|
    against its own square's anchor.  The uncovered bucket is routed
    through the interpolation splitter with the region-wide modulus bound
    as its gamma.  If that bound reaches 1 the bucket is emitted
    uncertified and flagged; a smaller level count deepens the squares and
    may lower it.  The joined parts, uncovered and square alike, get exact
    Gram frame bounds from one ``part_frame_bounds`` call.
    """
    if len(seq) == 0:
        raise NumericDomainError("cannot decompose an empty sequence")
    if theta.is_constant:
        raise NumericDomainError("constant inner function: nothing to decompose")
    on_spectrum = np.flatnonzero(spectrum_distance(theta, seq.z) <= 1e-13)
    if on_spectrum.size:
        raise NumericDomainError(f"point {seq.ids[on_spectrum[0]]} lies on the spectrum")

    arcs = build_arc_system(theta, level_count, max_points_per_arc)
    delta = uncovered_region_report(theta, arcs).delta

    flags: list[str] = []
    if arcs.truncated:
        flags.append("square system truncated near the spectrum")
    if delta >= _HEALTH_MARGIN:
        flags.append(
            f"uncovered-region modulus bound {delta:.6f} exceeds the "
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
    pieces = []
    if uncovered.size:
        gamma_used = max(delta, float(np.abs(values[uncovered]).max()))
        if gamma_used >= _GAMMA_CEILING:
            flags.append(
                f"sublevel bound failed at level count {arcs.level_count} (delta = {gamma_used}); "
                "uncovered bucket left uncertified - a smaller level count deepens the squares"
            )
            route = ("uncovered:uncertified",)
            pieces.append(_plain_parts(uncovered, np.array([0, uncovered.size]), route, gamma_used))
        else:
            inner = split_log_distances(
                log_distance_matrix(seq.subset(uncovered)),
                seq.ids[uncovered],
                gamma_used,
                route="uncovered:interp",
            )
            pieces.append(replace(inner, members=uncovered[inner.members]))

    held, offsets, routes, margins = _square_parts(seq, arcs, located)
    pieces.append(_plain_parts(held, offsets, routes, margins=margins))
    counts = np.bincount(located[located >= 0])

    partition = _joined(
        pieces,
        global_info={
            "level_count": arcs.level_count,
            "max_per_square": int(counts.max()) if counts.size else 0,
            "delta_uncovered": delta,
        },
        flags=tuple(flags),
        arcs=arcs,
    )
    if not np.array_equal(np.sort(partition.members, kind="stable"), np.arange(len(seq))):
        raise NumericDomainError("partition failed to cover the sequence exactly")
    low, high = part_frame_bounds(
        theta, z, values, norms_sq, seq.ids, partition.members, partition.offsets
    )
    return replace(partition, lambda_min=low, lambda_max=high)
