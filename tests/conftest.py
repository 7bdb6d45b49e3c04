"""Shared corpus builders and independent numeric oracles for the tests.

Oracles here deliberately avoid the library's own code paths: quadrature
is plain composite rules on numpy arrays, eigenvalues come from a
self-contained cyclic Jacobi sweep (the library calls LAPACK), Carleson
constants are plain pairwise products and pseudohyperbolic and log
distances one Python expression per pair (the library sums logs in
numpy), exponential inner products are taken one pair at a time (the
library forms the whole frequency matrix),
Blaschke products and the boundary rate |Theta'| are re-evaluated factor
by factor where a cross-check matters, kernel norms are exact rationals or
a telescoping sum over the factors with exact weights 1 - |eta|^2 and
1 - |z|^2 (the library sums log1p terms), normalized Gram sections of
Blaschke products are exact rationals rounded once (the library factors
them or assembles them in floats).  The splitter's earlier first-fit loop
over index groups, the square pipeline's earlier membership scan and
grouping loop and the earlier loop over level-set targets are kept at the
end as references, as is the point classifier that ``PointSequence``
replaced: one object per point, and a dict scan for coincident points.
``split_at_gamma`` is not an oracle: it runs the library's splitter core
at a gamma a test sets.  Nor are ``part_table``, ``part_ids``, ``all_ids``
and ``partition_text``: they read a partition's table of arrays, or
render it as the CLI does.  Nor are ``library_gram`` and
``section_bounds``: they read the library's own Gram section and frame
bounds of a sequence, for tests of those.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from mslab.carleson import log_distance_matrix
from mslab.decompose import Partition, split_log_distances
from mslab.errors import ConfigError
from mslab.gram import _sections, part_frame_bounds
from mslab.inner import InnerFunction, normalized_values
from mslab.points import BOUNDARY_TOL, PointSequence

TWO_PI = 2.0 * math.pi


def normalize_angle(theta: float) -> float:
    """An angle reduced to [0, 2*pi), one scalar at a time: the oracles' own copy."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:  # -tiny + 2*pi rounds to 2*pi
        theta -= TWO_PI
    return theta


def random_blaschke(rng: np.random.Generator, degree: int, rmax: float = 0.8) -> InnerFunction:
    """Random Blaschke product with zeros in |z| <= rmax."""
    radii = rmax * np.sqrt(rng.uniform(0.0, 1.0, degree))
    angles = rng.uniform(0.0, TWO_PI, degree)
    zeros = tuple(r * cmath.exp(1j * a) for r, a in zip(radii, angles))
    return InnerFunction(blaschke_zeros=zeros)


def blaschke_values_on_circle(theta: InnerFunction, angles: np.ndarray) -> np.ndarray:
    """Vectorized evaluation of a Blaschke-plus-atoms product on the circle.

    Independent of the library's evaluators.
    """
    return blaschke_values(theta, np.exp(1j * angles))


def blaschke_values(theta: InnerFunction, z: np.ndarray) -> np.ndarray:
    """Blaschke-plus-atoms product at arbitrary points, one factor at a time."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for eta in theta.blaschke_zeros:
        if eta == 0:
            out = out * z
        else:
            out = out * (abs(eta) / eta) * (eta - z) / (1.0 - np.conj(eta) * z)
    # an atom's (tau + z)/(tau - z) is (1 - |z|^2 + 2i Im((z - tau) conj(tau)))/|tau - z|^2
    # with 1 - |z|^2 exact: the quotient itself cancels next to the circle
    gap = np.array([float(1 - Fraction(w.real) ** 2 - Fraction(w.imag) ** 2) for w in z.ravel()])
    for a, m in theta.singular_atoms:
        tau = cmath.exp(1j * a)
        d = z - tau
        cross = d.imag * tau.real - d.real * tau.imag
        out = out * np.exp(-m * (gap.reshape(z.shape) + 2j * cross) / (d.real**2 + d.imag**2))
    return out


def boundary_rate_oracle(theta: InnerFunction, angles: np.ndarray) -> np.ndarray:
    """|Theta'(e^{it})| summed one factor at a time.

    (1 - |eta|^2)/|e^{it} - eta|^2 for each zero and 2m/|e^{it} - tau|^2
    for each atom (m, tau), on the points e^{it}.
    """
    zeta = np.exp(1j * np.asarray(angles, dtype=float))
    out = np.zeros(zeta.shape)
    for eta in theta.blaschke_zeros:
        out = out + (1.0 - abs(eta) ** 2) / np.abs(zeta - eta) ** 2
    for a, m in theta.singular_atoms:
        out = out + 2.0 * m / np.abs(zeta - cmath.exp(1j * a)) ** 2
    return out


def circle_mean(values: np.ndarray) -> complex:
    """Mean over uniform circle samples = integral against normalized measure."""
    return complex(np.mean(values))


def _jacobi_eigenvalues(a: np.ndarray, tol: float = 1e-14, max_sweeps: int = 60) -> np.ndarray:
    """All eigenvalues of a complex Hermitian matrix by cyclic Jacobi.

    Each rotation annihilates one off-diagonal entry; off-diagonal mass
    decreases monotonically and the sweep converges quadratically.
    """
    a = np.array(a, dtype=np.complex128)
    n = a.shape[0]
    if n == 1:
        return np.array([a[0, 0].real])
    scale = max(np.max(np.abs(a)), 1.0)
    off_mask = ~np.eye(n, dtype=bool)
    for _ in range(max_sweeps):
        off = math.sqrt(float(np.sum(np.abs(a[off_mask]) ** 2)))
        if off <= tol * scale * n:
            break
        threshold = off / (n * n)
        for p in range(n - 1):
            for q in range(p + 1, n):
                g = a[p, q]
                if abs(g) <= threshold * 1e-2:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                absg = abs(g)
                phase = g / absg
                tau = (aqq - app) / (2.0 * absg)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                # column update: A <- A J
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - sp.conjugate() * col_q
                a[:, q] = sp * col_p + c * col_q
                # row update: A <- J^H A
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - sp * row_q
                a[q, :] = sp.conjugate() * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
    else:
        raise AssertionError("Jacobi eigenvalue iteration failed to converge")
    return np.sort(np.diag(a).real)


def eig_extremes_oracle(matrix: np.ndarray) -> tuple[float, float]:
    """Cyclic Jacobi as a reference independent of the library's LAPACK path."""
    w = _jacobi_eigenvalues(matrix)
    return float(w[0]), float(w[-1])


def carleson_delta_oracle(values) -> float:
    """Carleson constant by plain pairwise products: no logs, no numpy."""
    best = 1.0
    for i, a in enumerate(values):
        prod = 1.0
        for j, b in enumerate(values):
            if i != j:
                prod *= abs((a - b) / (1.0 - b.conjugate() * a))
        best = min(best, prod)
    return best


def pseudohyperbolic_oracle(a: complex, b: complex) -> float:
    """Pseudohyperbolic distance |(a - b)/(1 - conj(b) a)| of two disk points."""
    return abs((a - b) / (1.0 - b.conjugate() * a))


def log_distance_oracle(values) -> np.ndarray:
    """log rho(a, b) = log |(a - b)/(1 - conj(b) a)| for every pair of disk
    points, one Python expression per entry; 0 on the diagonal."""
    return np.array([
        [0.0 if i == j else math.log(abs((a - b) / (1.0 - b.conjugate() * a)))
         for j, b in enumerate(values)]
        for i, a in enumerate(values)
    ])


def split_at_gamma(seq: PointSequence, gamma: float) -> Partition:
    """The interpolation splitter's core on a disk sequence at a prescribed
    gamma, from its log-distance matrix; the frame bounds stay NaN."""
    return split_log_distances(log_distance_matrix(seq), seq.ids, gamma)


def library_gram(theta: InnerFunction, seq: PointSequence) -> np.ndarray:
    """The library's normalized Gram section of ``seq``: its ``normalized_values``
    and one stack of one from ``gram._sections``."""
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    return _sections(seq.z[None], values[None], norms[None], [seq.ids])[0]


def section_bounds(theta: InnerFunction, seq: PointSequence) -> tuple[float, float]:
    """(lambda_min, lambda_max) of ``seq`` as one part of ``part_frame_bounds``,
    by the route it picks: factored for more points than an atom-free
    Theta's degree, else assembled."""
    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    n = len(seq)
    (low,), (high,) = part_frame_bounds(
        theta, seq.z, values, norms, seq.ids, np.arange(n), np.array([0, n])
    )
    return float(low), float(high)


def part_table(parts: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Parts given as position arrays, as member positions part after part and offsets."""
    members = np.concatenate([np.zeros(0, dtype=np.int64), *parts])
    return members, np.cumsum([0] + [len(idx) for idx in parts])


def part_ids(partition: Partition, ids) -> list[tuple[int, ...]]:
    """Each part's point labels, ``ids`` being the labels of the split points."""
    return [tuple(np.asarray(ids)[p].tolist()) for p in partition.parts]


def all_ids(partition: Partition, ids) -> tuple[int, ...]:
    """The labels of every part's points, sorted."""
    return tuple(sorted(np.asarray(ids)[partition.members].tolist()))


def partition_text(partition: Partition, ids) -> str:
    """A partition's report object, as the CLI renders it."""
    from mslab import cli

    return cli._json_object(cli._partition_json(partition, np.asarray(ids)))


def earl_oracle(delta: float) -> float:
    """phi(delta) = (2 - delta^2 + 2 sqrt(1 - delta^2)) / delta^2, written out."""
    return (2.0 - delta * delta + 2.0 * math.sqrt(1.0 - delta * delta)) / (delta * delta)


def composite_gauss_legendre(f, a: float, b: float, panels: int, order: int = 8) -> complex:
    """Composite Gauss-Legendre quadrature for a complex-valued integrand."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    h = (b - a) / panels
    total = 0.0 + 0.0j
    for k in range(panels):
        lo = a + k * h
        x = lo + 0.5 * h * (nodes + 1.0)
        total += 0.5 * h * np.sum(weights * f(x))
    return total


# 2 pi - TWO_PI: with it, t - 2 pi is formed to well below an ulp of the result.
_TWO_PI_LO = 2.4492935982947064e-16


def arc_mass_oracle(theta: InnerFunction, lo: float, hi: float) -> float:
    """Integral of ``boundary_rate_oracle``/(2 pi) over the arc [lo, hi], lo >= -2 pi.

    Composite Gauss-Legendre on cells that halve towards every zero's and
    atom's angle (down to 1e-12), so a zero next to the circle is resolved.
    Above pi the rate is taken at v = t - 2 pi: nodes near t = 2 pi round to
    a grid of 8.9e-16, which next to a zero 1e-9 from the circle at angle 0
    put the integral some 1e-8 off, while v keeps every node where the rule
    puts it.
    """
    spectrum = [cmath.phase(z) for z in theta.blaschke_zeros] + [a for a, _ in theta.singular_atoms]
    grading = 1e-12 * 2.0 ** np.arange(45)
    total = 0.0
    for a, b in ((lo, min(hi, math.pi)), (max(lo, math.pi), hi)):
        if a >= b:
            continue
        if a >= math.pi:
            a, b = (a - TWO_PI) - _TWO_PI_LO, (b - TWO_PI) - _TWO_PI_LO
        cuts = [a, b]
        for c in spectrum:
            for centre in (c - TWO_PI, c, c + TWO_PI):
                cuts += [centre, *(centre - grading), *(centre + grading)]
        edges = np.unique(np.clip(cuts, a, b))
        for x, y in zip(edges[:-1], edges[1:]):
            total += composite_gauss_legendre(
                lambda t: boundary_rate_oracle(theta, t), x, y, panels=2
            ).real
    return total / TWO_PI


def exp_inner_oracle(a: float, lam: complex, mu: complex) -> complex:
    """<e_lam, e_mu> on (-a, a): 2 sin(a d)/d with d = lam - conj(mu), one
    pair at a time, and its series 2a (1 - w^2/6 + w^4/120) in w = a d
    where |w| < 1e-4."""
    d = complex(lam) - complex(mu).conjugate()
    w = a * d
    if abs(w) < 1e-4:
        w2 = w * w
        return 2.0 * a * (1.0 - w2 / 6.0 + w2 * w2 / 120.0)
    return 2.0 * cmath.sin(w) / d


def simpson_fixed(f, a: float, b: float, n: int = 4096) -> float:
    """Fixed-grid composite Simpson rule (n even) for a real integrand on arrays."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = f(x)
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))


def modulus_sq_exact(zeros, z: complex) -> Fraction:
    """|B(z)|^2 in exact rational arithmetic, B the Blaschke product.

    Each |b_eta(z)|^2 = |eta - z|^2/|1 - conj(eta) z|^2 (|z|^2 when eta = 0)
    is rational in the binary fractions that make up the floats eta and z.
    """
    x, y = Fraction(z.real), Fraction(z.imag)
    mod_sq = Fraction(1)
    for eta in zeros:
        a, b = Fraction(eta.real), Fraction(eta.imag)
        if a == 0 and b == 0:
            mod_sq *= x * x + y * y
        else:
            num = (a - x) ** 2 + (b - y) ** 2
            den = (1 - a * x - b * y) ** 2 + (a * y - b * x) ** 2
            mod_sq *= num / den
    return mod_sq


def kernel_norm_sq_exact(zeros, z: complex) -> Fraction:
    """(1 - |B(z)|^2)/(1 - |z|^2) in exact rational arithmetic, B the Blaschke product."""
    x, y = Fraction(z.real), Fraction(z.imag)
    return (1 - modulus_sq_exact(zeros, z)) / (1 - x * x - y * y)


def boundary_rate_exact(zeros, zeta: complex) -> Fraction:
    """sum (1 - |eta|^2)/|zeta - eta|^2 over the zeros, in exact rational arithmetic."""
    x, y = Fraction(zeta.real), Fraction(zeta.imag)
    total = Fraction(0)
    for eta in zeros:
        a, b = Fraction(eta.real), Fraction(eta.imag)
        total += (1 - a * a - b * b) / ((x - a) ** 2 + (y - b) ** 2)
    return total


def _rational(z: complex) -> tuple[Fraction, Fraction]:
    return Fraction(z.real), Fraction(z.imag)


def _times(p, q):
    return p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0]


def _over(p, q):
    d = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / d, (p[1] * q[0] - p[0] * q[1]) / d


def _round_over_root(x: Fraction, y: Fraction, guard: int = 128) -> float:
    """x/sqrt(y) for rationals x and y > 0, rounded once to a float.

    x/sqrt(p/q) = x sqrt(pq)/p, and isqrt of pq 4^guard gives sqrt(pq) to
    guard bits below the ones place: far beyond double precision.
    """
    p, q = y.numerator, y.denominator
    root = math.isqrt(p * q << (2 * guard))
    return float(x * Fraction(root, p << guard))


def normalized_gram_exact(zeros, z) -> np.ndarray:
    """Normalized Gram section of a Blaschke product's kernels at interior points z.

        G_ij = K_ij/sqrt(K_ii K_jj),   K_ij = (1 - conj(B(z_j)) B(z_i))/(1 - conj(z_j) z_i),

    in exact rational arithmetic, each entry rounded once.  B is taken as
    prod (eta - z)/(1 - conj(eta) z): the unimodular constants of the
    factors cancel in conj(B(z_j)) B(z_i).
    """
    points = [_rational(w) for w in z]
    b_values = []
    for w in points:
        b = (Fraction(1), Fraction(0))
        for eta in zeros:
            a = _rational(eta)
            one_minus = (1 - (a[0] * w[0] + a[1] * w[1]), a[1] * w[0] - a[0] * w[1])
            b = _times(b, _over((a[0] - w[0], a[1] - w[1]), one_minus))
        b_values.append(b)
    n = len(points)
    k = [[None] * n for _ in range(n)]
    for i, (wi, bi) in enumerate(zip(points, b_values)):
        for j, (wj, bj) in enumerate(zip(points, b_values)):
            cb = _times((bj[0], -bj[1]), bi)
            cz = _times((wj[0], -wj[1]), wi)
            k[i][j] = _over((1 - cb[0], -cb[1]), (1 - cz[0], -cz[1]))
    g = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            scale = k[i][i][0] * k[j][j][0]
            g[i, j] = complex(
                _round_over_root(k[i][j][0], scale), _round_over_root(k[i][j][1], scale)
            )
    return g


def kernel_norm_sq_oracle(theta: InnerFunction, seq: PointSequence) -> np.ndarray:
    """Squared kernel norms by telescoping over the factors of Theta.

        1 - prod_k p_k = sum_k (1 - p_k) prod_{j<k} p_j,   p_k = |factor_k(z)|^2,

    and each (1 - p_k)/(1 - |z|^2) has a closed form with no cancellation:
    (1 - |eta|^2)/|1 - conj(eta) z|^2 for a zero, and (1 - e^{-c g})/g with
    c = 2m/|tau - z|^2, g = 1 - |z|^2 for an atom, with g and each
    1 - |eta|^2 rounded once from their exact rational values.  At boundary
    points (g = 0) the sum is the angular derivative |Theta'|.
    """
    z = seq.z
    gap = np.array([
        0.0 if on_circle else float(1 - Fraction(w.real) ** 2 - Fraction(w.imag) ** 2)
        for on_circle, w in zip(seq.boundary.tolist(), z.tolist())
    ])
    total = np.zeros(z.size)
    before = np.ones(z.size)  # prod_{j<k} p_j
    for eta in theta.blaschke_zeros:
        weight = float(1 - Fraction(eta.real) ** 2 - Fraction(eta.imag) ** 2)
        total += before * weight / np.abs(1.0 - np.conj(eta) * z) ** 2
        factor = z if eta == 0 else (eta - z) / (1.0 - np.conj(eta) * z)
        before = before * np.abs(factor) ** 2
    for a, m in theta.singular_atoms:
        c = 2.0 * m / np.abs(cmath.exp(1j * a) - z) ** 2
        x = c * gap
        share = np.ones(z.size)  # (1 - e^{-x})/x, 1 at x = 0
        np.divide(-np.expm1(-x), x, out=share, where=x > 0.0)
        total += before * c * share
        before = before * np.exp(-x)
    return total


def gram_oracle(theta: InnerFunction, seq: PointSequence) -> np.ndarray:
    """Normalized Gram section from the closed kernel formula and this module's evaluators."""
    z = seq.z
    v = blaschke_values(theta, z)
    norms = kernel_norm_sq_oracle(theta, seq)
    num = 1.0 - np.conj(v)[None, :] * v[:, None]
    den = 1.0 - np.conj(z)[None, :] * z[:, None]
    k = np.diag(norms).astype(complex)
    off = ~np.eye(z.size, dtype=bool)
    np.divide(num, den, out=k, where=off)
    return k / np.sqrt(np.outer(norms, norms))


# ---------------------------------------------------------------------------
# Reference loops of the interpolation splitter
# ---------------------------------------------------------------------------
# The splitter's first-fit merge as it was written for index groups, with a
# clash pre-filter and live/owner bookkeeping; kept verbatim so that tests
# can check the one-point version takes every decision alike.

def first_fit_reference(L: np.ndarray, groups: list[np.ndarray], log_floor: float) -> list[np.ndarray]:
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


# ---------------------------------------------------------------------------
# Reference loops of the square pipeline
# ---------------------------------------------------------------------------
# Square membership and the grouping of square points into sub-parts as they
# were written with one square object per arc: a linear scan of each square's
# own rule, and bucket dicts with an index-matched anchor Clark family per
# sub-part; kept so that tests can check the array versions take every
# decision alike.

def square_contains_reference(lo: float, hi: float, z: complex) -> bool:
    """Whether the square over the arc (lo, hi] holds z: 1 - (hi - lo)/(2 pi) <= |z| <= 1."""
    w = complex(z)
    r = abs(w)
    if r < 1.0 - (hi - lo) / TWO_PI or r > 1.0 + 1e-14:
        return False
    if hi - lo >= TWO_PI - 1e-12:
        return True
    # a point within angle tolerance of lo belongs to the previous arc
    d = normalize_angle(cmath.phase(w) - lo)
    return 1e-12 < d <= (hi - lo) + 1e-12


def locate_reference(arcs, z) -> np.ndarray:
    """Position of the first arc whose square holds each point, by a linear scan; -1 if none.

    ``arcs`` is anything with arrays ``lo`` and ``hi`` of the arcs' ends.
    """
    ends = list(zip(np.asarray(arcs.lo).tolist(), np.asarray(arcs.hi).tolist()))
    return np.array(
        [
            next((k for k, (lo, hi) in enumerate(ends) if square_contains_reference(lo, hi, w)), -1)
            for w in z
        ],
        dtype=int,
    )


def assert_same_arc_system(got, want) -> None:
    """Two arc systems hold equal fields: N, the truncation flag and every array, bit for bit."""
    assert (got.level_count, got.truncated) == (want.level_count, want.truncated)
    for name in ("lo", "hi", "level", "mass", "rate"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def square_parts_reference(
    seq: PointSequence, arcs, located: np.ndarray
) -> list[tuple[np.ndarray, str, tuple[float, ...]]]:
    """Square sub-parts as (positions in seq, route, stability margins).

    Points are bucketed by level and square, each square's ids sorted;
    sub-part m of a level takes the m-th id of every square, and its
    margins are |lambda - e^{i hi}| |Theta'(e^{i hi})| against the anchor
    of each point's own square, matched by index.
    """
    bucket: dict[int, dict[int, list[int]]] = {}  # level -> arc index -> ids
    for k, pid in enumerate(seq.ids.tolist()):
        if located[k] >= 0:
            arc_index = int(located[k])
            bucket.setdefault(int(arcs.level[arc_index]), {}).setdefault(arc_index, []).append(pid)
    position = {pid: k for k, pid in enumerate(seq.ids.tolist())}
    out = []
    for level in sorted(bucket):
        per_square = bucket[level]
        for ids in per_square.values():
            ids.sort()
        depth = max(len(ids) for ids in per_square.values())
        for m in range(depth):
            owner: dict[int, int] = {}  # id -> arc index
            for arc_index in sorted(per_square):
                ids = per_square[arc_index]
                if m < len(ids):
                    owner[ids[m]] = arc_index
            part_seq = seq.subset(np.flatnonzero(np.isin(seq.ids, list(owner))))
            anchors = []
            derivs = []
            for pid in part_seq.ids.tolist():
                anchors.append(normalize_angle(float(arcs.hi[owner[pid]])))
                derivs.append(float(arcs.rate[owner[pid]]))
            gap = part_seq.z - np.exp(1j * np.array(anchors))
            margins = (np.hypot(gap.real, gap.imag) * np.array(derivs)).tolist()
            out.append(
                (
                    np.array([position[pid] for pid in part_seq.ids.tolist()]),
                    f"square:{level}:{m + 1}",
                    tuple(margins),
                )
            )
    return out


# ---------------------------------------------------------------------------
# Reference loop of the level-set targets
# ---------------------------------------------------------------------------
# The values of Phi that ``clark.level_sets`` solves for, as they were built
# one (arc, level) pair at a time: a closed count on the full circle and a
# step-by-step walk up to the arc's top between atoms; kept so that tests
# can check the array version builds every target and cap flag alike.

def branch_targets_reference(
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


def level_targets_reference(
    v0, v1, phases, full_circle: bool, max_points_per_arc: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[bool]]:
    """Targets of every level on every arc, arc by arc and level by level, with
    each target's arc and level, and per level whether some arc hit the cap."""
    targets: list[float] = []
    arc: list[int] = []
    level: list[int] = []
    capped = [False] * len(phases)
    for j, (lo, hi) in enumerate(zip(np.asarray(v0).tolist(), np.asarray(v1).tolist())):
        for i, phase in enumerate(np.asarray(phases).tolist()):
            found, cap = branch_targets_reference(lo, hi, phase, full_circle, max_points_per_arc)
            capped[i] = capped[i] or cap
            targets += found
            arc += [j] * len(found)
            level += [i] * len(found)
    return np.array(targets, dtype=float), np.array(arc, dtype=int), np.array(level, dtype=int), capped


# ---------------------------------------------------------------------------
# Reference point classifier
# ---------------------------------------------------------------------------
# Points as they were held before ``PointSequence`` became arrays: one frozen
# object per point, classified one at a time in Python, and a dict scan for
# the first coincident pair; kept so that tests can check the array
# constructors classify every point alike, to the bit.

@dataclass(frozen=True)
class UnitPointReference:
    """A point of the closed disk; ``angle`` is None inside, canonical on the circle."""

    value: complex
    angle: float | None = None

    @staticmethod
    def boundary(angle: float) -> "UnitPointReference":
        a = normalize_angle(float(angle))
        return UnitPointReference(cmath.exp(1j * a), a)

    @staticmethod
    def from_complex(z: complex) -> "UnitPointReference":
        z = complex(z)
        r = abs(z)
        if r < 1.0 - BOUNDARY_TOL:
            return UnitPointReference(z, None)
        if r <= 1.0 + BOUNDARY_TOL:
            return UnitPointReference.boundary(cmath.phase(z))
        raise ConfigError(f"point lies outside the closed disk: |z| = {r!r}")


def first_coincidence_reference(values, ids) -> tuple[int, int] | None:
    """(earlier id, id) of the first point whose value occurred earlier, by a dict scan."""
    seen: dict[complex, int] = {}
    for pid, w in zip(ids, values):
        key = complex(w)
        if key in seen:
            return seen[key], pid
        seen[key] = pid
    return None
