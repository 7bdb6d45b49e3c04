"""Finite Gram sections, extremal eigenvalues, and Hankel lower bounds.

The Gram matrix of normalized kernels,

    G_ij = k_{l_j}(l_i) / (||k_{l_i}|| * ||k_{l_j}||),

is Hermitian with unit diagonal and positive semidefinite; its extremal
eigenvalues are the finite-section surrogates of the Bessel constant
(lambda_max) and the lower Riesz bound (lambda_min).  A finite section can
only certify necessary conditions for the corresponding infinite
statements: verdicts below carry the section size for that reason.

Entries are assembled from the closed kernel formula, never by quadrature.
Eigenvalues come from LAPACK's Hermitian solver (``np.linalg.eigvalsh``)
for every section size.

``hankel_distance_lb`` bounds dist(Theta * conj(B_L), H^inf) from below by
the largest singular value of a finite Hankel section of the symbol's
negative Fourier coefficients (Nehari's theorem makes the full Hankel norm
equal to the distance; finite sections are dominated by it and increase
with the section size).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericDomainError
from .inner import InnerFunction, eval_inner, normalized_values
from .points import ANGLE_TOL, PointSequence, angle_distance

_HERMITIAN_TOL = 1e-12
_HANKEL_GRID_CAP = 1 << 16


@dataclass(frozen=True)
class GramMatrix:
    """Hermitian unit-diagonal Gram section with its point labels."""

    entries: np.ndarray
    point_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NumericDomainError("Gram matrix must be square")
        if a.shape[0] != len(self.point_ids):
            raise NumericDomainError("Gram size and id count disagree")
        dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
        if dev > _HERMITIAN_TOL:
            raise NumericDomainError(f"Gram matrix not Hermitian: deviation {dev!r}")
        if a.size and np.max(np.abs(np.diag(a) - 1.0)) > _HERMITIAN_TOL:
            raise NumericDomainError("Gram matrix must have unit diagonal")
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class FrameBounds:
    """Extremal eigenvalues of one finite section."""

    lambda_min: float
    lambda_max: float
    n: int

    def to_json_dict(self, verdict: str | None = None) -> dict:
        out = {"lambda_min": self.lambda_min, "lambda_max": self.lambda_max, "n": self.n}
        if verdict is not None:
            out["verdict"] = verdict
        return out


def gram(theta: InnerFunction, seq: PointSequence) -> GramMatrix:
    """Normalized-kernel Gram section for a sequence off the spectrum.

    Each point's Theta value and kernel norm is computed once; entries are
    the exact rational expressions in those values.
    """
    if len(seq) == 0:
        raise NumericDomainError("empty point sequence")
    vals, norms2 = normalized_values(theta, seq.points, seq.ids)
    for pid, ns in zip(seq.ids, norms2):
        if not ns > 0.0 or math.isinf(ns):
            raise NumericDomainError(
                f"point {pid} has unusable kernel norm squared {ns!r}"
            )
    n = len(seq)
    pts = [p.value for p in seq.points]
    scale = [1.0 / math.sqrt(ns) for ns in norms2]
    g = np.eye(n, dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1, n):
            denom = 1.0 - pts[j].conjugate() * pts[i]
            if abs(denom) < 1e-14:
                raise NumericDomainError(
                    f"points {seq.ids[i]} and {seq.ids[j]} are numerically inseparable"
                )
            num = 1.0 - vals[j].conjugate() * vals[i]
            g[i, j] = (num / denom) * scale[i] * scale[j]
            g[j, i] = g[i, j].conjugate()
    return GramMatrix(g, seq.ids)


# ---------------------------------------------------------------------------
# Hermitian extremal eigenvalues
# ---------------------------------------------------------------------------

def extremal_eigs(g: GramMatrix | np.ndarray) -> FrameBounds:
    """Smallest and largest eigenvalue of a Hermitian section (LAPACK).

    Tiny negative lambda_min from roundoff on a PSD Gram is clamped to 0.
    """
    if isinstance(g, GramMatrix):
        a = g.entries  # validated Hermitian on construction
    else:
        a = np.asarray(g, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NumericDomainError("eigenvalue input must be a square matrix")
        dev = np.max(np.abs(a - a.conj().T)) if a.size else 0.0
        if dev > _HERMITIAN_TOL * max(1.0, float(np.max(np.abs(a))) if a.size else 1.0):
            raise NumericDomainError(f"matrix not Hermitian: deviation {dev!r}")
    if not np.isfinite(a).all():
        raise NumericDomainError("eigenvalue input has non-finite entries")
    eigs = np.linalg.eigvalsh(a)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    if isinstance(g, GramMatrix) and -1e-10 < lam_min < 0.0:
        lam_min = 0.0
    return FrameBounds(lambda_min=lam_min, lambda_max=lam_max, n=a.shape[0])


def bessel_constant_estimate(theta: InnerFunction, seq: PointSequence) -> float:
    """lambda_max of the finite Gram section.

    A certified lower bound for the true Bessel constant of the infinite
    family; monotone nondecreasing as the section grows.
    """
    return extremal_eigs(gram(theta, seq)).lambda_max


def riesz_verdict(
    theta: InnerFunction, seq: PointSequence, floor: float
) -> tuple[str, FrameBounds]:
    """Finite-section Riesz certificate at the given eigenvalue floor.

    "certified_riesz" means lambda_min of this section clears the floor; a
    necessary condition for the infinite statement, never sufficient, which
    is why the bounds carry the section size.
    """
    fb = extremal_eigs(gram(theta, seq))
    verdict = "certified_riesz" if fb.lambda_min >= floor else "indeterminate"
    return verdict, fb


# ---------------------------------------------------------------------------
# Hankel lower bound for dist(Theta * conj(B_L), H^inf)
# ---------------------------------------------------------------------------

def hankel_distance_lb(theta: InnerFunction, seq: PointSequence, n: int) -> float:
    """Lower bound for the sup-norm distance of Theta*conj(B_L) to H^inf.

    Samples u = Theta * conj(B_L) on a uniform grid of 2^k >= 8n boundary
    nodes (k capped at 16; beyond that the section reuses the densest
    grid, with geometrically small aliasing since u is smooth off the
    spectrum), extracts the negative Fourier coefficients by the discrete
    transform, and returns the largest singular value of the n-by-n Hankel
    section H_jk = u_hat(-j-k+1).

    The symbol is unimodular on the circle, so the distance is at most 1;
    a returned bound at or above 1 - 1e-6 witnesses that the distance is
    essentially 1 (the left-invertibility criterion fails).
    """
    if n < 1:
        raise NumericDomainError("section size must be at least 1")
    for pid, p in seq:
        if p.is_boundary:
            raise NumericDomainError(f"point {pid} must be interior for the Blaschke symbol")
    b_prod = InnerFunction(blaschke_zeros=seq.values)
    size = 8
    while size < 8 * n and size < _HANKEL_GRID_CAP:
        size *= 2

    offset = 0.0
    if theta.singular_atoms:
        # never sample exactly on an atom
        node_angles = [2.0 * math.pi * j / size for j in range(size)]
        for a, _ in theta.singular_atoms:
            if any(angle_distance(a, t) <= 1e3 * ANGLE_TOL for t in node_angles):
                offset = math.pi / size
                break

    u = np.empty(size, dtype=np.complex128)
    for j in range(size):
        zeta = cmath.exp(1j * (2.0 * math.pi * j / size + offset))
        u[j] = eval_inner(theta, zeta) * eval_inner(b_prod, zeta).conjugate()
    coeffs = np.fft.fft(u) / size  # c_m = u_hat(m) for the offset grid
    needed = 2 * n - 1
    neg = np.empty(needed, dtype=np.complex128)
    for m in range(1, needed + 1):
        c = coeffs[(size - m) % size]
        if offset != 0.0:
            c *= cmath.exp(1j * m * offset)
        neg[m - 1] = c
    h = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        for k in range(n):
            h[j, k] = neg[j + k]  # u_hat(-(j+k+1)) with 0-based j, k
    return float(np.linalg.norm(h, 2))  # sigma_max
