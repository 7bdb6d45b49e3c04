"""Shared corpus builders and independent numeric oracles for the tests.

Oracles here deliberately avoid the library's own code paths: quadrature
is plain composite rules on numpy arrays, eigenvalues come from a
self-contained cyclic Jacobi sweep (the library calls LAPACK), Carleson
constants are plain pairwise products (the library sums logs in numpy),
and Blaschke products are re-evaluated from scratch where a cross-check
matters.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from mslab.inner import InnerFunction

TWO_PI = 2.0 * math.pi


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
    for a, m in theta.singular_atoms:
        tau = cmath.exp(1j * a)
        out = out * np.exp(-m * (tau + z) / (tau - z))
    return out


def cell_rate_bound_oracle(theta: InnerFunction, a: float, b: float) -> float:
    """Upper bound of |Theta'| on the arc [a, b], from the law of cosines.

    |e^{it} - r e^{i phi}|^2 = (1 - r)^2 + 4 r sin^2((t - phi)/2) grows with
    the angular distance |t - phi| (taken mod 2*pi), so over the arc it is
    least at phi itself when phi lies on the arc, else at the nearer end.
    """
    def least_sq_dist(r: float, phi: float) -> float:
        offset = (phi - a) % TWO_PI
        if offset <= b - a:
            return (1.0 - r) ** 2
        gap = min(TWO_PI - offset, offset - (b - a))
        return (1.0 - r) ** 2 + 4.0 * r * math.sin(0.5 * gap) ** 2

    total = 0.0
    for eta in theta.blaschke_zeros:
        r = abs(eta)
        total += (1.0 - r * r) / least_sq_dist(r, cmath.phase(eta))
    for angle, mass in theta.singular_atoms:
        total += 2.0 * mass / least_sq_dist(1.0, angle)
    return total


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


def simpson_fixed(f, a: float, b: float, n: int = 4096) -> float:
    """Fixed-grid composite Simpson rule (n even) for a real integrand."""
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.array([f(t) for t in x])
    h = (b - a) / n
    return float(h / 3.0 * (y[0] + y[-1] + 4.0 * np.sum(y[1:-1:2]) + 2.0 * np.sum(y[2:-1:2])))
