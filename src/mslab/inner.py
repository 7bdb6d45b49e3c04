"""Inner functions with finite data, and the kernel geometry they induce.

An inner function is represented here by a finite Blaschke zero list plus a
finite list of boundary atoms for the singular part:

    Theta(z) = prod_n b_{z_n}(z) * exp(-sum_k m_k (tau_k + z)/(tau_k - z)),

with the single Blaschke factor

    b_eta(z) = (|eta|/eta) * (eta - z)/(1 - conj(eta) z),      b_0(z) := z.

Every quantity below (point evaluation, reproducing kernel, kernel norms,
boundary derivatives) is then an exact finite expression in this data.  The
spectrum of such a representation is the finite set of zeros and atom
positions; evaluation on a boundary atom is refused rather than regularized.

The reproducing kernel of the associated model subspace is

    k_lambda(z) = (1 - conj(Theta(lambda)) Theta(z)) / (1 - conj(lambda) z),

with squared norm (1 - |Theta(lambda)|^2)/(1 - |lambda|^2) at interior
points, and |Theta'(zeta)| at boundary points, where

    |Theta'(zeta)| = sum_n (1 - |z_n|^2)/|zeta - z_n|^2
                   + 2 sum_k m_k / |zeta - tau_k|^2

is also the angular derivative of arg Theta(e^{i theta}).

The interior norm is not taken from the subtraction 1 - |Theta|^2, which
loses digits as |lambda| -> 1.  Each factor gives its share exactly:

    1 - |b_eta(z)|^2 = (1 - |eta|^2)(1 - |z|^2)/|1 - conj(eta) z|^2,
    -log|exp(-s(z))|^2 = 2 sum_k m_k (1 - |z|^2)/|tau_k - z|^2,

so log|Theta|^2 is a sum S of log1p terms and the squared norm is
-expm1(S)/(1 - |z|^2), with the factor 1 - |z|^2 cancelling exactly.  That
factor is itself computed as 1 - x^2 - y^2 with exact products and sums,
not from the rounded |z|.

``eval_points`` evaluates Theta and |Theta'| over an array of points in
one numpy pass (points against zeros, points against atoms); the layers
that evaluate a batch (level sets, square geometry) share it.
``boundary_argument`` gives, in the same way, the continuous argument Phi
of Theta(e^{it}) on an atom-free boundary arc in closed form.
``normalized_values`` gives the Theta values and kernel norms of a point
sequence as arrays from one such pass, for Gram sections and the
decomposition drivers.  ``eval_inner``, ``boundary_derivative``,
``kernel_norm_sq`` and ``kernel`` remain the scalar entry points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, NumericDomainError, OnSpectrumError
from .points import ANGLE_TOL, TWO_PI, UnitPoint, angle_distance, normalize_angle

# Guard for the kernel's diagonal singularity 1 - conj(lambda) z = 0.
_DIAG_GUARD = 1e-14

# |z| within this distance of 1 counts as a boundary point for evaluation.
_BOUNDARY_EVAL_TOL = 1e-9

# Entries per block of a points-by-zeros array: bounds the temporaries.
_BLOCK_ENTRIES = 1 << 15

# Interior points with |z| at or above this take the boundary kernel norm.
_NORM_EDGE = 1.0 - 1e-12


@dataclass(frozen=True)
class InnerFunction:
    """Finite Blaschke zeros plus an atomic singular part.

    ``blaschke_zeros``: interior zeros, multiplicities by repetition.
    ``singular_atoms``: (angle, mass) pairs, masses positive, angles
    pairwise distinct.
    """

    blaschke_zeros: tuple[complex, ...] = field(default_factory=tuple)
    singular_atoms: tuple[tuple[float, float], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        try:
            zeros = tuple(complex(z) for z in self.blaschke_zeros)
            atoms = tuple((float(a), float(m)) for a, m in self.singular_atoms)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"inner function data must be numeric: {exc}") from exc
        for z in zeros:
            if not abs(z) < 1.0:  # also refuses NaN
                raise ConfigError(f"Blaschke zero must be strictly interior, got {z!r}")
        for a, m in atoms:
            if not math.isfinite(a):
                raise ConfigError(f"atom angle must be finite, got {a!r}")
            if not 0.0 < m < math.inf:
                raise ConfigError(f"atom mass must be positive and finite, got {m!r}")
        atoms = tuple((normalize_angle(a), m) for a, m in atoms)
        for i in range(len(atoms)):
            for j in range(i + 1, len(atoms)):
                if angle_distance(atoms[i][0], atoms[j][0]) <= ANGLE_TOL:
                    raise ConfigError("atom angles must be pairwise distinct")
        object.__setattr__(self, "blaschke_zeros", zeros)
        object.__setattr__(self, "singular_atoms", atoms)

    @property
    def degree(self) -> int:
        """Number of Blaschke zeros, with multiplicity."""
        return len(self.blaschke_zeros)

    @property
    def is_constant(self) -> bool:
        return not self.blaschke_zeros and not self.singular_atoms

    @cached_property
    def _argument_terms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        """Data of the nonzero zeros that ``boundary_argument`` reads on every call.

        Moduli r, angles phi, depths 1 - r (from the exact 1 - r^2) and the
        constant sum(pi - phi).
        """
        zeros = np.array(self.blaschke_zeros, dtype=complex)
        nonzero = zeros[zeros != 0]
        r, phi = np.abs(nonzero), np.angle(nonzero)
        depth = _one_minus_modulus_sq(nonzero) / (1.0 + r)
        return r, phi, depth, math.fsum(math.pi - phi)

    def spectrum_points(self) -> tuple[complex, ...]:
        """Zeros and atom positions as points of the closed disk."""
        return self.blaschke_zeros + tuple(
            cmath.exp(1j * a) for a, _ in self.singular_atoms
        )

    def to_json_dict(self) -> dict:
        return {
            "blaschke_zeros": [[z.real, z.imag] for z in self.blaschke_zeros],
            "singular_atoms": [
                {"angle": a, "mass": m} for a, m in self.singular_atoms
            ],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "InnerFunction":
        if not isinstance(data, dict):
            raise ConfigError("inner function data must be an object")
        unknown = set(data) - {"blaschke_zeros", "singular_atoms"}
        if unknown:
            raise ConfigError(f"unknown inner function keys: {sorted(unknown)}")
        try:
            zeros = [complex(re, im) for re, im in data.get("blaschke_zeros", [])]
            atoms = [(d["angle"], d["mass"]) for d in data.get("singular_atoms", [])]
        except (TypeError, ValueError, KeyError) as exc:
            raise ConfigError(
                "zeros must be [re, im] number pairs and atoms {\"angle\", \"mass\"} "
                f"objects: {exc!r}"
            ) from exc
        return InnerFunction(tuple(zeros), tuple(atoms))


def _as_complex(z: complex | UnitPoint) -> complex:
    return z.value if isinstance(z, UnitPoint) else complex(z)


def _blaschke_factor(eta: complex, z: complex) -> complex:
    if eta == 0:
        return z
    return (abs(eta) / eta) * (eta - z) / (1.0 - eta.conjugate() * z)


def _check_off_atoms(theta: InnerFunction, z: complex) -> None:
    if not theta.singular_atoms:
        return
    if abs(abs(z) - 1.0) > _BOUNDARY_EVAL_TOL:
        return
    ang = cmath.phase(z)
    for a, _ in theta.singular_atoms:
        if angle_distance(ang, a) <= ANGLE_TOL:
            raise OnSpectrumError(
                f"evaluation at singular atom (angle {a!r}) is on the spectrum"
            )


def eval_inner(theta: InnerFunction, z: complex | UnitPoint) -> complex:
    """Evaluate the inner function at a point off its boundary spectrum.

    Interior points always work; boundary points must avoid the atoms.
    """
    w = _as_complex(z)
    _check_off_atoms(theta, w)
    result = complex(1.0)
    for eta in theta.blaschke_zeros:
        result *= _blaschke_factor(eta, w)
    if theta.singular_atoms:
        s = complex(0.0)
        for a, m in theta.singular_atoms:
            tau = cmath.exp(1j * a)
            s += m * (tau + w) / (tau - w)
        result *= cmath.exp(-s)
    return result


def log_derivative(theta: InnerFunction, z: complex | UnitPoint) -> complex:
    """Theta'(z)/Theta(z), from the factorwise logarithmic derivative.

    Valid off the zeros and atoms; combined with ``eval_inner`` this gives
    the analytic derivative anywhere off the spectrum.
    """
    w = _as_complex(z)
    _check_off_atoms(theta, w)
    total = complex(0.0)
    for eta in theta.blaschke_zeros:
        denom = (eta - w) * (1.0 - eta.conjugate() * w)
        if denom == 0:
            raise OnSpectrumError(f"derivative requested at Blaschke zero {eta!r}")
        total += (abs(eta) ** 2 - 1.0) / denom
    for a, m in theta.singular_atoms:
        tau = cmath.exp(1j * a)
        total += -2.0 * m * tau / (tau - w) ** 2
    return total


def derivative(theta: InnerFunction, z: complex | UnitPoint) -> complex:
    """Analytic derivative Theta'(z), off the spectrum."""
    w = _as_complex(z)
    return eval_inner(theta, w) * log_derivative(theta, w)


def boundary_derivative(theta: InnerFunction, zeta: complex | UnitPoint) -> float:
    """Angular derivative |Theta'| at a boundary point.

        |Theta'(zeta)| = sum_n (1-|z_n|^2)/|zeta - z_n|^2
                       + 2 sum_k m_k / |zeta - tau_k|^2

    Returns +inf when zeta coincides with an atom.
    """
    w = _as_complex(zeta)
    if abs(abs(w) - 1.0) > _BOUNDARY_EVAL_TOL:
        raise NumericDomainError(
            f"boundary derivative needs a boundary point, got |z| = {abs(w)!r}"
        )
    ang = cmath.phase(w)
    total = 0.0
    for eta in theta.blaschke_zeros:
        total += (1.0 - abs(eta) ** 2) / abs(w - eta) ** 2
    for a, m in theta.singular_atoms:
        if angle_distance(ang, a) <= ANGLE_TOL:
            return math.inf
        tau = cmath.exp(1j * a)
        total += 2.0 * m / abs(w - tau) ** 2
    return total


def _row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """Row slices of a rows-by-cols array with at most _BLOCK_ENTRIES entries each."""
    step = max(1, _BLOCK_ENTRIES // max(1, cols))
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _atom_arrays(theta: InnerFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    angles = np.array([a for a, _ in theta.singular_atoms], dtype=float)
    masses = np.array([m for _, m in theta.singular_atoms], dtype=float)
    return angles, np.exp(1j * angles), masses


def eval_points(
    theta: InnerFunction, z: np.ndarray, ids: Sequence[int] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Theta(z) and the boundary rate |Theta'| over a 1-D array of points.

    The rate is taken at the radial projection e^{i arg z} (at z itself when
    |z| is within 1e-9 of 1), so the pair answers both boundary sampling and
    the interior checks that compare |Theta(z)| with |Theta'(z/|z|)|.  As in
    ``eval_inner``, a boundary point on an atom raises ``OnSpectrumError``,
    naming the point's label when ``ids`` gives one per point; as in
    ``boundary_derivative``, the rate at an atom's angle is +inf.
    """
    z = np.asarray(z, dtype=complex)
    radius = np.abs(z)
    arg = np.angle(z)
    on_circle = np.abs(radius - 1.0) <= _BOUNDARY_EVAL_TOL
    zeta = np.where(on_circle, z, np.exp(1j * arg))
    atom_angles, taus, masses = _atom_arrays(theta)
    if taus.size:
        gap = np.mod(arg[:, None] - atom_angles[None, :], TWO_PI)
        at_atom = (np.minimum(gap, TWO_PI - gap) <= ANGLE_TOL).any(axis=1)
        hit = np.flatnonzero(at_atom & on_circle)
        if hit.size:
            k = int(hit[0])
            label = f"point {ids[k]}: " if ids is not None else ""
            raise OnSpectrumError(
                f"{label}evaluation at a singular atom (point {complex(z[k])!r}) is on the spectrum"
            )
    zeros = np.array(theta.blaschke_zeros, dtype=complex)
    nonzero = zeros[zeros != 0]
    unit = np.abs(nonzero) / nonzero
    weight = 1.0 - np.abs(zeros) ** 2
    values = np.empty(z.shape, dtype=complex)
    rates = np.empty(z.shape, dtype=float)
    for rows in _row_blocks(z.size, max(zeros.size, taus.size)):
        w = z[rows, None]
        zw = zeta[rows, None]
        values[rows] = np.prod(unit * (nonzero - w) / (1.0 - nonzero.conj() * w), axis=1)
        rates[rows] = np.sum(weight / np.abs(zw - zeros) ** 2, axis=1)
        if taus.size:
            s = np.sum(masses * (taus + w) / (taus - w), axis=1)
            values[rows] *= np.exp(-s)
            with np.errstate(divide="ignore"):
                rates[rows] += np.sum(2.0 * masses / np.abs(zw - taus) ** 2, axis=1)
    for _ in range(zeros.size - nonzero.size):
        values *= z
    if taus.size:
        rates[at_atom] = math.inf
    return values, rates


def boundary_argument(theta: InnerFunction, t: np.ndarray) -> np.ndarray:
    """Continuous argument Phi(t) of Theta(e^{it}) over a 1-D array of angles.

    Each factor's share is written without cancellation, with s = phi - t
    for a zero eta = r e^{i phi}:

        zero eta != 0:   pi - s - 2 atan2(r sin s, (1 - r) + 2 r sin^2(s/2)),
        zero at 0:       t,
        atom (a, m):     m cot((a - t)/2).

    The atan2 has a positive second argument, so it never wraps, and the
    cotangent's poles are the atom's angles mod 2*pi.  So on any arc free
    of atoms, exp(i Phi) = Theta(e^{it}) exactly and Phi is continuous and
    strictly increasing at the rate |Theta'|; it diverges at the atoms.
    The linear parts pi - phi + t of the zeros are summed apart, as one
    constant plus degree * t, and 1 - r is taken from the exact 1 - r^2.
    """
    t = np.asarray(t, dtype=float)
    r, phi, depth, offset = theta._argument_terms
    atom_angles, _, masses = _atom_arrays(theta)
    bend = np.empty(t.shape, dtype=float)
    for rows in _row_blocks(t.size, max(r.size, masses.size)):
        s = phi - t[rows, None]
        half = np.sin(0.5 * s)
        turn = np.arctan2(r * np.sin(s), depth + 2.0 * r * half * half)
        bend[rows] = np.sum(masses / np.tan(0.5 * (atom_angles - t[rows, None])), axis=1)
        bend[rows] -= 2.0 * np.sum(turn, axis=1)
    return offset + theta.degree * t + bend


def _two_square(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a*a = p + e exactly (Dekker's product, on Veltkamp's split a = hi + lo
    into halves of 26 significant bits)."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    lo = a - hi
    p = a * a
    return p, ((hi * hi - p) + 2.0 * hi * lo) + lo * lo


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a + b = s + e exactly (Knuth's sum)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _one_minus_modulus_sq(z: np.ndarray) -> np.ndarray:
    """1 - x^2 - y^2 for z = x + iy (an array or a complex), to about one
    rounding of the exact value: the squares and sums carry their errors."""
    px, ex = _two_square(z.real)
    py, ey = _two_square(z.imag)
    s, e1 = _two_sum(1.0, -px)
    s, e2 = _two_sum(s, -py)
    return s + (((e1 + e2) - ex) - ey)


def _interior_norm_sq(theta: InnerFunction, z: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """(1 - |Theta(z)|^2)/(1 - |z|^2) over a 1-D array of interior points.

    With gap = 1 - |z|^2 from ``_one_minus_modulus_sq``,
    t_n = (1 - |z_n|^2) gap/|1 - conj(z_n) z|^2 and
    S = sum log1p(-t_n) - 2 sum m_k gap/|tau_k - z|^2 = log|Theta(z)|^2,
    the value is -expm1(S)/gap: no digits are lost as |z| -> 1.
    """
    zeros = np.array(theta.blaschke_zeros, dtype=complex)
    _, taus, masses = _atom_arrays(theta)
    weight = 1.0 - np.abs(zeros) ** 2
    log_mod_sq = np.empty(z.shape, dtype=float)
    for rows in _row_blocks(z.size, max(zeros.size, taus.size)):
        w = z[rows, None]
        g = gap[rows, None]
        # t_n rounds at most an ulp above 1 at a zero of Theta, where
        # log1p(-1) = -inf gives |Theta| = 0
        t = np.minimum(weight * g / np.abs(1.0 - zeros.conj() * w) ** 2, 1.0)
        with np.errstate(divide="ignore"):
            log_mod_sq[rows] = np.sum(np.log1p(-t), axis=1)
        if taus.size:
            log_mod_sq[rows] -= 2.0 * np.sum(masses * g / np.abs(taus - w) ** 2, axis=1)
    return -np.expm1(log_mod_sq) / gap


def kernel_norm_sq(theta: InnerFunction, lam: complex | UnitPoint) -> float:
    """Squared norm of the reproducing kernel at a point.

    Interior: (1 - |Theta(lambda)|^2)/(1 - |lambda|^2), from the factor
    identities of the module docstring.  Boundary (and |lambda| >= 1 -
    1e-12): the angular derivative at lambda/|lambda|.  A boundary point
    sitting on an atom is an error.
    """
    if isinstance(lam, UnitPoint) and lam.is_boundary:
        val = boundary_derivative(theta, lam)
        if math.isinf(val):
            raise OnSpectrumError("kernel norm requested at a singular atom")
        return val
    w = _as_complex(lam)
    r = abs(w)
    if r >= _NORM_EDGE:
        val = boundary_derivative(theta, w / r)
        if math.isinf(val):
            raise OnSpectrumError("kernel norm requested at a singular atom")
        return val
    _check_off_atoms(theta, w)
    return float(_interior_norm_sq(theta, np.array([w]), np.array([_one_minus_modulus_sq(w)]))[0])


def kernel(
    theta: InnerFunction,
    lam: complex | UnitPoint,
    z: complex | UnitPoint,
) -> complex:
    """Reproducing kernel k_lambda(z) of the model subspace of Theta.

    Hermitian in its arguments: kernel(lam, z) == conj(kernel(z, lam)).
    The diagonal goes through the same closed form as ``kernel_norm_sq``.
    """
    lw = _as_complex(lam)
    zw = _as_complex(z)
    if lw == zw:
        return complex(kernel_norm_sq(theta, lam))
    denom = 1.0 - lw.conjugate() * zw
    num = 1.0 - eval_inner(theta, lw).conjugate() * eval_inner(theta, zw)
    if abs(denom) < _DIAG_GUARD and (denom == 0 or abs(num) > 1e-10):
        # z is numerically at the reflection 1/conj(lambda) without the
        # numerator vanishing along with it; the formula has no limit here.
        raise NumericDomainError(
            f"kernel evaluated too close to the diagonal singularity: |1 - conj(l)z| = {abs(denom)!r}"
        )
    return num / denom


def spectrum_distance(theta: InnerFunction, w: complex | UnitPoint) -> float:
    """Euclidean distance from a point to the zero/atom set.

    +inf for a constant representation (empty spectrum).
    """
    pts = theta.spectrum_points()
    if not pts:
        return math.inf
    v = _as_complex(w)
    return min(abs(v - p) for p in pts)


def normalized_values(
    theta: InnerFunction,
    points: Sequence[UnitPoint],
    ids: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Theta values and kernel norms squared for a batch of points, as arrays.

    One ``eval_points`` pass gives the values and the boundary rates (at
    the radial projections of the interior points with |z| >= 1 - 1e-12,
    which take the boundary norm as in ``kernel_norm_sq``); the other
    interior norms come from the stable identity.  Gram assembly and the
    decomposition drivers read these arrays, so each point is evaluated
    once.  When ids are given, the on-atom error names the offending
    point's id.
    """
    z = np.array([p.value for p in points], dtype=complex)
    boundary = np.array([p.is_boundary for p in points], dtype=bool)
    radius = np.abs(z)
    edge = np.flatnonzero(~boundary & (radius >= _NORM_EDGE))
    labels = None if ids is None else list(ids) + [ids[k] for k in edge]
    values, rates = eval_points(theta, np.concatenate([z, z[edge] / radius[edge]]), labels)
    values = values[: z.size]
    norms = rates[: z.size]
    norms[edge] = rates[z.size :]
    interior = ~boundary
    interior[edge] = False
    norms[interior] = _interior_norm_sq(theta, z[interior], _one_minus_modulus_sq(z[interior]))
    return values, norms
