"""Inner functions with finite data, and the kernel geometry they induce.

An inner function is represented here by a finite Blaschke zero list plus a
finite list of boundary atoms for the singular part:

    Theta(z) = prod_n b_{z_n}(z) * exp(-sum_k m_k (tau_k + z)/(tau_k - z)),

with the single Blaschke factor

    b_eta(z) = (|eta|/eta) * (eta - z)/(1 - conj(eta) z),      b_0(z) := z.

Every quantity below (point values, kernel norms, boundary derivatives and
the boundary argument) is then an exact finite expression in this data.  The
spectrum of such a representation is the finite set of zeros and atom
positions; evaluation on a boundary atom is refused rather than regularized.
An ``InnerFunction`` checks only this domain: zeros strictly inside the
disk, finite atom angles (stored in [0, 2*pi)) more than 1e-12 apart the
short way round, and positive finite masses.  Reading one from a config
is ``mslab.cli``'s work.

The reproducing kernel of the associated model subspace is

    k_lambda(z) = (1 - conj(Theta(lambda)) Theta(z)) / (1 - conj(lambda) z),

with squared norm (1 - |Theta(lambda)|^2)/(1 - |lambda|^2) at interior
points, and |Theta'(zeta)| at boundary points, where

    |Theta'(zeta)| = sum_n (1 - |z_n|^2)/|zeta - z_n|^2
                   + 2 sum_k m_k / |zeta - tau_k|^2

is also the angular derivative of arg Theta(e^{i theta}).  The kernel
itself is assembled between points by ``mslab.gram``, from the values and
norms that ``normalized_values`` gives here.

The interior norm is not taken from the subtraction 1 - |Theta|^2, which
loses digits as |lambda| -> 1.  Each factor gives its share exactly, on
the identity that ``mslab.carleson`` rests on as well,

    |1 - conj(eta) z|^2 = |z - eta|^2 + (1 - |eta|^2)(1 - |z|^2):

    -log|b_eta(z)|^2 = log1p((1 - |eta|^2)(1 - |z|^2)/|z - eta|^2),
    -log|exp(-s(z))|^2 = 2 sum_k m_k (1 - |z|^2)/|tau_k - z|^2,

so S = log|Theta|^2 is a sum of real terms, none of which cancels
(``_log_modulus_sq``), the squared norm is -expm1(S)/(1 - |z|^2), with
the factor 1 - |z|^2 cancelling exactly, and |Theta| = exp(S/2) where
only the modulus is read.  That factor and each zero's weight 1 - |eta|^2
are computed with exact products and sums, not from rounded moduli; so
norms and rates keep their digits next to zeros at the circle.  Where the
complex 1 - conj(eta) z itself is needed (``mslab.gram``'s factored
sections), it is formed as (1 - |eta|^2) - conj(eta)(z - eta), where
neither term cancels the other.

Every evaluator works on (terms, points) blocks: the data's arrays are
held as columns, a slice of at most 2^15 entries' worth of points as a
row, and each sum or product over the terms reduces axis 0, so numpy's
inner loops run along the points.
``eval_points`` evaluates Theta and |Theta'| over an array of points in
one numpy pass (points against zeros, points against atoms); its one
caller in the package is ``clark.level_sets``, on the solved level points.
``argument_and_rate`` gives, in the same way, the continuous argument Phi
of Theta(e^{it}) on an atom-free boundary arc in closed form, together
with its rate |Theta'| from the same sines; ``boundary_argument`` is its
Phi alone.
``normalized_values`` gives the Theta values and kernel norms of a point
sequence as arrays, from its ``z`` and ``angle`` arrays (NaN inside the
disk), for Gram sections and the decomposition drivers; it takes rates
only where it uses them.  ``spectrum_distance`` takes a 1-D array of
points.  Each formula has this one array implementation, computed from
arrays of the data built once per function; a single point is a
one-element array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, OnSpectrumError
from .points import ANGLE_TOL, TWO_PI, normalize_angles

# |z| within this distance of 1 counts as a boundary point for evaluation.
_BOUNDARY_EVAL_TOL = 1e-9

# Entries per (terms, points) block: bounds the temporaries.
_BLOCK_ENTRIES = 1 << 15

# Interior points with |z| at or above this take the boundary kernel norm.
_NORM_EDGE = 1.0 - 1e-12


class _Terms(NamedTuple):
    """Arrays of an inner function's data, built once (``InnerFunction._terms``).

    Each per-term array is a column, shape (terms, 1): against a row of
    points it broadcasts to the (terms, points) blocks that the kernels
    reduce over axis 0.
    """

    zeros: np.ndarray  # all Blaschke zeros z_n
    weight: np.ndarray  # 1 - |z_n|^2, exact: gap below, and 1 at 0
    nonzero: np.ndarray  # the zeros other than 0 ...
    unit: np.ndarray  # ... their unimodular factors |eta|/eta ...
    origin: int  # ... and the multiplicity of the zero at 0
    r: np.ndarray  # moduli of the nonzero zeros
    phi: np.ndarray  # their angles
    gap: np.ndarray  # their 1 - r^2, exact
    depth: np.ndarray  # 1 - r, from it
    offset: float  # sum(pi - phi)
    atom_angles: np.ndarray
    taus: np.ndarray  # e^{i angle} of the atoms
    masses: np.ndarray


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
        zeros = tuple(complex(z) for z in self.blaschke_zeros)
        atoms = tuple((float(a), float(m)) for a, m in self.singular_atoms)
        for z in zeros:
            if not abs(z) < 1.0:  # also refuses NaN
                raise ConfigError(f"Blaschke zero must be strictly interior, got {z!r}")
        for a, m in atoms:
            if not math.isfinite(a):
                raise ConfigError(f"atom angle must be finite, got {a!r}")
            if not 0.0 < m < math.inf:
                raise ConfigError(f"atom mass must be positive and finite, got {m!r}")
        angles = normalize_angles(np.array([a for a, _ in atoms], dtype=float))
        # the closest pair, min(d, 2 pi - d) over |a_i - a_j|, is a neighbouring
        # pair of the sorted angles or the first and last across the wrap
        s = np.sort(angles)
        if s.size > 1 and min(np.diff(s).min(), TWO_PI - (s[-1] - s[0])) <= ANGLE_TOL:
            raise ConfigError("atom angles must be pairwise distinct")
        atoms = tuple(zip(angles.tolist(), (m for _, m in atoms)))
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
    def _terms(self) -> _Terms:
        """The zero and atom arrays every evaluator reads, built once."""
        zeros = np.array(self.blaschke_zeros, dtype=complex)
        at_origin = zeros == 0
        nonzero = zeros[~at_origin]
        r, phi = np.abs(nonzero), np.angle(nonzero)
        gap = _one_minus_modulus_sq(nonzero)
        weight = np.ones(zeros.size)
        weight[~at_origin] = gap
        angles = np.array([a for a, _ in self.singular_atoms], dtype=float)
        return _Terms(
            zeros=zeros[:, None],
            weight=weight[:, None],
            nonzero=nonzero[:, None],
            unit=(r / nonzero)[:, None],
            origin=zeros.size - nonzero.size,
            r=r[:, None],
            phi=phi[:, None],
            gap=gap[:, None],
            depth=(gap / (1.0 + r))[:, None],
            offset=math.fsum(math.pi - phi),
            atom_angles=angles[:, None],
            taus=np.exp(1j * angles)[:, None],
            masses=np.array([m for _, m in self.singular_atoms], dtype=float)[:, None],
        )


def _row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """Row slices of a rows-by-cols array with at most _BLOCK_ENTRIES entries each.

    The point kernels below slice their points with it, as ``_row_blocks(
    points, terms)``, and hold each slice as a (terms, points) block.
    """
    step = max(1, _BLOCK_ENTRIES // max(1, cols))
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _distance_sq(c: np.ndarray, z: np.ndarray) -> np.ndarray:
    """|z - c|^2 = (Re z - Re c)^2 + (Im z - Im c)^2, for a column c of terms and a row z."""
    dx, dy = z.real - c.real, z.imag - c.imag
    dx *= dx
    dy *= dy
    dx += dy
    return dx


def _near_atoms(terms: _Terms, angles: np.ndarray) -> np.ndarray:
    """Which angles lie within ANGLE_TOL of an atom's angle."""
    gap = np.mod(angles - terms.atom_angles, TWO_PI)
    return (np.minimum(gap, TWO_PI - gap) <= ANGLE_TOL).any(axis=0)


def _refuse_atoms(
    terms: _Terms, z: np.ndarray, ids: Sequence[int] | None = None
) -> np.ndarray:
    """``_near_atoms`` of the points' angles; a boundary point on an atom
    raises ``OnSpectrumError``, naming its label when ``ids`` gives one."""
    if not terms.taus.size:
        return np.zeros(z.shape, dtype=bool)
    at_atom = _near_atoms(terms, np.angle(z))
    hit = np.flatnonzero(at_atom & (np.abs(np.abs(z) - 1.0) <= _BOUNDARY_EVAL_TOL))
    if hit.size:
        k = int(hit[0])
        label = f"point {ids[k]}: " if ids is not None else ""
        raise OnSpectrumError(
            f"{label}evaluation at a singular atom (point {complex(z[k])!r}) is on the spectrum"
        )
    return at_atom


def _rates(terms: _Terms, zeta: np.ndarray, at_atom: np.ndarray) -> np.ndarray:
    """|Theta'| at boundary points zeta, +inf where ``at_atom`` flags an atom's angle."""
    rates = np.empty(zeta.shape, dtype=float)
    for cols in _row_blocks(zeta.size, max(terms.zeros.size, terms.taus.size)):
        w = zeta[cols]
        rates[cols] = (terms.weight / np.abs(w - terms.zeros) ** 2).sum(axis=0)
        if terms.taus.size:
            with np.errstate(divide="ignore"):
                rates[cols] += (2.0 * terms.masses / np.abs(w - terms.taus) ** 2).sum(axis=0)
    rates[at_atom] = math.inf
    return rates


def eval_points(theta: InnerFunction, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Theta(z) and the boundary rate |Theta'| over a 1-D array of points.

    The rate is taken at the radial projection e^{i arg z} (at z itself when
    |z| is within 1e-9 of 1), so the pair answers both boundary sampling and
    the interior checks that compare |Theta(z)| with |Theta'(z/|z|)|.  A
    boundary point on an atom raises ``OnSpectrumError``; the rate at an
    atom's angle is +inf.
    """
    z = np.asarray(z, dtype=complex)
    terms = theta._terms
    at_atom = _refuse_atoms(terms, z)
    on_circle = np.abs(np.abs(z) - 1.0) <= _BOUNDARY_EVAL_TOL
    zeta = np.where(on_circle, z, np.exp(1j * np.angle(z)))
    return _values(terms, z), _rates(terms, zeta, at_atom)


def _values(terms: _Terms, z: np.ndarray) -> np.ndarray:
    """Theta over a 1-D array of points off the atoms.

    An atom's exponent is taken from

        (tau + z)/(tau - z) = ((1 - |z|^2) + 2i Im(z conj(tau)))/|tau - z|^2,

    with 1 - |z|^2 exact and Im(z conj(tau)) = Im((z - tau) conj(tau)) from
    the small difference z - tau.  So the factor's modulus
    exp(-m (1 - |z|^2)/|tau - z|^2) keeps its digits next to the circle,
    where the complex quotient cancels; the phase is as exact as the
    rounded tau = e^{ia} allows.
    """
    values = np.empty(z.shape, dtype=complex)
    gap = _one_minus_modulus_sq(z) if terms.taus.size else None
    for cols in _row_blocks(z.size, max(terms.zeros.size, terms.taus.size)):
        w = z[cols]
        values[cols] = (
            terms.unit * (terms.nonzero - w) / (1.0 - terms.nonzero.conj() * w)
        ).prod(axis=0)
        if terms.taus.size:
            dx, dy = w.real - terms.taus.real, w.imag - terms.taus.imag
            cross = dy * terms.taus.real - dx * terms.taus.imag  # Im((w - tau) conj(tau))
            s = terms.masses * (gap[cols] + 2j * cross) / (dx * dx + dy * dy)
            values[cols] *= np.exp(-s.sum(axis=0))
    if terms.origin:
        values *= z**terms.origin
    return values


def _log_modulus_sq(terms: _Terms, z: np.ndarray, gap: np.ndarray) -> np.ndarray:
    """log|Theta(z)|^2 over a 1-D array of interior points z, with gap = 1 - |z|^2.

    By |1 - conj(z_n) z|^2 = |z - z_n|^2 + (1 - |z_n|^2)(1 - |z|^2), the
    identity ``mslab.carleson`` rests on, a zero's share log|b_{z_n}(z)|^2
    is -log1p((1 - |z_n|^2) gap/|z - z_n|^2), and an atom's is
    -2 m gap/|tau - z|^2: real arithmetic, with no subtraction that
    cancels, and -inf at a zero of Theta.
    """
    log_mod_sq = np.zeros(z.shape, dtype=float)  # +0.0 for a constant Theta
    for cols in _row_blocks(z.size, max(terms.zeros.size, terms.taus.size)):
        w, g = z[cols], gap[cols]
        q = _distance_sq(terms.zeros, w)
        with np.errstate(divide="ignore", over="ignore"):  # q = inf at a zero
            np.divide(terms.weight * g, q, out=q)
        log_mod_sq[cols] -= np.log1p(q, out=q).sum(axis=0)
        if terms.taus.size:
            log_mod_sq[cols] -= 2.0 * g * (terms.masses / _distance_sq(terms.taus, w)).sum(axis=0)
    return log_mod_sq


def argument_and_rate(theta: InnerFunction, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Continuous argument Phi(t) of Theta(e^{it}) and its rate Phi'(t) =
    |Theta'(e^{it})|, over a 1-D array of angles in one pass.

    Each factor's share is written without cancellation, with s = phi - t
    for a zero eta = r e^{i phi} and u = (a - t)/2 for an atom (a, m):

        zero eta != 0:   Phi: pi - s - 2 atan2(r sin s, (1 - r) + 2 r sin^2(s/2)),
                         Phi': (1 - r^2)/((1 - r)^2 + 4 r sin^2(s/2)),
        zero at 0:       Phi: t,  Phi': 1,
        atom (a, m):     Phi: m cot u,  Phi': (m/2)(1 + cot^2 u),

    from |e^{it} - eta|^2 = (1 - r)^2 + 4 r sin^2(s/2) and
    |e^{it} - e^{ia}|^2 = 4 sin^2 u, so both share sin(s/2) and tan u.
    The atan2 has a positive second argument, so it never wraps, and the
    cotangent's poles are the atom's angles mod 2*pi.  So on any arc free
    of atoms, exp(i Phi) = Theta(e^{it}) exactly and Phi is continuous and
    strictly increasing at the rate Phi'; it diverges at the atoms.  The
    linear parts pi - phi + t of the zeros are summed apart, as one
    constant plus degree * t, and 1 - r and 1 - r^2 are exact.  Data
    without atoms does no atom work.
    """
    t = np.asarray(t, dtype=float)
    terms = theta._terms
    r = terms.r
    bend = np.empty(t.shape, dtype=float)
    rate = np.empty(t.shape, dtype=float)
    for cols in _row_blocks(t.size, max(r.size, terms.masses.size)):
        t_ = t[cols]
        s = terms.phi - t_
        half = np.sin(0.5 * s)
        lift = 2.0 * r * half * half
        turn = np.arctan2(r * np.sin(s), terms.depth + lift)
        bend[cols] = -2.0 * turn.sum(axis=0)
        rate[cols] = (terms.gap / (terms.depth * terms.depth + 2.0 * lift)).sum(axis=0)
        if terms.masses.size:
            cot = 1.0 / np.tan(0.5 * (terms.atom_angles - t_))
            bend[cols] += (terms.masses * cot).sum(axis=0)
            rate[cols] += (0.5 * terms.masses * (1.0 + cot * cot)).sum(axis=0)
    return terms.offset + theta.degree * t + bend, terms.origin + rate


def boundary_argument(theta: InnerFunction, t: np.ndarray) -> np.ndarray:
    """Phi(t) of ``argument_and_rate``: the continuous argument of Theta(e^{it})."""
    return argument_and_rate(theta, t)[0]


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


def _one_minus_conj_zeros(terms: _Terms, w: np.ndarray) -> np.ndarray:
    """1 - conj(z_n) w against every zero z_n, for a row of points w: (terms, points).

    Formed as (1 - |z_n|^2) - conj(z_n)(w - z_n), from the exact weight.
    Its modulus is at least 1 - |z_n| >= (1 - |z_n|^2)/2 and at least
    |z_n| |w - z_n|, so neither term cancels the other: it keeps its digits
    where z_n and w are close to one point of the circle, as the plain
    1 - conj(z_n) w does not.
    """
    return terms.weight - terms.zeros.conj() * (w - terms.zeros)


def spectrum_distance(theta: InnerFunction, w: np.ndarray) -> np.ndarray:
    """Euclidean distance from each of a 1-D array of points to the zero/atom set.

    +inf for a constant representation (empty spectrum).
    """
    v = np.asarray(w, dtype=complex)
    spectrum = np.concatenate([theta._terms.zeros, theta._terms.taus])
    dist = np.empty(v.shape)
    for cols in _row_blocks(v.size, spectrum.size):
        dist[cols] = np.abs(v[cols] - spectrum).min(axis=0, initial=math.inf)
    return dist


def normalized_values(
    theta: InnerFunction,
    z: np.ndarray,
    angle: np.ndarray,
    ids: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Theta values and kernel norms squared of points z, as arrays.

    ``angle`` is a ``PointSequence``'s: NaN at interior points.  Boundary
    points, and interior points with |z| >= 1 - 1e-12 at their radial
    projection z/|z|, take the boundary rate |Theta'| as their norm, and
    only those points are given a rate; the other interior norms come from
    the stable identity.  Gram assembly and the
    decomposition drivers read these arrays, so each point is evaluated
    once.  A boundary point on an atom raises ``OnSpectrumError``, naming
    its id when ids are given.
    """
    terms = theta._terms
    interior = np.isnan(angle)
    radius = np.abs(z)
    edge = np.flatnonzero(interior & (radius >= _NORM_EDGE))
    projected = z[edge] / radius[edge]
    labels = None if ids is None else np.concatenate([ids, np.asarray(ids)[edge]])
    _refuse_atoms(terms, np.concatenate([z, projected]), labels)
    rated = np.concatenate([np.flatnonzero(~interior), edge])
    norms = np.empty(z.size)
    # every rated point is on the circle, so one on an atom was refused above
    norms[rated] = _rates(
        terms, np.concatenate([z[~interior], projected]), np.zeros(rated.size, dtype=bool)
    )
    interior[edge] = False
    # -expm1(S)/(1 - |z|^2), S = log|Theta|^2: no digits are lost as |z| -> 1
    gap = _one_minus_modulus_sq(z[interior])
    norms[interior] = -np.expm1(_log_modulus_sq(terms, z[interior], gap)) / gap
    return _values(terms, z), norms
