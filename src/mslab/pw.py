"""Exponential systems on a symmetric interval, with exact Gram algebra.

The inner product of two exponentials e_l(t) = exp(i l t) on (-a, a) has
the closed form

    <e_l, e_m> = int_{-a}^{a} e^{i(l - conj(m)) t} dt
               = 2 sin(a (l - conj(m))) / (l - conj(m)),

entire in both frequencies (the diagonal limit is 2a, handled by series
near the removable singularity).  Gram sections are therefore exact, which
makes them the decisive certificate on this side of the theory.

Splitting works in the upper half-plane.  Shifted one unit up, s = l + i,
the frequencies see the symbol exp(iaz) with modulus exp(-a Im s) <=
exp(-a) < 1.  The half-plane's rho(s, t) = |s - t|/|s - conj(t)| is the
disk's pseudohyperbolic distance under the Cayley map, so the interpolation
splitter runs on log rho of the shifted frequencies, with no transport.
Since |s - conj(t)|^2 = |s - t|^2 + 4 Im s Im t, log rho comes from the
disk's row kernel (``mslab.carleson``) with weights w = 2 Im s.
The splitter leaves the frame bounds NaN; ``pw_split`` bounds its
finished parts in one ``gram.block_frame_bounds`` call, from principal
blocks of the one array ``pw_gram`` forms, and the whole system is one
part of the same function.  An ``ExpSystem`` holds only the mathematics:
``mslab.cli`` reads it from a config and writes its report.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .carleson import _log_rho_matrix
from .decompose import Partition, split_log_distances
from .errors import ConfigError, NumericDomainError
from .gram import block_frame_bounds
from .points import coincident_pair

# Switch to the power series of sin(w)/w below this argument size.
_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class ExpSystem:
    """Exponentials exp(i l t) on (-a, a); distinct frequencies, every a (l - conj(m)) finite."""

    a: float
    freqs: tuple[complex, ...]

    def __post_init__(self) -> None:
        if not 0.0 < self.a < math.inf:
            raise ConfigError(
                f"interval half-length must be positive and finite, got {self.a!r}"
            )
        freqs = tuple(complex(f) for f in self.freqs)
        for f in freqs:
            if not cmath.isfinite(f):
                raise ConfigError(f"frequencies must be finite, got {f!r}")
            if f.imag < 0.0:
                raise ConfigError(f"frequencies must have Im >= 0, got {f!r}")
        f = np.array(freqs, dtype=complex)
        pair = coincident_pair(f)
        if pair is not None:
            raise ConfigError("frequencies {} and {} coincide".format(*pair))
        # a (l - conj(m)) peaks in real part at the extreme real parts and in
        # imaginary part at the largest imaginary part taken twice
        for i, j in [(f.real.argmax(), f.real.argmin()), (f.imag.argmax(),) * 2] if freqs else []:
            if not cmath.isfinite(self.a * (freqs[i] - freqs[j].conjugate())):
                raise NumericDomainError(
                    f"frequencies {freqs[i]!r} and {freqs[j]!r}: a (l - conj(m)) overflows"
                )
        object.__setattr__(self, "freqs", freqs)

    def __len__(self) -> int:
        return len(self.freqs)


def pw_gram(system: ExpSystem) -> np.ndarray:
    """Exact normalized Gram of an exponential system (no quadrature), as an (n, n) array.

    Entry (i, j) is <e_{l_j}, e_{l_i}> = 2 sin(a d)/d, d = l_j - conj(l_i),
    over the two norms, all entries at once; where |a d| < 1e-4 it takes the
    series 2a (1 - w^2/6 + w^4/120) of that expression in w = a d.  Entry
    (j, i) is formed from d_ji = -conj(d_ij) by the same operations, so the
    array comes out exactly Hermitian, with diagonal 1.
    """
    n = len(system)
    if n == 0:
        raise ConfigError("empty exponential system")
    a = system.a
    f = np.array(system.freqs, dtype=complex)
    d = f - f.conj()[:, None]
    w = a * d
    series = np.abs(w) < _SERIES_CUTOFF
    ip = np.empty((n, n), dtype=np.complex128)
    w2 = w[series] ** 2
    ip[series] = 2.0 * a * (1.0 - w2 / 6.0 + w2 * w2 / 120.0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        ip[~series] = 2.0 * np.sin(w[~series]) / d[~series]
    norms_sq = ip.diagonal().real
    bad = np.flatnonzero(~(norms_sq > 0.0) | np.isinf(norms_sq))
    if bad.size:
        k = int(bad[0])
        raise NumericDomainError(
            f"frequency {system.freqs[k]!r} has unusable norm squared {float(norms_sq[k])!r} on (-a, a)"
        )
    norms = np.sqrt(norms_sq)
    g = ip / (norms[:, None] * norms)
    np.fill_diagonal(g, 1.0)
    return g


def pw_split(system: ExpSystem, g: np.ndarray) -> Partition:
    """Split an exponential system into parts with exact Gram certificates.

    Runs the interpolation splitter on the shifted frequencies s = l + i:
    L[i, j] = log(|s_i - s_j|/|s_i - conj(s_j)|), from the row kernel with
    w = 2 Im s, and gamma = max exp(-a Im s), both exact in the half-plane.
    Each part's frame bounds are the exact
    exponential-Gram bounds of its frequencies, from its principal block of
    ``g``, the system's one normalized Gram (``pw_gram``): one
    ``gram.block_frame_bounds`` call on the finished parts bounds the blocks
    of the parts of one size as one stack.
    """
    if len(system) == 0:
        raise ConfigError("empty exponential system")
    a = system.a
    s = np.array(system.freqs) + 1j

    partition = split_log_distances(
        _log_rho_matrix(s.real, s.imag, 2.0 * s.imag),
        np.arange(len(system)),
        math.exp(-a * float(s.imag.min())),
    )
    low, high = block_frame_bounds(g, partition.members, partition.offsets)
    return replace(
        partition, lambda_min=low, lambda_max=high, global_info={**partition.global_info, "a": a}
    )
