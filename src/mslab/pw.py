"""Exponential systems on a symmetric interval, with exact Gram algebra.

The inner product of two exponentials e_l(t) = exp(i l t) on (-a, a) has
the closed form

    <e_l, e_m> = int_{-a}^{a} e^{i(l - conj(m)) t} dt
               = 2 sin(a (l - conj(m))) / (l - conj(m)),

entire in both frequencies (the diagonal limit is 2a, handled by series
near the removable singularity).  Gram sections are therefore exact, which
makes them the decisive certificate on this side of the theory.

Splitting works through the disk machinery: frequencies are shifted one
unit up (making the symbol exp(iaz) uniformly contractive on them, with
modulus exp(-a(Im l + 1)) <= exp(-a) < 1), carried into the disk by the
Cayley map w = (z - i)/(z + i), and run through the interpolation
splitter against the transported symbol.  Each resulting part then gets
its exact exponential-Gram frame bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .decompose import Partition, split_by_interpolation
from .errors import ConfigError, NumericDomainError
from .gram import GramMatrix, extremal_eigs
from .points import PointSequence

# Switch to the power series of sin(w)/w below this argument size.
_SERIES_CUTOFF = 1e-4


@dataclass(frozen=True)
class ExpSystem:
    """Exponentials exp(i l t) on (-a, a) with pairwise distinct frequencies."""

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
        for i in range(len(freqs)):
            for j in range(i + 1, len(freqs)):
                if freqs[i] == freqs[j]:
                    raise ConfigError(f"frequencies {i} and {j} coincide")
        object.__setattr__(self, "freqs", freqs)

    def __len__(self) -> int:
        return len(self.freqs)

    def to_json_dict(self) -> dict:
        return {"a": self.a, "freqs": [[f.real, f.imag] for f in self.freqs]}

    @staticmethod
    def from_json_dict(data: dict) -> "ExpSystem":
        if not isinstance(data, dict):
            raise ConfigError("exponential system data must be an object")
        unknown = set(data) - {"a", "freqs"}
        if unknown:
            raise ConfigError(f"unknown exponential system keys: {sorted(unknown)}")
        if "a" not in data or "freqs" not in data:
            raise ConfigError("exponential system needs keys 'a' and 'freqs'")
        try:
            a = float(data["a"])
            freqs = tuple(complex(re, im) for re, im in data["freqs"])
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"'a' must be a number and 'freqs' a list of [re, im] pairs: {exc}"
            ) from exc
        return ExpSystem(a, freqs)


def exp_inner(a: float, lam: complex, mu: complex) -> complex:
    """Inner product of exp(i lam t) against exp(i mu t) on (-a, a)."""
    if not a > 0.0:
        raise ConfigError(f"interval half-length must be positive, got {a!r}")
    d = complex(lam) - complex(mu).conjugate()
    w = a * d
    if abs(w) < _SERIES_CUTOFF:
        w2 = w * w
        return 2.0 * a * (1.0 - w2 / 6.0 + w2 * w2 / 120.0)
    return 2.0 * cmath.sin(w) / d


def pw_gram(system: ExpSystem) -> GramMatrix:
    """Exact normalized Gram of an exponential system (no quadrature).

    ``exp_inner`` on the whole frequency matrix at once: entry (i, j) is
    <e_{l_j}, e_{l_i}> over the two norms, with the same series branch.
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
    return GramMatrix(g, tuple(range(n)))


def shift_off_axis(freqs: tuple[complex, ...] | list[complex]) -> tuple[complex, ...]:
    """Shift frequencies one unit up: l -> l + i.

    On the shifted set the symbol exp(iaz) has modulus
    exp(-a (Im l + 1)) <= exp(-a) < 1, uniformly.
    """
    return tuple(complex(f) + 1j for f in freqs)


def _cayley(z: complex) -> complex:
    return (z - 1j) / (z + 1j)


def _cayley_inv(w: complex) -> complex:
    return 1j * (1.0 + w) / (1.0 - w)


def pw_split(system: ExpSystem, *, max_depth: int = 20) -> Partition:
    """Split an exponential system into parts with exact Gram certificates.

    Runs the interpolation splitter on the Cayley images of the shifted
    frequencies against the transported symbol exp(ia*), then replaces each
    part's frame bounds with the exact exponential-Gram bounds of the
    original frequencies, which is the stronger check.  A frequency so
    large that its Cayley image rounds onto the unit circle has no disk
    point, and is refused with ``NumericDomainError``.
    """
    if len(system) == 0:
        raise ConfigError("empty exponential system")
    a = system.a
    images = [_cayley(z) for z in shift_off_axis(system.freqs)]
    for f, w in zip(system.freqs, images):
        if not abs(w) < 1.0:
            raise NumericDomainError(
                f"frequency {f!r} is too large to split: its Cayley image {w!r} "
                "rounds onto the unit circle"
            )
    disk_points = PointSequence.from_complex(images)

    def transported_symbol(w: complex) -> complex:
        return cmath.exp(1j * a * _cayley_inv(w))

    base = split_by_interpolation(
        transported_symbol,
        disk_points,
        max_depth=max_depth,
        route="interp",
    )
    parts = []
    for part in base.parts:
        sub = ExpSystem(a, tuple(system.freqs[i] for i in part.ids))
        exact = replace(part.certificate, frame_bounds=extremal_eigs(pw_gram(sub)))
        parts.append(replace(part, certificate=exact))
    info = dict(base.global_info)
    info["a"] = a
    return Partition(parts=tuple(parts), global_info=info, flags=base.flags)
