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
from dataclasses import dataclass

import numpy as np

from .decompose import Partition, PartitionPart, split_by_interpolation
from .errors import ConfigError
from .gram import FrameBounds, GramMatrix, extremal_eigs
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
    """Exact normalized Gram of an exponential system (no quadrature)."""
    n = len(system)
    if n == 0:
        raise ConfigError("empty exponential system")
    a = system.a
    norms = [math.sqrt(exp_inner(a, f, f).real) for f in system.freqs]
    g = np.eye(n, dtype=np.complex128)
    for i in range(n):
        for j in range(i + 1, n):
            g[i, j] = exp_inner(a, system.freqs[j], system.freqs[i]) / (
                norms[i] * norms[j]
            )
            g[j, i] = g[i, j].conjugate()
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
    original frequencies, which is the stronger check.
    """
    if len(system) == 0:
        raise ConfigError("empty exponential system")
    a = system.a
    shifted = shift_off_axis(system.freqs)
    disk_points = PointSequence.from_complex([_cayley(z) for z in shifted])

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
        exact: FrameBounds = extremal_eigs(pw_gram(sub))
        exact = FrameBounds(exact.lambda_min, exact.lambda_max, exact.n)
        parts.append(
            PartitionPart(
                ids=part.ids,
                route=part.route,
                certificate=type(part.certificate)(
                    gamma=part.certificate.gamma,
                    delta_j=part.certificate.delta_j,
                    earl_value=part.certificate.earl_value,
                    dist_bound=part.certificate.dist_bound,
                    frame_bounds=exact,
                ),
            )
        )
    info = dict(base.global_info)
    info["a"] = a
    return Partition(parts=tuple(parts), global_info=info, flags=base.flags)
