"""Labelled sequences of points of the closed unit disk, held as arrays.

A ``PointSequence`` is three arrays of one length: ``z`` (complex), the
points; ``angle`` (float), NaN for an interior point (|z| < 1 - 1e-14) and
the canonical angle in [0, 2*pi) for a boundary point, whose ``z`` is
exp(i*angle), so that repeated trigonometric round trips cannot drift its
modulus away from 1; and ``ids``, stable integer labels that
decompositions refer back to.  The boundary tag ~isnan(angle) is the only
record of which points lie on the circle.

``from_complex`` classifies raw complex numbers by modulus, taking a
boundary point's angle as ``cmath.phase`` of the input; ``from_angles``
builds boundary points; ``from_mixed`` takes both kinds in one list.  Every
sequence, including each ``subset``, passes one check: equal lengths,
unique ids, points in the closed disk, and pairwise distinct points, found
by one sort (``coincident_pair``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError

TWO_PI = 2.0 * math.pi

# |z| within this distance of 1 is treated as a boundary point.
BOUNDARY_TOL = 1e-14

# Boundary points closer than this (in angle) are considered equal.
ANGLE_TOL = 1e-12


def normalize_angle(theta: float) -> float:
    """Reduce an angle to the canonical window [0, 2*pi)."""
    theta = math.fmod(theta, TWO_PI)
    if theta < 0.0:
        theta += TWO_PI
    if theta >= TWO_PI:  # fmod can round up to 2*pi
        theta -= TWO_PI
    return theta


def normalize_angles(theta: np.ndarray) -> np.ndarray:
    """``normalize_angle``, elementwise."""
    theta = np.fmod(theta, TWO_PI)
    theta = np.where(theta < 0.0, theta + TWO_PI, theta)
    return np.where(theta >= TWO_PI, theta - TWO_PI, theta)


def angle_distance(a: float, b: float) -> float:
    """Shortest angular distance between two angles, in [0, pi]."""
    d = abs(normalize_angle(a) - normalize_angle(b))
    return min(d, TWO_PI - d)


def coincident_pair(z: np.ndarray) -> tuple[int, int] | None:
    """The first repeated value of a 1-D complex array, as positions (i, j), i < j.

    j is the first position whose value occurred earlier, and i the first
    position holding that value; None if all values differ.  One stable
    sort by real and imaginary part puts equal values next to each other,
    first occurrence first.
    """
    order = np.lexsort((z.imag, z.real))
    s = z[order]
    repeat = np.flatnonzero(s[1:] == s[:-1]) + 1  # sorted positions equal to their left neighbour
    if not repeat.size:
        return None
    k = repeat[np.argmin(order[repeat])]
    # the sorted run of s[k] starts after the last position before it that differs
    head = np.flatnonzero(s[:k] != s[k])
    first = head[-1] + 1 if head.size else 0
    return int(order[first]), int(order[k])


@dataclass(frozen=True, eq=False)
class PointSequence:
    """Ordered, labelled sequence of pairwise distinct points of the closed disk.

    ``z``: complex128 points; ``angle``: float64, NaN inside the disk and
    the canonical angle of a boundary point, with z = exp(i*angle);
    ``ids``: int64 labels.  The arrays are read-only.
    """

    z: np.ndarray
    angle: np.ndarray
    ids: np.ndarray

    def __post_init__(self) -> None:
        z = np.array(self.z, dtype=np.complex128).reshape(-1)
        angle = np.array(self.angle, dtype=np.float64).reshape(-1)
        ids = np.array(self.ids, dtype=np.int64).reshape(-1)
        if not z.size == angle.size == ids.size:
            raise ConfigError("points and ids must have equal length")
        # a stable sort: np.unique's quicksort maps about 0.8 MB of SIMD sort
        # code into a process that sorts no integers otherwise
        by_id = np.sort(ids, kind="stable")
        if (by_id[1:] == by_id[:-1]).any():
            raise ConfigError("point ids must be unique")
        interior = np.isnan(angle)
        radius = np.hypot(z.real, z.imag)
        outside = np.flatnonzero(interior & ~(radius < 1.0 - BOUNDARY_TOL))
        if outside.size:
            r = float(radius[outside[0]])
            if r <= 1.0 + BOUNDARY_TOL:
                raise ConfigError(f"interior point must satisfy |z| < 1, got |z| = {r!r}")
            raise ConfigError(f"point lies outside the closed disk: |z| = {r!r}")
        b = ~interior
        if not ((angle[b] >= 0.0) & (angle[b] < TWO_PI) & (z[b] == np.exp(1j * angle[b]))).all():
            raise ConfigError("boundary points must be exp(i*angle) with angle in [0, 2*pi)")
        pair = coincident_pair(z)
        if pair is not None:
            i, j = pair
            raise ConfigError(
                f"points {ids[i]} and {ids[j]} coincide; sequence points must be distinct"
            )
        for name, arr in (("z", z), ("angle", angle), ("ids", ids)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @staticmethod
    def from_mixed(
        values: Sequence[complex], angles: Sequence[float], ids: Sequence[int] | None = None
    ) -> "PointSequence":
        """Boundary points at the finite entries of ``angles``; elsewhere the
        entries of ``values``, classified as in ``from_complex``."""
        z = np.array(values, dtype=np.complex128).reshape(-1)
        given = np.array(angles, dtype=np.float64).reshape(-1)
        if z.size != given.size:
            raise ConfigError("points and angles must have equal length")
        if np.isinf(given).any():
            raise ConfigError("boundary angles must be finite")
        radius = np.hypot(z.real, z.imag)  # equal to Python's abs
        on = np.isnan(given) & (radius >= 1.0 - BOUNDARY_TOL) & (radius <= 1.0 + BOUNDARY_TOL)
        angle = given.copy()
        angle[on] = [cmath.phase(w) for w in z[on].tolist()]  # numpy's differs in the last bit
        b = ~np.isnan(angle)
        angle[b] = normalize_angles(angle[b])
        z[b] = np.exp(1j * angle[b])
        return PointSequence(z, angle, np.arange(z.size) if ids is None else ids)

    @staticmethod
    def from_complex(
        values: Sequence[complex], ids: Sequence[int] | None = None
    ) -> "PointSequence":
        """Points with |z| < 1 - 1e-14 stay interior; those within 1e-14 of the
        circle become boundary points at their phase; others are refused."""
        z = np.array(values, dtype=np.complex128).reshape(-1)
        return PointSequence.from_mixed(z, np.full(z.size, math.nan), ids)

    @staticmethod
    def from_angles(angles: Sequence[float], ids: Sequence[int] | None = None) -> "PointSequence":
        """Boundary points exp(i*angle), each angle reduced to [0, 2*pi)."""
        angle = np.array(angles, dtype=np.float64).reshape(-1)
        return PointSequence.from_mixed(np.zeros(angle.size), angle, ids)

    def __len__(self) -> int:
        return self.z.size

    @property
    def boundary(self) -> np.ndarray:
        """Which points lie on the circle."""
        return ~np.isnan(self.angle)

    def subset(self, idx: np.ndarray) -> "PointSequence":
        """The subsequence at the positions ``idx``, in that order."""
        return PointSequence(self.z[idx], self.angle[idx], self.ids[idx])

    def interior_only(self) -> "PointSequence":
        """The subsequence of interior points (labels preserved)."""
        return self.subset(np.isnan(self.angle))
