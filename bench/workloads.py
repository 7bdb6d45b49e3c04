"""Seeded config generators for the three benchmark workloads.

Each workload has a fixed *plan*: for every kind of config, a grid of sizes
spread over the kind's range.  The seed draws the random data of each
config and nothing else, so every seed times exactly the same sizes.  A
run times the seed's configs over and over (see run.py), so the plan is
kept cheap: one pass over it takes 2-4 s at seed.

Because neighbouring sizes on a grid cost nearly the same, the per-config
times form a smooth distribution: a percentile moves with the program's
speed, not with which of two distant sizes a noisy measurement happened to
land on.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

import oracles

TWO_PI = 2.0 * math.pi
GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def grid(lo: float, hi: float, count: int, power: float = 1.0) -> list[int]:
    """``count`` sizes from lo to hi, geometric in u**power for u on a midpoint grid.

    power > 1 packs the grid towards lo.
    """
    return [round(lo * (hi / lo) ** (((j + 0.5) / count) ** power)) for j in range(count)]


WORKLOADS = ("interp_split", "squares_clark", "gram_analyze")


def _disk(rng: np.random.Generator, rmax: float) -> complex:
    return rmax * math.sqrt(rng.uniform()) * cmath.exp(1j * rng.uniform(0.0, TWO_PI))


def _pairs(values) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in values]


def _spiral(count: int, rmax: float, turn: float) -> np.ndarray:
    """``count`` points on a sunflower spiral over |z| <= rmax, turned by ``turn``.

    Radii at the area quantiles of the disk, angles a golden angle apart.
    """
    k = np.arange(count)
    return rmax * np.sqrt((k + 0.5) / count) * np.exp(1j * (GOLDEN_ANGLE * k + turn))


def _zeros(rng: np.random.Generator, degree: int, rmax: float) -> list[complex]:
    """Zeros on a spiral (see _spiral) turned by a random angle.

    The cost of the work that depends on the zeros alone (argument branch,
    arc system, level-count selection) is then the same on every draw: with
    random angles, the auto-selected level count of one degree-4 squares
    config took 0.3 s on some draws and 1.6 s on others.
    """
    return list(_spiral(degree, rmax, rng.uniform(0.0, TWO_PI)))


def interp_config(rng: np.random.Generator, n: int, degree: int) -> dict:
    """AC-05's setting scaled up: degree 1-8, zeros |z| <= 0.8, points |z| <= 0.97 with |Theta| <= 0.5.

    Zeros and points lie on spirals turned by one random angle; the points
    are the first n with |Theta| <= 0.5 on the shortest spiral over
    |z| <= 0.97 that has n of them.  Turning both together leaves |Theta|
    and every pseudohyperbolic distance unchanged, so the splitter does the
    same work on every draw; uniform random points (AC-05's law) cost up to
    1.8x between draws at the same size.
    """
    turn = rng.uniform(0.0, TWO_PI)
    inner = {"blaschke_zeros": _pairs(_spiral(degree, 0.8, turn))}

    def admissible(m: int) -> np.ndarray:
        candidates = _spiral(m, 0.97, turn)
        return candidates[np.abs(oracles.theta(inner, candidates)) <= 0.5]

    m = n
    while len(admissible(m)) < n:
        m += 1
    return {"inner": inner, "points": _pairs(admissible(m)[:n]), "mode": "interp"}


def clark_config(rng: np.random.Generator, degree: int, atoms: bool) -> dict:
    inner: dict = {"blaschke_zeros": _pairs(_zeros(rng, degree, 0.9))}
    config: dict = {"inner": inner}
    if atoms:
        first = float(rng.uniform(0.0, TWO_PI))
        inner["singular_atoms"] = [
            {"angle": first, "mass": 0.3},
            {"angle": (first + float(rng.uniform(1.5, 4.5))) % TWO_PI, "mass": 0.3},
        ]
        # small per-arc budget: enough to run the truncated-arc path
        config["options"] = {"max_points_per_arc": 24}
    alpha = cmath.exp(1j * rng.uniform(0.0, TWO_PI))
    config["alpha"] = [alpha.real, alpha.imag]
    return config


def squares_config(rng: np.random.Generator, n: int, level_count: int | None, degree: int) -> dict:
    """Points with 1 - |z| spread log-uniformly over [1e-3, 1e-1]; level count fixed or auto.

    Zeros and points are turned by one random angle, as in interp_config,
    so the square system and each point's square are the same on every
    draw up to rotation.  Point k has angle k golden angles and gap
    quantile k*sqrt(2) mod 1, two sequences that fill their ranges evenly
    and independently.
    """
    turn = rng.uniform(0.0, TWO_PI)
    inner = {"blaschke_zeros": _pairs(_spiral(degree, 0.8, turn))}
    k = np.arange(n)
    gaps = 10.0 ** (-3.0 + 2.0 * ((k * math.sqrt(2.0)) % 1.0))
    pts = (1.0 - gaps) * np.exp(1j * (GOLDEN_ANGLE * k + turn))
    config = {"inner": inner, "points": _pairs(pts), "mode": "squares"}
    if level_count is not None:
        config["options"] = {"level_count": level_count}
    return config


def clark_section_config(rng: np.random.Generator, n: int) -> dict:
    """Perturbed Clark family of z^n: points near the n-th roots of unity, well conditioned."""
    k = np.arange(n)
    angles = TWO_PI * (k + rng.uniform(-0.15, 0.15, size=n)) / n
    radii = 1.0 - rng.uniform(0.005, 0.02, size=n)
    return {
        "inner": {"blaschke_zeros": [[0.0, 0.0]] * n},
        "points": _pairs(radii * np.exp(1j * angles)),
    }


def dense_section_config(rng: np.random.Generator, n: int) -> dict:
    """Degree-5 Blaschke data with n >> 5 points: the section has rank 5, so it is singular.

    Zeros and points lie on spirals over |z| <= 0.9 turned by one random
    angle.  Turning zeros and points together leaves the Gram matrix
    unchanged, so the Jacobi eigensolver does the same work on every draw;
    uniform random points cost 1x-3.5x between draws at the same size, and
    zeros and points turned apart 0.03-0.08 s at 51 rows.
    """
    turn = rng.uniform(0.0, TWO_PI)
    return {
        "inner": {"blaschke_zeros": _pairs(_spiral(5, 0.9, turn))},
        "points": _pairs(_spiral(n, 0.9, turn)),
    }


def power_section_config(rng: np.random.Generator, n: int) -> dict:
    """Degree-5 Blaschke data with n uniform random points in |z| <= 0.9: singular, for n past 512."""
    return {
        "inner": {"blaschke_zeros": _pairs(_zeros(rng, 5, 0.9))},
        "points": _pairs([_disk(rng, 0.9) for _ in range(n)]),
    }


def pw_config(rng: np.random.Generator, n: int) -> dict:
    """Jittered integer frequencies with 0 <= Im <= 1 on (-pi, pi), split on."""
    freqs = np.arange(n) + rng.uniform(-0.3, 0.3, size=n) + 1j * rng.uniform(0.0, 1.0, size=n)
    return {"pw": {"a": math.pi, "freqs": _pairs(freqs)}, "options": {"split": True}}


def plan(workload: str) -> list[tuple[str, str, list]]:
    """(command, kind, sizes) groups of a workload's configs."""
    if workload == "interp_split":
        # (points, Blaschke degree): degrees 1-8 in turn along the grid; the
        # grid is packed towards 50 because the cost grows like n**3
        sizes = grid(50, 110, 12, 2.0)
        return [("split", "interp", [(n, 1 + j % 8) for j, n in enumerate(sizes)])]
    if workload == "squares_clark":
        # (points, level count or None for auto, degree)
        squares = [
            (n, (None, 8, 16)[j % 3], 4 + 2 * (j % 5))
            for j, n in enumerate(grid(60, 110, 3))
        ]
        return [
            ("clark", "blaschke", grid(8, 40, 5, 2.0)),
            ("clark", "atoms", [6]),
            ("split", "squares", squares),
        ]
    if workload == "gram_analyze":
        return [
            ("analyze", "clark_section", [48]),
            ("analyze", "dense_section", grid(48, 128, 7)),
            ("analyze", "power_section", [520]),
            ("pw", "split", grid(40, 64, 3)),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def config_count(workload: str) -> int:
    return sum(len(sizes) for _command, _kind, sizes in plan(workload))


def _make(rng: np.random.Generator, kind: str, size) -> dict:
    if kind == "interp":
        return interp_config(rng, *size)
    if kind in ("blaschke", "atoms"):
        return clark_config(rng, size, kind == "atoms")
    if kind == "squares":
        return squares_config(rng, *size)
    if kind == "clark_section":
        return clark_section_config(rng, size)
    if kind == "dense_section":
        return dense_section_config(rng, size)
    if kind == "power_section":
        return power_section_config(rng, size)
    return pw_config(rng, size)


def configs(workload: str, seed: int) -> list[tuple[str, str]]:
    """A workload's configs for ``seed`` as (command, config JSON text) pairs.

    Each config draws from its own stream keyed by (seed, position), so the
    same seed always yields byte-identical configs.  Sizes are put in
    golden-ratio order, so small and large ones alternate instead of
    sharing one slow or fast spell of the machine.
    """
    entries = []
    for command, kind, sizes in plan(workload):
        for i, size in enumerate(sizes):
            entries.append((((i + 0.5) * 0.6180339887) % 1.0, command, kind, size))
    entries.sort(key=lambda e: e[0])
    out = []
    for k, (_, command, kind, size) in enumerate(entries):
        rng = np.random.default_rng([seed, k])
        out.append((command, json.dumps(_make(rng, kind, size), sort_keys=True)))
    return out
