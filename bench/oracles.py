"""Independent output oracles for the mslab benchmark.

Everything here is written from the closed forms in the package's
documentation, in vectorised numpy, and imports nothing from ``mslab``: an
oracle that shared code with the program would share its bugs.

Each ``check_*`` function takes a config and the directory the CLI wrote
its reports to, and returns ``(problems, quality)``: a list of strings, one
per failed check (empty when the output is correct), and a dict of quality
figures read from the report (part count, certificate slack, Herglotz
residual).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)
TWO_PI = 2.0 * math.pi

# Agreement of a reported extremal eigenvalue with eigvalsh, relative to
# lambda_max.
EIG_REL_TOL = 1e-8
# Relative rounding allowed when a reported gamma is compared with the
# oracle's max |Theta|.
GAMMA_REL_TOL = 1e-9
# Herglotz residual below which a complete Clark family certifies the
# identity (the package documents 1e-8).
HERGLOTZ_TOL = 1e-8


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def inner_data(inner: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeros, atom angles and atom masses of a JSON inner-function spec."""
    zeros = np.array([complex(re, im) for re, im in inner.get("blaschke_zeros", [])])
    atoms = inner.get("singular_atoms", [])
    angles = np.array([float(a["angle"]) for a in atoms])
    masses = np.array([float(a["mass"]) for a in atoms])
    return zeros, angles, masses


def theta(inner: dict, z) -> np.ndarray:
    """Theta(z) = prod b_eta(z) * exp(-sum m (tau + z)/(tau - z))."""
    zeros, angles, masses = inner_data(inner)
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    for eta in zeros:
        if eta == 0:
            out = out * z
        else:
            out = out * (abs(eta) / eta) * (eta - z) / (1.0 - np.conj(eta) * z)
    if len(angles):
        tau = np.exp(1j * angles)
        w = z.ravel()
        s = np.sum(masses[:, None] * (tau[:, None] + w) / (tau[:, None] - w), axis=0)
        out = out * np.exp(-s).reshape(z.shape)
    return out


def boundary_rate(inner: dict, angles) -> np.ndarray:
    """|Theta'(e^{it})| = sum (1-|eta|^2)/|zeta-eta|^2 + 2 sum m/|zeta-tau|^2."""
    zeros, atom_angles, masses = inner_data(inner)
    zeta = np.exp(1j * np.asarray(angles, dtype=float))
    out = np.zeros(zeta.shape)
    for eta in zeros:
        out = out + (1.0 - abs(eta) ** 2) / np.abs(zeta - eta) ** 2
    for a, m in zip(atom_angles, masses):
        out = out + 2.0 * m / np.abs(zeta - np.exp(1j * a)) ** 2
    return out


def pseudohyperbolic_matrix(z) -> np.ndarray:
    """rho_ij = |(z_i - z_j)/(1 - conj(z_j) z_i)|, zero on the diagonal."""
    z = np.asarray(z, dtype=complex)
    return np.abs((z[:, None] - z[None, :]) / (1.0 - np.conj(z[None, :]) * z[:, None]))


def carleson_delta(z) -> float:
    """min_i prod_{k != i} rho(z_i, z_k); 1 for a single point."""
    z = np.asarray(z, dtype=complex)
    if len(z) == 1:
        return 1.0
    rho = pseudohyperbolic_matrix(z)
    np.fill_diagonal(rho, 1.0)
    with np.errstate(divide="ignore"):
        logs = np.sum(np.log(rho), axis=1)
    return float(np.exp(np.min(logs)))


def phi(delta: float) -> float:
    """Interpolation-constant bound (2 - d^2 + 2 sqrt(1 - d^2)) / d^2."""
    d2 = delta * delta
    return (2.0 - d2 + 2.0 * math.sqrt(max(0.0, 1.0 - d2))) / d2


def model_gram(inner: dict, z) -> np.ndarray:
    """Normalised reproducing-kernel Gram section of interior points."""
    z = np.asarray(z, dtype=complex)
    t = theta(inner, z)
    k = (1.0 - np.conj(t)[None, :] * t[:, None]) / (1.0 - np.conj(z)[None, :] * z[:, None])
    s = 1.0 / np.sqrt(np.real(np.diag(k)))
    return k * s[:, None] * s[None, :]


def kernel_norm_sq(inner: dict, z) -> np.ndarray:
    """(1 - |Theta(z)|^2)/(1 - |z|^2) at interior points."""
    z = np.asarray(z, dtype=complex)
    return (1.0 - np.abs(theta(inner, z)) ** 2) / (1.0 - np.abs(z) ** 2)


def exp_gram(a: float, freqs) -> np.ndarray:
    """Normalised Gram of exp(i l t) on (-a, a): <e_l, e_m> = 2 sin(a w)/w, w = l - conj(m)."""
    f = np.asarray(freqs, dtype=complex)
    w = f[:, None] - np.conj(f)[None, :]
    aw = a * w
    small = np.abs(aw) < 1e-6
    safe = np.where(small, 1.0, w)
    ip = np.where(small, 2.0 * a * (1.0 - aw * aw / 6.0), 2.0 * np.sin(a * safe) / safe)
    s = 1.0 / np.sqrt(np.real(np.diag(ip)))
    return ip * s[:, None] * s[None, :]


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------

def _close(got: float, want: float, rel: float, absolute: float = 0.0) -> bool:
    return abs(got - want) <= rel * max(abs(want), abs(got)) + absolute


def check_frame_bounds(fb: dict, g: np.ndarray, what: str) -> list[str]:
    """Reported extremal eigenvalues against eigvalsh.

    lambda_min must agree within EIG_REL_TOL * lambda_max.  When eigvalsh
    finds the section numerically singular (lambda_min <= n eps lambda_max),
    a report above that threshold claims a definiteness the section lacks.
    """
    w = np.linalg.eigvalsh(g)
    lo, hi = float(w[0]), float(w[-1])
    n = g.shape[0]
    problems = []
    if fb.get("n") != n:
        problems.append(f"{what}: frame bounds n={fb.get('n')} for {n} rows")
    if abs(fb["lambda_max"] - hi) > EIG_REL_TOL * hi:
        problems.append(f"{what}: lambda_max {fb['lambda_max']!r} vs eigvalsh {hi!r}")
    if abs(fb["lambda_min"] - lo) > EIG_REL_TOL * hi:
        problems.append(f"{what}: lambda_min {fb['lambda_min']!r} vs eigvalsh {lo!r}")
    singular_floor = n * EPS * hi
    if lo <= singular_floor < fb["lambda_min"]:
        problems.append(
            f"{what}: lambda_min {fb['lambda_min']!r} reported for a numerically singular "
            f"section (eigvalsh {lo!r}, n*eps*lambda_max {singular_floor!r})"
        )
    return problems


def check_coverage(parts: list[dict], n: int) -> list[str]:
    ids = [pid for part in parts for pid in part["ids"]]
    if sorted(ids) != list(range(n)):
        dup = len(ids) - len(set(ids))
        missing = len(set(range(n)) - set(ids))
        return [f"partition covers ids inexactly: {missing} missing, {dup} repeated"]
    return []


def check_interp_part(
    part: dict, z: np.ndarray, gamma_min: float, what: str
) -> tuple[list[str], float]:
    """delta_j from the pairwise matrix, gamma * phi(delta_j) < 1, reported slack.

    ``gamma_min`` is the largest |Theta| over the part's points: a reported
    gamma below it understates the off-spectrum bound.
    """
    cert = part["certificate"]
    problems = []
    delta = carleson_delta(z)
    if not _close(cert["delta_j"], delta, 1e-8, 1e-300):
        problems.append(f"{what}: delta_j {cert['delta_j']!r} vs pairwise {delta!r}")
    gamma = cert["gamma"]
    # the program evaluates Theta its own way (for pw, through the Cayley
    # round trip), which moves |Theta| by about 1e-12 relative
    if gamma < gamma_min * (1.0 - GAMMA_REL_TOL):
        problems.append(f"{what}: gamma {gamma!r} below max |Theta| {gamma_min!r}")
    bound = gamma * phi(delta) if delta > 0.0 else math.inf
    if not bound < 1.0:
        problems.append(f"{what}: gamma*phi(delta_j) = {bound!r} is not < 1")
    if not _close(cert["dist_bound"], gamma * cert["earl_value"], 1e-12):
        problems.append(f"{what}: dist_bound is not gamma*phi(delta_j)")
    return problems, 1.0 - cert["dist_bound"]


def _points(config: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in config["points"]])


def _read_json(path: Path) -> dict:
    with open(path) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------------
# per-command checks
# ---------------------------------------------------------------------------

def check_analyze(config: dict, out: Path) -> tuple[list[str], dict]:
    report = _read_json(out / "analyze.json")
    inner, z = config["inner"], _points(config)
    problems = check_frame_bounds(report["frame_bounds"], model_gram(inner, z), "section")
    gamma = float(np.max(np.abs(theta(inner, z))))
    if not _close(report["gamma"], gamma, 1e-12):
        problems.append(f"gamma {report['gamma']!r} vs max |Theta| {gamma!r}")
    norms = np.array([entry["value"] for entry in report["kernel_norms_sq"]])
    want = kernel_norm_sq(inner, z)
    bad = np.abs(norms - want) > 1e-8 * np.abs(want)
    if np.any(bad):
        problems.append(f"{int(np.sum(bad))} kernel norms disagree with (1-|Theta|^2)/(1-|z|^2)")
    delta = carleson_delta(z)
    if not _close(report["carleson"]["delta"], delta, 1e-8, 1e-300):
        problems.append(f"carleson delta {report['carleson']['delta']!r} vs pairwise {delta!r}")
    return problems, {}


def check_split_interp(config: dict, out: Path) -> tuple[list[str], dict]:
    report = _read_json(out / "partition.json")
    inner, z = config["inner"], _points(config)
    parts = report["parts"]
    problems = check_coverage(parts, len(z))
    gamma_all = float(np.max(np.abs(theta(inner, z))))
    slacks = []
    for k, part in enumerate(parts):
        sub = z[part["ids"]]
        p, slack = check_interp_part(part, sub, gamma_all, f"part {k}")
        problems += p
        slacks.append(slack)
        problems += check_frame_bounds(
            part["certificate"]["frame_bounds"], model_gram(inner, sub), f"part {k}"
        )
    return problems, {"parts": len(parts), "slack_min": min(slacks)}


def _geometry(out: Path) -> list[tuple[float, float, int, float, float]]:
    with open(out / "geometry.csv") as handle:
        rows = list(csv.DictReader(handle))
    return [
        (float(r["theta_lo"]), float(r["theta_hi"]), int(r["level"]),
         float(r["inner_radius"]), float(r["mass"]))
        for r in rows
    ]


def _square_index(arcs, z: complex) -> int | None:
    """Index of the square (lo, hi] x [inner_radius, 1] holding z, if any."""
    r = abs(z)
    ang = math.atan2(z.imag, z.real)
    for idx, (lo, hi, _level, radius, _mass) in enumerate(arcs):
        if r < radius:
            continue
        d = (ang - lo) % TWO_PI
        if 1e-12 < d <= (hi - lo) + 1e-12:
            return idx
    return None


def check_split_squares(config: dict, out: Path) -> tuple[list[str], dict]:
    report = _read_json(out / "partition.json")
    inner, z = config["inner"], _points(config)
    parts = report["parts"]
    problems = check_coverage(parts, len(z))
    level_count = report["global"]["level_count"]
    arcs = _geometry(out)

    # each arc carries angular mass 1/N: 64-node Gauss-Legendre per arc
    nodes, weights = np.polynomial.legendre.leggauss(64)
    lo = np.array([a[0] for a in arcs])
    hi = np.array([a[1] for a in arcs])
    t = 0.5 * (hi - lo)[:, None] * nodes[None, :] + 0.5 * (hi + lo)[:, None]
    mass = 0.5 * (hi - lo) * (boundary_rate(inner, t) @ weights) / TWO_PI
    bad = np.abs(mass * level_count - 1.0) > 1e-6
    if np.any(bad):
        problems.append(f"{int(np.sum(bad))} arcs miss angular mass 1/N")

    square_of = [_square_index(arcs, complex(w)) for w in z]
    slacks = []
    for k, part in enumerate(parts):
        ids = part["ids"]
        sub = z[ids]
        route = part["route"]
        if route.startswith("square:"):
            level = int(route.split(":")[1])
            held = [square_of[i] for i in ids]
            if None in held or len(set(held)) != len(held):
                problems.append(f"part {k} ({route}): points not in distinct squares")
            elif any(arcs[s][2] != level for s in held):
                problems.append(f"part {k} ({route}): point in a square of another level")
        elif route == "uncovered:interp":
            if any(square_of[i] is not None for i in ids):
                problems.append(f"part {k}: uncovered point lies in a square")
            gamma_pts = float(np.max(np.abs(theta(inner, sub))))
            p, slack = check_interp_part(part, sub, gamma_pts, f"part {k}")
            problems += p
            slacks.append(slack)
        problems += check_frame_bounds(
            part["certificate"]["frame_bounds"], model_gram(inner, sub), f"part {k}"
        )
    quality = {"parts": len(parts)}
    if slacks:
        quality["slack_min"] = min(slacks)
    return problems, quality


def check_clark(config: dict, out: Path) -> tuple[list[str], dict]:
    """Level points solve Theta = alpha; Blaschke data gives exactly degree points."""
    report = _read_json(out / "clark.json")
    inner = config["inner"]
    alpha = complex(*config["alpha"])
    angles = np.array(report["points"], dtype=float)
    zeros, atom_angles, _ = inner_data(inner)
    problems = []
    if not len(atom_angles) and len(angles) != len(zeros):
        problems.append(f"{len(angles)} level points for degree {len(zeros)}")
    if len(angles):
        gaps = np.diff(np.sort(angles))
        if len(gaps) and np.min(gaps) <= 1e-10:
            problems.append("level points repeat")
        rate = boundary_rate(inner, angles)
        resid = np.abs(theta(inner, np.exp(1j * angles)) - alpha)
        tol = 1e-9 + 32.0 * EPS * rate * np.maximum(1.0, np.abs(angles))
        if np.any(resid > tol):
            problems.append(f"level-point residual {float(np.max(resid))!r} above tolerance")
        if np.any(np.abs(np.array(report["derivs"]) - rate) > 1e-9 * rate):
            problems.append("level-point derivatives disagree with |Theta'|")
        if np.any(np.abs(np.array(report["weights"]) * rate - 1.0) > 1e-9):
            problems.append("weights are not 1/|Theta'|")

    # the CLI's Herglotz grid, recomputed: Re (alpha+T)/(alpha-T) vs Poisson sum
    grid_n = config.get("options", {}).get("herglotz_grid", 100)
    side = max(1, math.isqrt(grid_n))
    r = 0.05 + 0.85 * np.arange(side) / max(1, side - 1)
    ang = TWO_PI * (np.arange(side) + 0.37) / side
    w = (r[:, None] * np.exp(1j * ang[None, :])).ravel()
    t = theta(inner, w)
    lhs = np.real((alpha + t) / (alpha - t))
    tau = np.exp(1j * angles)
    weights = np.array(report["weights"], dtype=float)
    rhs = (1.0 - np.abs(w) ** 2) * np.sum(
        weights[None, :] / np.abs(tau[None, :] - w[:, None]) ** 2, axis=1
    )
    worst = float(np.max(np.abs(lhs - rhs)))
    got = report["herglotz_residual_max"]
    certifying = report["herglotz_certifying"]
    if certifying != (not report["truncated"]):
        problems.append("herglotz_certifying disagrees with truncated")
    if certifying:
        if got > HERGLOTZ_TOL or worst > HERGLOTZ_TOL:
            problems.append(
                f"complete family misses the Herglotz identity: {got!r} (oracle {worst!r})"
            )
    elif not _close(got, worst, 1e-6, 1e-12):
        problems.append(f"herglotz_residual_max {got!r} vs recomputed {worst!r}")
    quality = {"level_points": len(angles)}
    if certifying:
        quality["herglotz_residual"] = got
    return problems, quality


def cayley_shifted(freqs) -> np.ndarray:
    """Disk images (z - i)/(z + i) of the frequencies shifted by +i."""
    z = np.asarray(freqs, dtype=complex) + 1j
    return (z - 1j) / (z + 1j)


def check_pw(config: dict, out: Path) -> tuple[list[str], dict]:
    report = _read_json(out / "pw.json")
    a = float(config["pw"]["a"])
    freqs = np.array([complex(re, im) for re, im in config["pw"]["freqs"]])
    problems = check_frame_bounds(report["frame_bounds"], exp_gram(a, freqs), "system")
    quality: dict = {}
    if "partition" in report:
        parts = report["partition"]["parts"]
        problems += check_coverage(parts, len(freqs))
        disk = cayley_shifted(freqs)
        # the transported symbol exp(i a z) has modulus exp(-a (Im l + 1))
        modulus = np.exp(-a * (freqs.imag + 1.0))
        gamma_all = float(np.max(modulus))
        slacks = []
        for k, part in enumerate(parts):
            ids = part["ids"]
            p, slack = check_interp_part(part, disk[ids], gamma_all, f"part {k}")
            problems += p
            slacks.append(slack)
            problems += check_frame_bounds(
                part["certificate"]["frame_bounds"], exp_gram(a, freqs[ids]), f"part {k}"
            )
        quality = {"parts": len(parts), "slack_min": min(slacks)}
    return problems, quality


CHECKS = {
    "analyze": check_analyze,
    "clark": check_clark,
    "pw": check_pw,
    ("split", "interp"): check_split_interp,
    ("split", "squares"): check_split_squares,
}


def check(command: str, config: dict, out: Path) -> tuple[list[str], dict]:
    key = (command, config["mode"]) if command == "split" else command
    return CHECKS[key](config, out)
