"""Command-line front end: JSON configs in, JSON/CSV reports out.

Subcommands
-----------
``analyze``  sequence diagnostics: Carleson report, frame bounds, gamma,
             per-point kernel norms.
``split``    runs a decomposition (mode "interp" or "squares") and writes
             the partition plus CSV plot data.
``clark``    builds a level-set family and its Herglotz residual report.
``pw``       exponential-system report, optionally with a split.

Exit codes: 0 ok, 2 configuration, 3 numeric domain, 4 certification.
Malformed options exit 2: counts are JSON integers >= 1, ``max_depth`` one
>= 0, ``split`` true or false, and ``riesz_floor`` a finite number.

Reports are compact, sorted-key JSON and deterministic: no timestamps; the only
provenance is a ``generated_by`` field carrying the tool version.  Output
files are written atomically (temp file + rename).  A config file may hold
a list of configs; the sweep runs each entry, in order, into its own
subdirectory.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .carleson import carleson_report
from .clark import herglotz_residuals, level_set
from .decompose import Partition, decompose_by_squares, split_by_interpolation
from .errors import CertificationError, ConfigError, MslabError, NumericDomainError
from .gram import extremal_eigs, section_frame_bounds
from .inner import InnerFunction, normalized_values
from .points import PointSequence
from .pw import ExpSystem, pw_gram, pw_split

_FINITE_SECTION_NOTE = (
    "finite-section certificate: necessary, not sufficient, for the "
    "corresponding infinite statement"
)


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------

def _require_keys(obj: dict, allowed: set[str], required: set[str], what: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} must be a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} keys: {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ConfigError(f"missing {what} keys: {sorted(missing)}")


def _parse_points(raw: Any) -> PointSequence:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'points' must be a non-empty list")
    z = np.zeros(len(raw), dtype=complex)
    angle = np.full(len(raw), math.nan)
    for i, entry in enumerate(raw):
        if isinstance(entry, dict):
            _require_keys(entry, {"angle"}, {"angle"}, f"point {i}")
            angle[i] = _number(entry["angle"], f"point {i}")
        elif isinstance(entry, list) and len(entry) == 2:
            z[i] = complex(_number(entry[0], f"point {i}"), _number(entry[1], f"point {i}"))
        else:
            raise ConfigError(f"point {i} must be [re, im] or {{\"angle\": a}}")
    return PointSequence.from_mixed(z, angle)


def _number(raw: Any, what: str) -> float:
    """A finite JSON number (bool excluded), else ConfigError."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)) or not math.isfinite(raw):
        raise ConfigError(f"{what} must hold finite numbers, got {raw!r}")
    return float(raw)


def _integer(raw: Any, what: str, least: int = 1) -> int:
    """A JSON integer (bool excluded) of at least ``least``, else ConfigError."""
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < least:
        raise ConfigError(f"{what} must be an integer >= {least}, got {raw!r}")
    return raw


def _boolean(raw: Any, what: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{what} must be true or false, got {raw!r}")
    return raw


_DEPTH = functools.partial(_integer, least=0)


def _parse_options(raw: Any, allowed: dict[str, Callable[[Any, str], Any]]) -> dict:
    """Options checked by their parsers (``_number``, ``_boolean``, ``_integer``, ``_DEPTH``)."""
    if raw is None:
        return {}
    _require_keys(raw, set(allowed), set(), "options")
    return {key: allowed[key](value, f"option {key!r}") for key, value in raw.items()}


def _parse_alpha(raw: Any) -> complex:
    if isinstance(raw, list) and len(raw) == 2:
        return complex(_number(raw[0], "'alpha'"), _number(raw[1], "'alpha'"))
    raise ConfigError("'alpha' must be [re, im] on the unit circle")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    payload = dict(payload)
    payload["generated_by"] = f"mslab {__version__}"
    _atomic_write(path, json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    _atomic_write(path, buf.getvalue())


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(config: dict, out_dir: Path) -> None:
    _require_keys(config, {"inner", "points", "options"}, {"inner", "points"}, "config")
    theta = InnerFunction.from_json_dict(config["inner"])
    seq = _parse_points(config["points"])
    opts = _parse_options(config.get("options"), {"riesz_floor": _number})
    floor = opts.get("riesz_floor", 0.5)

    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    gamma = float(np.abs(values).max())
    has_boundary = bool(seq.boundary.any())

    interior = seq.interior_only()
    carleson = carleson_report(interior).to_json_dict() if len(interior) else None
    fb = section_frame_bounds(theta, seq.z, values, norms, seq.ids)

    report = {
        "carleson": carleson,
        "frame_bounds": fb.to_json_dict(fb.verdict_at(floor)),
        "frame_bounds_note": _FINITE_SECTION_NOTE,
        "gamma": gamma,
        "gamma_flag": "boundary points" if has_boundary else None,
        "kernel_norms_sq": [
            {"id": pid, "value": ns} for pid, ns in zip(seq.ids.tolist(), norms.tolist())
        ],
        "riesz_floor": floor,
    }
    _write_json(out_dir / "analyze.json", report)


def _partition_csvs(
    out_dir: Path, seq: PointSequence, partition: Partition
) -> None:
    route_of = {}
    part_of = {}
    for idx, part in enumerate(partition.parts):
        for pid in part.ids:
            part_of[pid] = idx
            route_of[pid] = part.route
    _write_csv(
        out_dir / "points.csv",
        ["id", "re", "im", "part", "route"],
        [
            [pid, re, im, part_of[pid], route_of[pid]]
            for pid, re, im in zip(seq.ids.tolist(), seq.z.real.tolist(), seq.z.imag.tolist())
        ],
    )
    rows = []
    for idx, part in enumerate(partition.parts):
        cert = part.certificate
        fb = cert.frame_bounds
        rows.append(
            [
                idx,
                part.route,
                len(part.ids),
                cert.delta_j if cert.delta_j is not None else "",
                cert.earl_value if cert.earl_value is not None else "",
                cert.gamma if cert.gamma is not None else "",
                cert.dist_bound if cert.dist_bound is not None else "",
                fb.lambda_min if fb is not None else "",
                fb.lambda_max if fb is not None else "",
            ]
        )
    _write_csv(
        out_dir / "parts.csv",
        [
            "part",
            "route",
            "n_points",
            "delta_j",
            "earl_value",
            "gamma",
            "dist_bound",
            "lambda_min",
            "lambda_max",
        ],
        rows,
    )


def cmd_split(config: dict, out_dir: Path) -> None:
    _require_keys(
        config, {"inner", "points", "mode", "options"}, {"inner", "points", "mode"}, "config"
    )
    theta = InnerFunction.from_json_dict(config["inner"])
    seq = _parse_points(config["points"])
    mode = config["mode"]
    opts = _parse_options(
        config.get("options"),
        {
            "level_count": _integer,
            "samples": _integer,
            "max_depth": _DEPTH,
            "max_points_per_arc": _integer,
        },
    )
    if mode not in ("interp", "squares"):
        raise ConfigError(f"mode must be 'interp' or 'squares', got {mode!r}")
    try:
        if mode == "interp":
            partition = split_by_interpolation(
                theta, seq, max_depth=opts.get("max_depth", 20)
            )
        else:
            partition = decompose_by_squares(
                theta,
                seq,
                opts.get("level_count"),
                samples=opts.get("samples", 4096),
                max_depth=opts.get("max_depth", 20),
                max_points_per_arc=opts.get("max_points_per_arc", 512),
            )
    except CertificationError as exc:
        # preserve what can be preserved: a partition file with the failure
        _write_json(
            out_dir / "partition.json",
            {"parts": [], "global": {}, "flags": [f"failed: {exc}"], "failed": True},
        )
        raise

    _write_json(out_dir / "partition.json", partition.to_json_dict())
    _partition_csvs(out_dir, seq, partition)

    if mode == "squares":
        _write_csv(
            out_dir / "geometry.csv",
            ["arc", "level", "theta_lo", "theta_hi", "inner_radius", "mass"],
            [
                [i, arc.level, arc.lo, arc.hi, arc.inner_radius, arc.mass]
                for i, arc in enumerate(partition.arcs.arcs)
            ],
        )


def cmd_clark(config: dict, out_dir: Path) -> None:
    _require_keys(config, {"inner", "alpha", "options"}, {"inner", "alpha"}, "config")
    theta = InnerFunction.from_json_dict(config["inner"])
    alpha = _parse_alpha(config["alpha"])
    opts = _parse_options(
        config.get("options"), {"max_points_per_arc": _integer, "herglotz_grid": _integer}
    )
    family = level_set(theta, alpha, opts.get("max_points_per_arc", 512))

    grid_n = opts.get("herglotz_grid", 100)
    side = max(1, int(math.isqrt(grid_n)))
    r = 0.05 + 0.85 * np.arange(side) / max(1, side - 1)
    ang = 2.0 * math.pi * (np.arange(side) + 0.37) / side
    grid = (r[:, None] * np.exp(1j * ang[None, :])).ravel()
    report = family.to_json_dict()
    report["herglotz_residual_max"] = float(herglotz_residuals(theta, family, grid).max())
    report["herglotz_certifying"] = not family.truncated
    _write_json(out_dir / "clark.json", report)


def cmd_pw(config: dict, out_dir: Path) -> None:
    _require_keys(config, {"pw", "options"}, {"pw"}, "config")
    system = ExpSystem.from_json_dict(config["pw"])
    opts = _parse_options(config.get("options"), {"split": _boolean, "max_depth": _DEPTH})
    fb = extremal_eigs(pw_gram(system))
    report = {
        "system": system.to_json_dict(),
        "frame_bounds": fb.to_json_dict(),
        "frame_bounds_note": _FINITE_SECTION_NOTE,
    }
    if opts.get("split", False):
        partition = pw_split(system, max_depth=opts.get("max_depth", 20))
        report["partition"] = partition.to_json_dict()
    _write_json(out_dir / "pw.json", report)


_COMMANDS = {
    "analyze": cmd_analyze,
    "split": cmd_split,
    "clark": cmd_clark,
    "pw": cmd_pw,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _run_one(command: str, config: dict, out_dir: Path) -> None:
    if not isinstance(config, dict):
        raise ConfigError("config entry must be a JSON object")
    _COMMANDS[command](config, out_dir)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mslab",
        description="model-subspace kernel geometry: diagnostics and decompositions",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a JSON config")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--seed", type=int, default=None, help="accepted and ignored; no computation is random"
    )
    args = parser.parse_args(argv)

    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"mslab: cannot read config: {exc}", file=sys.stderr)
        return 2

    out_dir = Path(args.out)
    try:
        if isinstance(config, list):
            for i, entry in enumerate(config):
                _run_one(args.command, entry, out_dir / f"run_{i:03d}")
        else:
            _run_one(args.command, config, out_dir)
    except ConfigError as exc:
        print(f"mslab: config error: {exc}", file=sys.stderr)
        return 2
    except NumericDomainError as exc:
        print(f"mslab: numeric domain error: {exc}", file=sys.stderr)
        return 3
    except CertificationError as exc:
        print(f"mslab: certification failure: {exc}", file=sys.stderr)
        return 4
    except MslabError as exc:
        print(f"mslab: error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
