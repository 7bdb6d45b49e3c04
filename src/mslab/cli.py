"""Command-line front end: JSON configs in, JSON/CSV reports out.

Subcommands
-----------
``analyze``  sequence diagnostics: Carleson report, frame bounds, gamma,
             per-point kernel norms; the verdict is "certified_riesz" when
             lambda_min >= ``riesz_floor``, else "indeterminate".
``split``    runs a decomposition (mode "interp" or "squares") and writes
             the partition plus CSV plot data.
``clark``    builds a level-set family and its Herglotz residual report.
``pw``       exponential-system report, optionally with a split.

This is the one module that knows the file formats, both ways.  Configs
are read by ``_parse_inner``, ``_parse_pw`` and ``_parse_points`` on one
number rule, ``_number``: a finite JSON number, not a bool or a string.
Each ``[re, im]`` pair (a point, zero, frequency or ``alpha``) is read by
``_pair``.  Each report's keys are spelled out here, next to its writer;
the library types carry only the mathematics.  Every partition's parts are
rendered from its columns into fixed templates whose fields follow the
sorted keys; each distinct number is encoded once for both
``partition.json`` and ``parts.csv``.

Exit codes: 0 ok, 2 configuration, 3 numeric domain, 4 certification.
Malformed config values exit 2: numbers (of points, zeros, atoms, pw
systems and ``riesz_floor``) are finite JSON numbers, ``riesz_floor`` is
> 0 (a floor of 0 would certify a singular section), counts are JSON
integers >= 1 and ``split`` true or false; an unknown key of a config, an
inner function, an atom, a pw system or the options exits 2 as well, and
the message names the entry.

Reports are compact, sorted-key JSON and deterministic: no timestamps; the only
provenance is a ``generated_by`` field carrying the tool version.  Output
files are written atomically: to ``<name>.<pid>.tmp`` beside the report,
then renamed onto it; they take the process umask.  A config file may hold
a list of configs; the sweep runs each entry, in order, into its own
subdirectory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import __version__
from .carleson import carleson_report
from .clark import herglotz_residuals, level_set
from .decompose import Partition, decompose_by_squares, split_by_interpolation
from .errors import CertificationError, ConfigError, MslabError, NumericDomainError
from .gram import block_frame_bounds, part_frame_bounds
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
    """Points from ``[re, im]`` pairs and ``{"angle": a}`` objects.

    A list of finite number pairs alone takes one type scan and one
    ``np.array``; the real and imaginary parts are the float pairs' bits
    (a ``-0.0`` kept).  Any other list goes entry by entry, which also
    names the first bad entry.
    """
    if not isinstance(raw, list) or not raw:
        raise ConfigError("'points' must be a non-empty list")
    xy = _number_pairs(raw)
    if xy is not None:
        return PointSequence.from_complex(xy.view(complex).ravel())
    z = np.zeros(len(raw), dtype=complex)
    angle = np.full(len(raw), math.nan)
    for i, entry in enumerate(raw):
        if isinstance(entry, dict):
            _require_keys(entry, {"angle"}, {"angle"}, f"point {i}")
            angle[i] = _number(entry["angle"], f"point {i}")
        else:
            z[i] = _pair(entry, f"point {i}", '[re, im] or {"angle": a}')
    return PointSequence.from_mixed(z, angle)


def _parse_inner(raw: Any) -> InnerFunction:
    """An inner function from ``{"blaschke_zeros": [[re, im], ...],
    "singular_atoms": [{"angle": a, "mass": m}, ...]}``, both keys optional."""
    _require_keys(raw, {"blaschke_zeros", "singular_atoms"}, set(), "inner function")
    zeros = _pairs(raw.get("blaschke_zeros", []), "'blaschke_zeros'", "zero")
    atoms = raw.get("singular_atoms", [])
    if not isinstance(atoms, list):
        raise ConfigError(f"'singular_atoms' must be a list, got {atoms!r}")
    pairs = []
    for i, atom in enumerate(atoms):
        _require_keys(atom, {"angle", "mass"}, {"angle", "mass"}, f"atom {i}")
        pairs.append((_number(atom["angle"], f"atom {i}"), _number(atom["mass"], f"atom {i}")))
    return InnerFunction(tuple(zeros), tuple(pairs))


def _parse_pw(raw: Any) -> ExpSystem:
    """An exponential system from ``{"a": a, "freqs": [[re, im], ...]}``."""
    _require_keys(raw, {"a", "freqs"}, {"a", "freqs"}, "exponential system")
    return ExpSystem(_number(raw["a"], "'a'"), tuple(_pairs(raw["freqs"], "'freqs'", "frequency")))


def _pairs(raw: Any, what: str, entry: str) -> list[complex]:
    """A list of ``[re, im]`` pairs; ``what`` names the list and ``entry`` one pair."""
    if not isinstance(raw, list):
        raise ConfigError(f"{what} must be a list of [re, im] pairs, got {raw!r}")
    return [_pair(pair, f"{entry} {i}") for i, pair in enumerate(raw)]


def _pair(raw: Any, what: str, shape: str = "[re, im]") -> complex:
    """An ``[re, im]`` pair of finite JSON numbers as a complex number, else ConfigError."""
    if not isinstance(raw, list) or len(raw) != 2:
        raise ConfigError(f"{what} must be {shape}, got {raw!r}")
    return complex(_number(raw[0], what), _number(raw[1], what))


def _number_pairs(raw: list) -> np.ndarray | None:
    """The (n, 2) float array of a list of [re, im] pairs of finite JSON numbers, else None."""
    if (
        set(map(type, raw)) != {list}
        or set(map(len, raw)) != {2}
        or not set(map(type, itertools.chain.from_iterable(raw))) <= {int, float}
    ):
        return None
    try:
        xy = np.array(raw, dtype=float)
    except OverflowError:  # an integer beyond the float range
        return None
    return xy if np.isfinite(xy).all() else None


def _number(raw: Any, what: str) -> float:
    """A finite JSON number (bool excluded), else ConfigError."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float)):
        try:
            value = float(raw)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if math.isfinite(value):
            return value
    raise ConfigError(f"{what} must hold finite numbers, got {raw!r}")


def _positive(raw: Any, what: str) -> float:
    """A finite JSON number > 0, else ConfigError."""
    value = _number(raw, what)
    if not value > 0.0:
        raise ConfigError(f"{what} must be a number > 0, got {raw!r}")
    return value


def _integer(raw: Any, what: str) -> int:
    """A JSON integer (bool excluded) of at least 1, else ConfigError."""
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise ConfigError(f"{what} must be an integer >= 1, got {raw!r}")
    return raw


def _boolean(raw: Any, what: str) -> bool:
    if not isinstance(raw, bool):
        raise ConfigError(f"{what} must be true or false, got {raw!r}")
    return raw


def _parse_options(raw: Any, allowed: dict[str, Callable[[Any, str], Any]]) -> dict:
    """Options checked by their parsers (``_number``, ``_boolean``, ``_integer``)."""
    if raw is None:
        return {}
    _require_keys(raw, set(allowed), set(), "options")
    return {key: allowed[key](value, f"option {key!r}") for key, value in raw.items()}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

_WRITE_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_TRUNC


def _atomic_write(path: Path, text: str) -> None:
    """Write ``text`` to ``<path>.<pid>.tmp`` and rename it onto ``path``.

    The bytes are ``text.encode()``, written with ``os.write`` until none
    is left; reports are ASCII (``json`` escapes the rest), so they are the
    text's characters one for one.  The file takes the process umask, as
    ``open`` would give it.  The directory is made only when the open finds
    it missing, so a run that fails before its first report leaves no
    directory behind.  The temp file is removed on any failure.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(tmp, _WRITE_FLAGS, 0o666)
    try:
        try:
            data = memoryview(text.encode())
            while data:
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class _Json(str):
    """JSON text already rendered, which ``_json_object`` takes as it is."""


def _json_object(fields: dict) -> str:
    """Compact sorted-key JSON of ``fields``; a ``_Json`` value goes in as it is."""
    if not any(isinstance(value, _Json) for value in fields.values()):
        return _dumps(fields)
    return "{" + ",".join(
        json.dumps(key) + ":" + (value if isinstance(value, _Json) else _dumps(value))
        for key, value in sorted(fields.items())
    ) + "}"


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, _json_object({**payload, "generated_by": f"mslab {__version__}"}) + "\n")


def _write_csv(path: Path, header: str, rows: list[str]) -> None:
    """CSV from rows already joined: none of the program's fields needs quoting."""
    _atomic_write(path, "\n".join([header, *rows]) + "\n")


# ---------------------------------------------------------------------------
# commands and their reports
# ---------------------------------------------------------------------------

def _frame_bounds_json(low: float, high: float, n: int) -> dict:
    return {"lambda_min": low, "lambda_max": high, "n": n}


# One entry of analyze.json's kernel_norms_sq.  The norms are finite, as
# part_frame_bounds has checked by then, so repr is the json module's text.
_NORM_JSON = '{{"id":{},"value":{!r}}}'.format


def cmd_analyze(config: dict, out_dir: Path) -> None:
    _require_keys(config, {"inner", "points", "options"}, {"inner", "points"}, "config")
    theta = _parse_inner(config["inner"])
    seq = _parse_points(config["points"])
    opts = _parse_options(config.get("options"), {"riesz_floor": _positive})
    floor = opts.get("riesz_floor", 0.5)

    values, norms = normalized_values(theta, seq.z, seq.angle, seq.ids)
    gamma = float(np.abs(values).max())
    has_boundary = bool(seq.boundary.any())

    interior = seq.interior_only() if has_boundary else seq
    carleson = None
    if len(interior):
        cr = carleson_report(interior)
        carleson = {
            "delta": cr.delta,
            "embedding_sup": cr.embedding_sup,
            "witness_index": cr.witness_index,
        }
    n = len(seq)
    (low,), (high,) = part_frame_bounds(
        theta, seq.z, values, norms, seq.ids, np.arange(n), np.array([0, n])
    )
    verdict = "certified_riesz" if low >= floor else "indeterminate"

    report = {
        "carleson": carleson,
        "frame_bounds": {**_frame_bounds_json(float(low), float(high), n), "verdict": verdict},
        "frame_bounds_note": _FINITE_SECTION_NOTE,
        "gamma": gamma,
        "gamma_flag": "boundary points" if has_boundary else None,
        "kernel_norms_sq": _Json(
            "[" + ",".join(map(_NORM_JSON, seq.ids.tolist(), norms.tolist())) + "]"
        ),
        "riesz_floor": floor,
    }
    _write_json(out_dir / "analyze.json", report)


# One part of partition.json, its fields in sorted-key order: the columns
# below, with n after lambda_min, then the ids, the route and the margins.
_PART_JSON = (
    '{{"certificate":{{"delta_j":{},"dist_bound":{},"earl_value":{},'
    '"frame_bounds":{{"lambda_max":{},"lambda_min":{},"n":{}}},"gamma":{}}},'
    '"ids":[{}],"route":{}{}}}'
).format
_JSON_COLUMNS = (
    "delta_j", "dist_bound", "earl_value", "lambda_max", "lambda_min", "gamma", "margins"
)
# One row of parts.csv: the part, its route and size, then these columns.
_PART_CSV = "{},{},{},{},{},{},{},{},{}".format
_CSV_COLUMNS = ("delta_j", "earl_value", "gamma", "dist_bound", "lambda_min", "lambda_max")
# A number's CSV text where it is not its JSON text: NaN, an absent field, is empty.
_CSV_TEXT = {"null": "", "Infinity": "inf", "-Infinity": "-inf"}


def _column_texts(partition: Partition, names: tuple, encode: Callable) -> list[list[str]]:
    """``encode`` of the columns ``names``, each distinct value (by its bits) encoded once."""
    columns = [getattr(partition, name) for name in names]
    distinct, inverse = np.unique(np.concatenate(columns).view(np.int64), return_inverse=True)
    texts = [encode(v) for v in distinct.view(np.float64).tolist()]
    ends, pick = [0, *itertools.accumulate(c.size for c in columns)], inverse.tolist()
    return [[texts[i] for i in pick[a:b]] for a, b in zip(ends, ends[1:])]


def _json_number(v: float) -> str:
    """``v`` as the json module writes it (``repr`` if finite); NaN, an absent field, as null."""
    return repr(v) if math.isfinite(v) else "null" if v != v else json.dumps(v)


def _partition_json(
    partition: Partition, ids: np.ndarray, numbers: list[list[str]] | None = None
) -> dict:
    """A partition's report fields, ``ids`` labelling the split points.

    ``numbers`` are the JSON texts of its ``_JSON_COLUMNS``, from
    ``_column_texts``; they are encoded here when not given.
    """
    labels = list(map(str, ids[partition.members].tolist()))
    offsets = partition.offsets.tolist()
    routes = {route: json.dumps(route) for route in set(partition.route)}
    marked = (~np.isnan(partition.margins[partition.offsets[:-1]])).tolist()
    if numbers is None:
        numbers = _column_texts(partition, _JSON_COLUMNS, _json_number)
    *numbers, margins = numbers
    parts = [
        _PART_JSON(
            delta_j, dist_bound, earl_value, high, low, b - a, gamma, ",".join(labels[a:b]),
            routes[route], f',"stability_margins":[{",".join(margins[a:b])}]' if marks else "",
        )
        for a, b, route, marks, delta_j, dist_bound, earl_value, high, low, gamma in zip(
            offsets, offsets[1:], partition.route, marked, *numbers
        )
    ]
    parts = _Json("[" + ",".join(parts) + "]")
    return {"flags": list(partition.flags), "global": dict(partition.global_info), "parts": parts}


def _partition_csvs(
    out_dir: Path, seq: PointSequence, partition: Partition, numbers: list[list[str]]
) -> None:
    """points.csv and parts.csv; ``numbers`` are ``_partition_json``'s texts."""
    sizes = np.diff(partition.offsets)
    part_of = np.repeat(np.arange(sizes.size), sizes)[np.argsort(partition.members, kind="stable")]
    points = zip(seq.ids.tolist(), seq.z.real.tolist(), seq.z.imag.tolist(), part_of.tolist())
    rows = [f"{pid},{re!r},{im!r},{k},{partition.route[k]}" for pid, re, im, k in points]
    _write_csv(out_dir / "points.csv", "id,re,im,part,route", rows)
    delta_j, dist_bound, earl_value, high, low, gamma = (
        [_CSV_TEXT.get(text, text) for text in column] for column in numbers[:6]
    )
    rows = list(map(
        _PART_CSV, range(sizes.size), partition.route, sizes.tolist(),
        delta_j, earl_value, gamma, dist_bound, low, high,
    ))
    _write_csv(out_dir / "parts.csv", ",".join(("part", "route", "n_points", *_CSV_COLUMNS)), rows)


def cmd_split(config: dict, out_dir: Path) -> None:
    _require_keys(
        config, {"inner", "points", "mode", "options"}, {"inner", "points", "mode"}, "config"
    )
    theta = _parse_inner(config["inner"])
    seq = _parse_points(config["points"])
    mode = config["mode"]
    if mode not in ("interp", "squares"):
        raise ConfigError(f"mode must be 'interp' or 'squares', got {mode!r}")
    # interp takes no options: level sets belong to the square route
    square_options = {"level_count": _integer, "max_points_per_arc": _integer}
    opts = _parse_options(config.get("options"), square_options if mode == "squares" else {})
    try:
        if mode == "interp":
            partition = split_by_interpolation(theta, seq)
        else:
            partition = decompose_by_squares(theta, seq, **opts)
    except CertificationError as exc:
        # preserve what can be preserved: a partition file with the failure
        _write_json(
            out_dir / "partition.json",
            {"parts": [], "global": {}, "flags": [f"failed: {exc}"], "failed": True},
        )
        raise

    numbers = _column_texts(partition, _JSON_COLUMNS, _json_number)
    _write_json(out_dir / "partition.json", _partition_json(partition, seq.ids, numbers))
    _partition_csvs(out_dir, seq, partition, numbers)

    if mode == "squares":
        arcs = partition.arcs
        columns = (arcs.level, arcs.lo, arcs.hi, arcs.inner_radius, arcs.mass)
        rows = zip(range(len(arcs)), *(c.tolist() for c in columns))
        text = [",".join(map(repr, row)) for row in rows]
        _write_csv(out_dir / "geometry.csv", "arc,level,theta_lo,theta_hi,inner_radius,mass", text)


def cmd_clark(config: dict, out_dir: Path) -> None:
    _require_keys(config, {"inner", "alpha", "options"}, {"inner", "alpha"}, "config")
    theta = _parse_inner(config["inner"])
    alpha = _pair(config["alpha"], "'alpha'")
    opts = _parse_options(
        config.get("options"), {"max_points_per_arc": _integer, "herglotz_grid": _integer}
    )
    grid_n = opts.pop("herglotz_grid", 100)
    family = level_set(theta, alpha, **opts)

    side = max(1, int(math.isqrt(grid_n)))
    r = 0.05 + 0.85 * np.arange(side) / max(1, side - 1)
    ang = 2.0 * math.pi * (np.arange(side) + 0.37) / side
    grid = (r[:, None] * np.exp(1j * ang[None, :])).ravel()
    report = {
        "alpha": [family.alpha.real, family.alpha.imag],
        "points": family.points.tolist(),
        "derivs": family.derivs.tolist(),
        "weights": family.weights.tolist(),
        "truncated": family.truncated,
        "herglotz_residual_max": float(herglotz_residuals(theta, family, grid).max()),
        "herglotz_certifying": not family.truncated,
    }
    _write_json(out_dir / "clark.json", report)


def cmd_pw(config: dict, out_dir: Path) -> None:
    _require_keys(config, {"pw", "options"}, {"pw"}, "config")
    system = _parse_pw(config["pw"])
    opts = _parse_options(config.get("options"), {"split": _boolean})
    g = pw_gram(system)
    n = len(system)
    (low,), (high,) = block_frame_bounds(g, np.arange(n), np.array([0, n]))
    report = {
        "system": {"a": system.a, "freqs": [[f.real, f.imag] for f in system.freqs]},
        "frame_bounds": _frame_bounds_json(float(low), float(high), n),
        "frame_bounds_note": _FINITE_SECTION_NOTE,
    }
    if opts.get("split", False):
        partition = _partition_json(pw_split(system, g), np.arange(len(system)))
        report["partition"] = _Json(_json_object(partition))
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


_PARSER = argparse.ArgumentParser(
    prog="mslab",
    description="model-subspace kernel geometry: diagnostics and decompositions",
)
_PARSER.add_argument("command", choices=sorted(_COMMANDS))
_PARSER.add_argument("--config", required=True, help="path to a JSON config")
_PARSER.add_argument("--out", required=True, help="output directory")
_PARSER.add_argument(
    "--seed", type=int, default=None, help="accepted and ignored; no computation is random"
)


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        with open(args.config) as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # also bad JSON and integers of over 4300 digits
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
