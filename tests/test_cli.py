import csv
import importlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

import mslab.cli as cli
import mslab.decompose as decompose
import mslab.pw as pw
from mslab.cli import main
from mslab.errors import ConfigError

Z2 = {"blaschke_zeros": [[0.0, 0.0], [0.0, 0.0]], "singular_atoms": []}
Z3 = {"blaschke_zeros": [[0.0, 0.0]] * 3, "singular_atoms": []}


def _write(path, payload) -> str:
    path.write_text(json.dumps(payload))
    return str(path)


def test_analyze_example(tmp_path) -> None:
    cfg = _write(
        tmp_path / "cfg.json", {"inner": Z2, "points": [[0.0, 0.0], [0.5, 0.0]]}
    )
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "analyze.json").read_text())
    assert report["carleson"]["delta"] == pytest.approx(0.5)
    assert report["frame_bounds"]["lambda_max"] == pytest.approx(1 + 0.894427190999916)
    assert report["frame_bounds"]["lambda_min"] == pytest.approx(1 - 0.894427190999916)
    assert report["gamma"] == pytest.approx(0.25)
    assert report["gamma_flag"] is None


def test_analyze_boundary_family_flagged(tmp_path) -> None:
    pts = [{"angle": 2 * math.pi * k / 3} for k in range(3)]
    cfg = _write(tmp_path / "cfg.json", {"inner": Z3, "points": pts})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "analyze.json").read_text())
    assert report["gamma"] == pytest.approx(1.0)
    assert report["gamma_flag"] == "boundary points"
    assert report["carleson"] is None
    assert report["frame_bounds"]["verdict"] == "certified_riesz"


def test_reports_are_deterministic_and_round_trip(tmp_path) -> None:
    cfg = _write(
        tmp_path / "cfg.json", {"inner": Z2, "points": [[0.1, 0.2], [0.5, 0.0]]}
    )
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "analyze.json").read_bytes()
    second = (tmp_path / "b" / "analyze.json").read_bytes()
    assert first == second
    parsed = json.loads(first)
    again = json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n"
    assert again.encode() == first  # floats round-trip bit-exactly


def test_split_interp_outputs(tmp_path) -> None:
    points = [[0.3 * math.cos(2 * math.pi * k / 7), 0.3 * math.sin(2 * math.pi * k / 7)] for k in range(7)]
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": {"blaschke_zeros": [[0.5, 0.0]], "singular_atoms": []},
         "points": points, "mode": "interp"},
    )
    out = tmp_path / "out"
    assert main(["split", "--config", cfg, "--out", str(out)]) == 0
    partition = json.loads((out / "partition.json").read_text())
    assert sorted(i for p in partition["parts"] for i in p["ids"]) == list(range(7))
    for part in partition["parts"]:
        assert part["certificate"]["dist_bound"] < 1.0
    points_csv = (out / "points.csv").read_text().splitlines()
    assert points_csv[0] == "id,re,im,part,route"
    assert len(points_csv) == 8
    parts_csv = (out / "parts.csv").read_text().splitlines()
    assert parts_csv[0].startswith("part,route,n_points,delta_j")


# At gamma = 0 a part certifies when phi(delta_j) is finite, i.e. delta_j is
# at least about 1.5e-154; a pair 1e-200 or 1e-160 apart must be split up,
# one 1e-100 apart may stay together.
@pytest.mark.parametrize(
    "gap, parts", [(1e-200, [[0, 2], [1]]), (1e-160, [[0, 2], [1]]), (1e-100, [[0, 1, 2]])]
)
def test_split_interp_gamma_zero_near_duplicates(tmp_path, gap, parts) -> None:
    points = [[0.0, 0.0], [gap, 0.0], [0.5, 0.0]]
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": {"blaschke_zeros": points}, "points": points, "mode": "interp"},
    )
    out = tmp_path / "out"
    assert main(["split", "--config", cfg, "--out", str(out)]) == 0
    partition = json.loads((out / "partition.json").read_text())
    assert partition["global"]["gamma"] == 0.0
    assert [p["ids"] for p in partition["parts"]] == parts
    for part in partition["parts"]:
        assert math.isfinite(part["certificate"]["earl_value"])
        assert part["certificate"]["dist_bound"] == 0.0


def test_split_squares_outputs(tmp_path) -> None:
    pts = []
    for root in range(3):
        base = 2 * math.pi * root / 3
        for off in (0.05, 0.12, 0.20):
            ang = base + off * (2 * math.pi / 24)
            pts.append([0.999 * math.cos(ang), 0.999 * math.sin(ang)])
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": Z3, "points": pts, "mode": "squares", "options": {"level_count": 8}},
    )
    out = tmp_path / "out"
    assert main(["split", "--config", cfg, "--out", str(out)]) == 0
    partition = json.loads((out / "partition.json").read_text())
    assert partition["global"]["max_per_square"] == 3
    assert partition["global"]["level_count"] == 8
    geometry = (out / "geometry.csv").read_text().splitlines()
    assert geometry[0] == "arc,level,theta_lo,theta_hi,inner_radius,mass"
    assert len(geometry) == 1 + 24  # N * degree arcs
    # an atom, points at |z| = 0.995, the level count selected under a cap
    inner = {"blaschke_zeros": [[0.3, 0.1], [-0.2, 0.4]], "singular_atoms": [{"angle": 2.0, "mass": 0.3}]}
    near = [[0.995 * math.cos(0.4 * k), 0.995 * math.sin(0.4 * k)] for k in range(4)]
    config = {"inner": inner, "points": near, "mode": "squares", "options": {"max_points_per_arc": 24}}
    assert main(["split", "--config", _write(tmp_path / "cap.json", config), "--out", str(tmp_path / "cap")]) == 0


def test_clark_command(tmp_path) -> None:
    cfg = _write(tmp_path / "cfg.json", {"inner": Z3, "alpha": [1.0, 0.0]})
    out = tmp_path / "out"
    assert main(["clark", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "clark.json").read_text())
    assert len(report["points"]) == 3
    assert report["weights"] == pytest.approx([1 / 3] * 3)
    assert report["herglotz_residual_max"] <= 1e-8
    assert report["herglotz_certifying"] is True


_NEAR_BOUNDARY = {
    # zeros at 1 - depth, and two atoms 1e-6 apart
    "zero at 1 - 1e-7": {"blaschke_zeros": [[(1 - 1e-7) * math.cos(0.9), (1 - 1e-7) * math.sin(0.9)]]},
    "zero at 1 - 1e-8": {
        "blaschke_zeros": [[(1 - 1e-8) * math.cos(0.9), (1 - 1e-8) * math.sin(0.9)], [0.3, 0.2]]
    },
    "zeros at 1 - 1e-12": {
        "blaschke_zeros": [[(1 - 1e-12) * math.cos(a), (1 - 1e-12) * math.sin(a)] for a in (0.4, 2.5)]
        + [[0.3, 0.2]]
    },
    "atoms 1e-6 apart": {
        "blaschke_zeros": [[0.0, 0.5]],
        "singular_atoms": [{"angle": 1.0, "mass": 0.5}, {"angle": 1.0 + 1e-6, "mass": 0.5}],
    },
}


@pytest.mark.parametrize("name", sorted(_NEAR_BOUNDARY))
def test_clark_command_near_the_boundary(tmp_path, name) -> None:
    inner = _NEAR_BOUNDARY[name]
    config = {"inner": inner, "alpha": [math.cos(2.0), math.sin(2.0)], "options": {"max_points_per_arc": 24}}
    out = tmp_path / "out"
    assert main(["clark", "--config", _write(tmp_path / "cfg.json", config), "--out", str(out)]) == 0
    report = json.loads((out / "clark.json").read_text())
    if "singular_atoms" in inner:
        assert report["truncated"] and len(report["points"]) == 48
    else:
        assert not report["truncated"] and len(report["points"]) == len(inner["blaschke_zeros"])


def test_pw_command_with_split(tmp_path, monkeypatch) -> None:
    cfg = _write(
        tmp_path / "cfg.json",
        {"pw": {"a": math.pi, "freqs": [[float(n), 0.0] for n in range(8)]},
         "options": {"split": True}},
    )
    out = tmp_path / "out"
    formed = []
    pw_gram = cli.pw_gram
    monkeypatch.setattr(cli, "pw_gram", lambda system: formed.append(1) or pw_gram(system))
    assert main(["pw", "--config", cfg, "--out", str(out)]) == 0
    assert len(formed) == 1  # the split takes its part bounds from the report's Gram
    report = json.loads((out / "pw.json").read_text())
    assert report["frame_bounds"]["lambda_min"] == pytest.approx(1.0)
    assert "partition" in report
    ids = sorted(i for p in report["partition"]["parts"] for i in p["ids"])
    assert ids == list(range(8))


# ---------------------------------------------------------------------------
# report formats: the exact keys of every report

_FRAME_BOUNDS_KEYS = {"lambda_min", "lambda_max", "n"}
_CERTIFICATE_KEYS = {"gamma", "delta_j", "earl_value", "dist_bound", "frame_bounds"}


def _report(tmp_path, command: str, config: dict, name: str) -> dict:
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    return json.loads((tmp_path / "out" / name).read_text())


def _assert_partition_keys(partition: dict, global_keys: set[str]) -> list[str]:
    """Checks a partition's keys; returns its parts' routes."""
    assert set(partition) == {"parts", "global", "flags"}
    assert set(partition["global"]) == global_keys
    for part in partition["parts"]:
        square = part["route"].startswith("square:")
        assert set(part) == {"ids", "route", "certificate"} | ({"stability_margins"} if square else set())
        assert set(part["certificate"]) == _CERTIFICATE_KEYS
        assert set(part["certificate"]["frame_bounds"]) == _FRAME_BOUNDS_KEYS
    return [part["route"] for part in partition["parts"]]


def test_analyze_report_keys(tmp_path) -> None:
    report = _report(
        tmp_path, "analyze", {"inner": Z2, "points": [[0.1, 0.2], {"angle": 1.0}]}, "analyze.json"
    )
    assert set(report) == {
        "carleson", "frame_bounds", "frame_bounds_note", "gamma", "gamma_flag",
        "kernel_norms_sq", "riesz_floor", "generated_by",
    }
    assert set(report["carleson"]) == {"delta", "embedding_sup", "witness_index"}
    assert set(report["frame_bounds"]) == _FRAME_BOUNDS_KEYS | {"verdict"}
    assert [set(entry) for entry in report["kernel_norms_sq"]] == [{"id", "value"}] * 2


def test_analyze_report_is_the_json_modules_text(tmp_path) -> None:
    # the kernel norms are rendered from one template, not by the json module
    # norms from about 1 to above 1e16, whose repr has an exponent: a point next to a heavy atom
    points = [[0.1, 0.2], {"angle": 1.0}, [1.0 - 1e-9, 0.0], [-0.5, 1e-300], {"angle": 2.0 + 1e-4}]
    inner = {"blaschke_zeros": [[0.3, 0.1]], "singular_atoms": [{"angle": 2.0, "mass": 1e9}]}
    config = {"inner": inner, "points": points}
    out = tmp_path / "out"
    assert main(["analyze", "--config", _write(tmp_path / "cfg.json", config), "--out", str(out)]) == 0
    text = (out / "analyze.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
    seq = cli._parse_points(points)
    _, norms = cli.normalized_values(cli._parse_inner(inner), seq.z, seq.angle, seq.ids)
    got = [(entry["id"], entry["value"]) for entry in json.loads(text)["kernel_norms_sq"]]
    assert got == list(zip(seq.ids.tolist(), norms.tolist()))
    assert "e+" in repr(max(v for _, v in got))


def test_interp_partition_report_keys(tmp_path) -> None:
    points = [[0.3 * math.cos(k), 0.3 * math.sin(k)] for k in range(5)]
    report = _report(
        tmp_path, "split", {"inner": Z2, "points": points, "mode": "interp"}, "partition.json"
    )
    assert report.pop("generated_by").startswith("mslab ")
    routes = _assert_partition_keys(
        report, {"gamma", "delta_star", "delta_input", "parts_lower_bound"}
    )
    assert set(routes) == {"interp"}


def test_squares_partition_report_keys(tmp_path) -> None:
    points = [[0.1, 0.0], [0.999 * math.cos(0.3), 0.999 * math.sin(0.3)]]
    config = {"inner": Z3, "points": points, "mode": "squares", "options": {"level_count": 8}}
    report = _report(tmp_path, "split", config, "partition.json")
    assert report.pop("generated_by").startswith("mslab ")
    routes = _assert_partition_keys(report, {"level_count", "max_per_square", "delta_uncovered"})
    assert "uncovered:interp" in routes and any(r.startswith("square:") for r in routes)


def test_clark_report_keys(tmp_path) -> None:
    report = _report(tmp_path, "clark", {"inner": Z3, "alpha": [1.0, 0.0]}, "clark.json")
    assert set(report) == {
        "alpha", "points", "derivs", "weights", "truncated",
        "herglotz_residual_max", "herglotz_certifying", "generated_by",
    }


def test_pw_report_keys(tmp_path) -> None:
    config = {"pw": {"a": 1.0, "freqs": [[0.0, 0.0], [0.1, 0.0], [3.0, 0.5]]}, "options": {"split": True}}
    report = _report(tmp_path, "pw", config, "pw.json")
    assert set(report) == {"system", "frame_bounds", "frame_bounds_note", "partition", "generated_by"}
    assert set(report["system"]) == {"a", "freqs"}
    assert set(report["frame_bounds"]) == _FRAME_BOUNDS_KEYS
    routes = _assert_partition_keys(
        report["partition"], {"gamma", "delta_star", "delta_input", "parts_lower_bound", "a"}
    )
    assert set(routes) == {"interp"} and len(routes) > 1


# ---------------------------------------------------------------------------
# rendered partitions: the json module's text, and the table's values bit for bit

_NEAR_CIRCLE = [[0.999 * math.cos(a), 0.999 * math.sin(a)] for a in (0.3, 0.31, 2.4, 4.4)]
_RENDER_CASES = {
    "interp": ("split", {"inner": Z3, "points": [[0.3 * math.cos(k), 0.3 * math.sin(k)] for k in range(6)]
                         + [[0.30001, 0.0], [-0.5, -0.1]], "mode": "interp"}, 0),
    # square parts carry margins and null interpolation fields
    "squares": ("split", {"inner": Z3, "points": [[0.1, 0.0], [-0.2, 0.1], *_NEAR_CIRCLE],
                          "mode": "squares", "options": {"level_count": 8}}, 0),
    # the same with the ceiling on gamma at 0: the uncovered bucket is left uncertified
    "uncertified": ("split", {"inner": Z3, "points": [[0.1, 0.0], [-0.2, 0.1], *_NEAR_CIRCLE],
                              "mode": "squares", "options": {"level_count": 8}}, 0),
    # every point in a square: no uncovered bucket
    "covered": ("split", {"inner": Z3, "points": _NEAR_CIRCLE, "mode": "squares",
                          "options": {"level_count": 8}}, 0),
    "pw": ("pw", {"pw": {"a": 5.0, "freqs": [[0.0, 0.0], [2.0, 0.0], [4.0, 0.5], [4.05, 0.5], [7.0, 0.0]]},
                  "options": {"split": True}}, 0),
    # CertificationError: the partial partition.json
    "failed": ("split", {"inner": Z3, "points": [{"angle": 0.3}], "mode": "interp"}, 4),
}


def _bits(value: float) -> int:
    return int(np.float64(value).view(np.int64))


def _spy(monkeypatch, module, name: str, log: list) -> None:
    """Replace ``module.name`` by a wrapper that appends (function, args, result) to ``log``."""
    f = getattr(module, name)

    def spy(*args, **options):
        result = f(*args, **options)
        log.append((f, args, result))
        return result

    monkeypatch.setattr(module, name, spy)


def _table_value(value: float, absent):
    """A table value's bits, ``absent`` for NaN: the mark of a field the part has not."""
    return absent if value != value else _bits(value)


def test_column_texts_encode_each_bit_pattern_once() -> None:
    margins = np.array([math.nan, -0.0, 0.0])
    p = decompose._plain_parts(np.arange(3), np.array([0, 1, 3]), ("a", "b"), 0.5, margins)
    p = replace(p, lambda_min=np.array([-0.0, 0.0]), lambda_max=np.array([math.inf, 1.0]))
    null = ["null", "null"]
    assert cli._column_texts(p, cli._JSON_COLUMNS, cli._json_number) == [
        null, null, null, ["Infinity", "1.0"], ["-0.0", "0.0"], ["0.5", "0.5"], ["null", "-0.0", "0.0"]
    ]


@pytest.mark.parametrize("case", sorted(_RENDER_CASES))
def test_rendered_reports_are_the_json_modules_text_and_the_tables_values(
    tmp_path, monkeypatch, case
) -> None:
    command, config, code = _RENDER_CASES[case]
    if case == "uncertified":
        monkeypatch.setattr(decompose, "_GAMMA_CEILING", 0.0)
    rendered = []  # every partition rendered, captured where its numbers are encoded
    encode = cli._column_texts
    monkeypatch.setattr(cli, "_column_texts", lambda p, *args: rendered.append(p) or encode(p, *args))
    bounded, splits = [], []  # each driver's frame-bound calls, and each splitter's table
    _spy(monkeypatch, decompose, "part_frame_bounds", bounded)
    _spy(monkeypatch, pw, "block_frame_bounds", bounded)
    for module in (decompose, pw):
        _spy(monkeypatch, module, "split_log_distances", splits)
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path / "cfg.json", config), "--out", str(out)]) == code
    reports = {}
    for path in out.glob("*.json"):
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":")) + "\n"
        reports[path.name] = json.loads(text)
    if case == "failed":
        assert rendered == [] and reports["partition.json"]["failed"] is True
        return
    (partition,) = rendered
    report = reports["pw.json"]["partition"] if case == "pw" else reports["partition.json"]
    if case == "uncertified":
        (flag,) = [f for f in report["flags"] if f.startswith("sublevel bound failed")]
        assert flag.endswith("uncovered bucket left uncertified - a smaller level count deepens the squares")
    offsets = partition.offsets.tolist()
    routes = {"interp": {"interp"}, "pw": {"interp"}, "uncertified": {"uncovered:uncertified"},
              "covered": set()}
    assert routes.get(case, {"uncovered:interp"}) <= set(partition.route)
    assert (case in ("interp", "pw")) != any(r.startswith("square:") for r in partition.route)
    assert (case == "covered") == all(r.startswith("square:") for r in partition.route)
    # the splitter leaves the bounds NaN, and the driver bounds its finished
    # table in one call: each part's bounds are that function's on the part alone
    assert len(splits) == (case not in ("uncertified", "covered"))
    for *_, table in splits:
        assert np.isnan(table.lambda_min).all() and np.isnan(table.lambda_max).all()
    ((frame_bounds, (*data, _, _), _),) = bounded
    low, high = partition.lambda_min, partition.lambda_max
    assert np.isfinite(low).all() and np.isfinite(high).all() and (low <= high).all()
    for k, part in enumerate(partition.parts):
        alone = frame_bounds(*data, part, np.array([0, part.size]))
        assert [_bits(b[0]) for b in alone] == [_bits(low[k]), _bits(high[k])]
    assert max(np.diff(offsets)) > 1
    for k, (part, a, b) in enumerate(zip(report["parts"], offsets, offsets[1:])):
        assert part["ids"] == partition.members[a:b].tolist()  # the labels are the positions
        assert part["route"] == partition.route[k]
        cert, fb = part["certificate"], part["certificate"]["frame_bounds"]
        for name in ("gamma", "delta_j", "earl_value", "dist_bound"):
            got = None if cert[name] is None else _bits(cert[name])
            assert got == _table_value(getattr(partition, name)[k], None)
        assert [_bits(fb["lambda_min"]), _bits(fb["lambda_max"]), fb["n"]] == [
            _bits(partition.lambda_min[k]), _bits(partition.lambda_max[k]), b - a
        ]
        margins = [_table_value(m, None) for m in partition.margins[a:b].tolist()]
        got = [None] * (b - a)
        if "stability_margins" in part:
            got = [_bits(m) for m in part["stability_margins"]]
        assert got == margins
    assert len(report["parts"]) == len(offsets) - 1
    if command == "pw":
        return
    seq = cli._parse_points(config["points"])
    with open(out / "parts.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert header == ["part", "route", "n_points", *cli._CSV_COLUMNS]
    assert len(rows) == len(offsets) - 1
    for k, row in enumerate(rows):
        assert [int(row[0]), row[1], int(row[2])] == [k, partition.route[k], offsets[k + 1] - offsets[k]]
        numbers = [getattr(partition, name)[k] for name in cli._CSV_COLUMNS]
        assert [_bits(float(t)) if t else "" for t in row[3:]] == [_table_value(x, "") for x in numbers]
    part_of = {pid: k for k, p in enumerate(partition.parts) for pid in p.tolist()}
    with open(out / "points.csv", newline="") as handle:
        header, *rows = list(csv.reader(handle))
    assert header == ["id", "re", "im", "part", "route"] and len(rows) == len(seq)
    for pid, z, row in zip(seq.ids.tolist(), seq.z.tolist(), rows):
        got = [int(row[0]), _bits(float(row[1])), _bits(float(row[2]))]
        assert got == [pid, _bits(z.real), _bits(z.imag)]
        assert [int(row[3]), row[4]] == [part_of[pid], partition.route[part_of[pid]]]


@pytest.mark.parametrize(
    "system",
    [
        {"a": 1.0, "freqs": [[math.nan, 0.0], [1.0, 0.0]]},
        {"a": 1.0, "freqs": [[0.0, math.inf], [1.0, 0.0]]},
        {"a": math.inf, "freqs": [[0.0, 0.0], [1.0, 0.0]]},
    ],
)
def test_pw_non_finite_config_is_a_config_error(tmp_path, system) -> None:
    # json writes these as the NaN / Infinity literals that json.load accepts
    cfg = _write(tmp_path / "cfg.json", {"pw": system})
    assert main(["pw", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize(
    "freqs",
    [
        [[1e5, 0.0], [1e5 + 1, 0.0], [1e5 + 2, 0.0]],
        [[1e6, 0.0], [1e6 + 1, 0.0], [1e6 + 2, 0.0]],
        [[1e7, 0.0], [1e7 + 1, 0.0], [1e7 + 2, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [3e7, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [1e300, 0.0]],
        [[0.0, 0.0], [1.0, 0.0], [-1e300, 0.0]],
    ],
    ids=["near-1e5", "near-1e6", "near-1e7", "3e7-beside-0-1", "1e300-beside-0-1", "-1e300-beside-0-1"],
)
def test_pw_split_gamma_is_exact_at_large_frequencies(tmp_path, freqs) -> None:
    # real frequencies shifted by i: exp(iaz) has modulus exp(-a) on every one
    cfg = _write(tmp_path / "cfg.json", {"pw": {"a": 1.0, "freqs": freqs}, "options": {"split": True}})
    out = tmp_path / "o"
    assert main(["pw", "--config", cfg, "--out", str(out)]) == 0
    partition = json.loads((out / "pw.json").read_text())["partition"]
    assert partition["global"]["gamma"] == math.exp(-1.0)
    assert all(p["certificate"]["gamma"] == math.exp(-1.0) for p in partition["parts"])
    assert sorted(i for p in partition["parts"] for i in p["ids"]) == [0, 1, 2]


def test_pw_split_refuses_an_imaginary_frequency_of_1e300(tmp_path, capsys) -> None:
    # its norm squared sinh(2e300)/1e300 overflows in the exact Gram
    cfg = _write(
        tmp_path / "cfg.json",
        {"pw": {"a": 1.0, "freqs": [[0.0, 0.0], [1.0, 0.0], [0.0, 1e300]]}, "options": {"split": True}},
    )
    assert main(["pw", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "unusable norm squared" in err and "1e+300" in err


@pytest.mark.parametrize("split", [False, True], ids=["gram", "split"])
@pytest.mark.parametrize(
    "freqs, named",
    [
        ([[1e308, 0.0], [-1e308, 0.0]], ["(1e+308+0j)", "(-1e+308+0j)"]),
        ([[0.0, 0.0], [0.0, 1e308]], ["1e+308j"]),
    ],
    ids=["real-parts", "imaginary-parts"],
)
def test_pw_refuses_overflowing_frequency_differences(tmp_path, capsys, split, freqs, named) -> None:
    cfg = _write(
        tmp_path / "cfg.json", {"pw": {"a": 1.0, "freqs": freqs}, "options": {"split": split}}
    )
    assert main(["pw", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    err = capsys.readouterr().err
    assert "overflows" in err and all(f in err for f in named)
    assert "Warning" not in err


_NAN = float("nan")


@pytest.mark.parametrize(
    "command, config, named",
    [
        ("pw", {"pw": {"a": "x", "freqs": [[0.0, 0.0], [1.0, 0.0]]}}, "'a'"),
        ("pw", {"pw": {"a": True, "freqs": [[0.0, 0.0], [1.0, 0.0]]}}, "'a'"),
        ("pw", {"pw": {"a": "3.0", "freqs": [[0.0, 0.0], [1.0, 0.0]]}}, "'a'"),
        ("pw", {"pw": {"a": 1.0, "freqs": [[0.0, 0.0, 0.0], [1.0, 0.0]]}}, "frequency 0"),
        ("pw", {"pw": {"a": 1.0, "freqs": [[0.0, 0.0], [1, False]]}}, "frequency 1"),
        ("pw", {"pw": {"a": 1.0, "freqs": {"0": [0.0, 0.0]}}}, "'freqs'"),
        ("split", {"inner": Z2, "points": [[0.1, "y"], [0.2, 0.0]], "mode": "interp"}, "point 0"),
        ("clark", {"inner": {"blaschke_zeros": [["0.1", 0.0]]}, "alpha": [1.0, 0.0]}, "zero 0"),
        ("clark", {"inner": Z3, "alpha": [_NAN, 0.0]}, "'alpha'"),
        ("clark", {"inner": {"blaschke_zeros": [[_NAN, 0.0]]}, "alpha": [1.0, 0.0]}, "zero 0"),
        ("clark", {"inner": {"blaschke_zeros": [[0.1, 0.0], [False, 0.5]]}, "alpha": [1.0, 0.0]},
         "zero 1"),
        ("clark", {"inner": {"blaschke_zeros": {"0": [0.1, 0.0]}}, "alpha": [1.0, 0.0]},
         "'blaschke_zeros'"),
        ("clark", {"inner": {"singular_atoms": [{"angle": _NAN, "mass": 1.0}]},
                   "alpha": [1.0, 0.0]}, "atom 0"),
        ("clark", {"inner": {"singular_atoms": [{"angle": "1.5", "mass": "2"}]},
                   "alpha": [1.0, 0.0]}, "atom 0"),
        ("clark", {"inner": {"singular_atoms": [{"angle": 1.5, "mass": 2.0, "x": 0}]},
                   "alpha": [1.0, 0.0]}, "atom 0"),
        ("split", {"inner": 5, "points": [[0.1, 0.0]], "mode": "interp"},
         "inner function must be a JSON object"),
        ("clark", {"inner": {"singular_atoms": [5]}, "alpha": [1.0, 0.0]},
         "atom 0 must be a JSON object"),
        ("split", {"inner": Z2, "mode": "interp"}, "missing config keys: ['points']"),
        ("clark", {"inner": {"singular_atoms": 5}, "alpha": [1.0, 0.0]},
         "'singular_atoms' must be a list, got 5"),
        ("split", {"inner": Z2, "points": [[0.1, 0.0]], "mode": "foo"},
         "mode must be 'interp' or 'squares', got 'foo'"),
        ("split", {"inner": Z2, "points": [[0.1, 0.0]], "mode": "interp",
                   "options": {"level_count": 8}}, "unknown options keys: ['level_count']"),
        ("analyze", [5], "config entry must be a JSON object"),
        ("pw", {"pw": {"a": 1.0, "freqs": []}}, "empty exponential system"),
    ],
    ids=["pw-a-string", "pw-a-true", "pw-a-numeric-string", "pw-three-element-freq",
         "pw-freq-false", "pw-freqs-not-a-list", "point-string", "zero-string", "alpha-nan",
         "zero-nan", "zero-false", "zeros-not-a-list", "atom-angle-nan", "atom-strings",
         "atom-unknown-key", "inner-not-an-object", "atom-not-an-object", "points-missing",
         "atoms-not-a-list", "mode-unknown", "interp-with-options", "sweep-entry-not-an-object", "pw-freqs-empty"],
)
def test_malformed_numbers_are_config_errors(tmp_path, capsys, command, config, named) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mslab: config error: ") and named in err
    assert not out.exists()


_PW_SYSTEM = {"a": 1.0, "freqs": [[0.0, 0.0], [1.0, 0.0]]}
_SQUARES = {"inner": Z3, "points": [[0.5, 0.0]], "mode": "squares"}


@pytest.mark.parametrize(
    "command, config",
    [
        ("pw", {"pw": _PW_SYSTEM, "options": {"split": "false"}}),
        ("pw", {"pw": _PW_SYSTEM, "options": {"split": 1}}),
        ("analyze", {"inner": Z2, "points": [[0.1, 0.0]], "options": {"riesz_floor": _NAN}}),
        ("clark", {"inner": Z3, "alpha": [1.0, 0.0], "options": {"herglotz_grid": -5}}),
        ("split", {**_SQUARES, "options": {"level_count": 2.7}}),
        ("split", {**_SQUARES, "options": {"max_points_per_arc": 0}}),
        ("split", {**_SQUARES, "options": {"max_points_per_arc": -3}}),
        ("clark", {"inner": Z3, "alpha": [1.0, 0.0], "options": {"max_points_per_arc": 0}}),
        ("split", {**_SQUARES, "options": {"level_count": True}}),
    ],
    ids=["split-string", "split-integer", "riesz-floor-nan", "herglotz-grid-negative",
         "level-count-float", "points-per-arc-zero", "points-per-arc-negative",
         "clark-points-per-arc-zero", "level-count-bool"],
)
def test_malformed_options_are_config_errors(tmp_path, capsys, command, config) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: option" in capsys.readouterr().err
    assert not out.exists()


# degree-5 Blaschke data and 40 points in |z| <= 0.85: rank gives lambda_min = 0
_RANK_DEFICIENT = {
    "inner": {"blaschke_zeros": [[0.5 * math.cos(k), 0.5 * math.sin(k)] for k in range(5)]},
    "points": [
        [r * math.cos(2.4 * k), r * math.sin(2.4 * k)]
        for k, r in enumerate(0.85 * math.sqrt((k + 0.5) / 40) for k in range(40))
    ],
}


@pytest.mark.parametrize("floor", [0, 0.0, -0.0, -1.0])
def test_riesz_floor_must_be_positive(tmp_path, capsys, floor) -> None:
    # a floor of 0 or below certified this singular section as a Riesz sequence
    cfg = _write(tmp_path / "cfg.json", {**_RANK_DEFICIENT, "options": {"riesz_floor": floor}})
    out = tmp_path / "o"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"mslab: config error: option 'riesz_floor' must be a number > 0, got {floor!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("floor", [5e-324, 1e-300, 0.5])
def test_singular_section_is_indeterminate_at_every_positive_floor(tmp_path, floor) -> None:
    report = _report(
        tmp_path, "analyze", {**_RANK_DEFICIENT, "options": {"riesz_floor": floor}}, "analyze.json"
    )
    assert report["frame_bounds"]["lambda_min"] == 0.0
    assert report["frame_bounds"]["verdict"] == "indeterminate"
    assert report["riesz_floor"] == floor


@pytest.mark.parametrize(
    "command, config",
    [
        ("analyze", {"inner": Z3, "points": [[0.1, 0.2], [-0.3, 0.1], {"angle": 2.0}]}),
        ("analyze", {"inner": {"singular_atoms": [{"angle": 1.0, "mass": 0.5}]}, "points": [[0.1, 0.2], [0.4, -0.2]]}),
        ("pw", {"pw": _PW_SYSTEM}),
        ("pw", {"pw": _PW_SYSTEM, "options": {"split": True}}),
        ("split", {"inner": Z2, "points": [[0.1, 0.2], [-0.5, 0.3]], "mode": "interp"}),
        ("split", _SQUARES),
    ],
    ids=["analyze-n-at-most-degree", "analyze-atoms", "pw", "pw-split", "split-interp", "split-squares"],
)
def test_every_section_takes_its_eigenvalues_from_one_path(tmp_path, monkeypatch, command, config) -> None:
    calls = []
    gram = importlib.import_module("mslab.gram")
    stacked = gram._stacked_bounds
    monkeypatch.setattr(gram, "_stacked_bounds", lambda *args: calls.append(1) or stacked(*args))
    assert main([command, "--config", _write(tmp_path / "cfg.json", config), "--out", str(tmp_path / "o")]) == 0
    assert calls


@pytest.mark.parametrize(
    "command, config",
    [
        ("split", {**_SQUARES, "options": {"max_depth": 20}}),
        ("pw", {"pw": _PW_SYSTEM, "options": {"split": True, "max_depth": 20}}),
    ],
    ids=["split", "pw"],
)
def test_max_depth_is_an_unknown_option(tmp_path, capsys, command, config) -> None:
    # the splitter has no recursion depth to cap
    cfg = _write(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: unknown options keys: ['max_depth']" in capsys.readouterr().err
    assert not out.exists()


def test_samples_is_an_unknown_option(tmp_path, capsys) -> None:
    # the uncovered-region sup is sampled at one fixed resolution
    cfg = _write(tmp_path / "cfg.json", {**_SQUARES, "options": {"samples": 4096}})
    out = tmp_path / "o"
    assert main(["split", "--config", cfg, "--out", str(out)]) == 2
    assert "config error: unknown options keys: ['samples']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, report",
    [
        ("pw", {"pw": _PW_SYSTEM, "options": {"split": False}}, "pw.json"),
        ("analyze", {"inner": Z2, "points": [[0.1, 0.0]], "options": {"riesz_floor": 1}}, "analyze.json"),
        ("clark", {"inner": Z3, "alpha": [1.0, 0.0], "options": {"herglotz_grid": 1, "max_points_per_arc": 1}}, "clark.json"),
        ("split", {**_SQUARES, "options": {"level_count": 1}}, "partition.json"),
    ],
    ids=["pw", "analyze", "clark", "split"],
)
def test_smallest_well_formed_options_run(tmp_path, command, config, report) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / report).exists()


def test_reports_are_renamed_from_pid_temp_files_and_follow_the_umask(tmp_path, monkeypatch) -> None:
    renames = []
    replace = os.replace
    monkeypatch.setattr(os, "replace", lambda src, dst: renames.append((src, dst)) or replace(src, dst))
    cfg = _write(tmp_path / "cfg.json", {**_SQUARES, "options": {"level_count": 1}})
    out = tmp_path / "deep" / "o"  # made, parents too, at the first write
    old = os.umask(0o027)
    try:
        assert main(["split", "--config", cfg, "--out", str(out)]) == 0
    finally:
        os.umask(old)
    names = sorted(p.name for p in out.iterdir())
    assert names == ["geometry.csv", "partition.json", "parts.csv", "points.csv"]
    assert sorted(renames) == sorted((f"{out / n}.{os.getpid()}.tmp", out / n) for n in names)
    assert all((out / n).stat().st_mode & 0o777 == 0o640 for n in names)


def test_a_failed_write_leaves_no_temp_file(tmp_path, monkeypatch) -> None:
    def failing(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", failing)
    with pytest.raises(OSError, match="rename refused"):
        cli._atomic_write(tmp_path / "o" / "report.json", "{}\n")
    assert list((tmp_path / "o").iterdir()) == []
    monkeypatch.undo()

    def full_disk(fd, data):
        raise OSError("no space left")

    monkeypatch.setattr(os, "write", full_disk)
    with pytest.raises(OSError, match="no space left"):
        cli._atomic_write(tmp_path / "o" / "report.json", "{}\n")
    assert list((tmp_path / "o").iterdir()) == []


def test_short_writes_are_resumed_until_every_byte_is_written(tmp_path, monkeypatch) -> None:
    write = os.write
    sizes = []
    monkeypatch.setattr(os, "write", lambda fd, data: sizes.append(write(fd, data[:7])) or sizes[-1])
    text = '{"a":[1.5,-0.25,"\\u00e9"]}\n' * 3
    cli._atomic_write(tmp_path / "report.json", text)
    assert (tmp_path / "report.json").read_bytes() == text.encode("ascii")
    assert sizes == [7] * (len(text) // 7) + [len(text) % 7]


def test_exit_code_config_error(tmp_path) -> None:
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": Z2, "points": [[0.1, 0.0]], "mode": "squares", "bogus": 1},
    )
    assert main(["split", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_exit_code_malformed_json(tmp_path) -> None:
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["analyze", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2


_HUGE = 10**400  # a JSON integer beyond the float range
_ALPHA = [1.0, 0.0]


@pytest.mark.parametrize(
    "command, config",
    [
        ("split", {"inner": Z2, "points": [[_HUGE, 0.0]], "mode": "interp"}),
        ("split", {"inner": Z2, "points": [[0.1, 0.0], [0.2, -_HUGE]], "mode": "interp"}),
        ("split", {"inner": Z2, "points": [[0.1, 0.0], {"angle": _HUGE}], "mode": "squares"}),
        ("clark", {"inner": {"blaschke_zeros": [[_HUGE, 0.0]]}, "alpha": _ALPHA}),
        ("clark", {"inner": {"singular_atoms": [{"angle": _HUGE, "mass": 1.0}]}, "alpha": _ALPHA}),
        ("clark", {"inner": {"singular_atoms": [{"angle": 1.0, "mass": _HUGE}]}, "alpha": _ALPHA}),
        ("clark", {"inner": Z3, "alpha": [_HUGE, 0.0]}),
        ("analyze", {"inner": Z2, "points": [[0.1, 0.0]], "options": {"riesz_floor": _HUGE}}),
        ("pw", {"pw": {"a": _HUGE, "freqs": [[0.0, 0.0], [1.0, 0.0]]}}),
        ("pw", {"pw": {"a": 1.0, "freqs": [[0.0, 0.0], [_HUGE, 0.0]]}}),
    ],
    ids=["point", "point-negative", "angle", "zero", "atom-angle", "atom-mass", "alpha",
         "riesz-floor", "pw-a", "pw-freq"],
)
def test_integers_beyond_the_float_range_are_config_errors(tmp_path, capsys, command, config) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("mslab: config error: ")
    assert not out.exists()


def test_integer_literal_past_the_digit_limit_is_a_config_error(tmp_path, capsys) -> None:
    # json.load refuses integers of over 4300 digits with a plain ValueError
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"inner": {}, "points": [[1' + "0" * 5000 + ', 0.0]], "mode": "interp"}')
    assert main(["split", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("mslab: cannot read config: ")


def test_parser_serves_every_call(tmp_path, capsys) -> None:
    cfg = _write(tmp_path / "cfg.json", {"inner": Z2, "points": [[0.1, 0.0]]})
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["bogus", "--config", cfg, "--out", str(tmp_path / "p")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mslab [-h] --config CONFIG --out OUT [--seed SEED]")
    assert "invalid choice: 'bogus'" in err
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "q")]) == 0
    assert not (tmp_path / "p").exists()


_RNG_PAIRS = [
    [x, y] for x, y in np.random.default_rng(18).uniform(-0.6, 0.6, size=(200, 2)).tolist()
]


@pytest.mark.parametrize(
    "raw",
    [
        [[0.1, -0.0], [-0.0, 0.5], [-0.3, 0.0], [0.0, -0.2]],
        [[0, 0], [1, 0], [0, -1], [-1, 0], [0.5, 0]],
        _RNG_PAIRS,
        [[0.1, 0.0], {"angle": 2.0}, [-0.2, -0.0]],
    ],
    ids=["minus-zeros", "integers", "random", "mixed"],
)
def test_bulk_point_parse_matches_the_loop(monkeypatch, raw) -> None:
    bulk = cli._parse_points(raw)
    monkeypatch.setattr(cli, "_number_pairs", lambda raw: None)
    loop = cli._parse_points(raw)
    for name in ("z", "angle", "ids"):
        got, want = getattr(bulk, name), getattr(loop, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bulk_point_parse_takes_pair_lists_only() -> None:
    assert cli._number_pairs([[0, -0.0], [0.5, 1]]).tolist() == [[0.0, -0.0], [0.5, 1.0]]
    for raw in (
        [[0.1, 0.0], {"angle": 2.0}],
        [[0.1, 0.0], [True, 0.0]],
        [[0.1, 0.0], [0.2]],
        [[0.1, 0.0], [0.2, _NAN]],
        [[0.1, 0.0], [0.2, _HUGE]],
        [[0.1, 0.0], [0.2, "0.1"]],
    ):
        assert cli._number_pairs(raw) is None


@pytest.mark.parametrize(
    "raw, message",
    [
        ([[0.1, 0.0], [True, 0.0]], "point 1 must hold finite numbers, got True"),
        ([[0.1, 0.0], [0.2, _NAN]], "point 1 must hold finite numbers, got nan"),
        ([[0.1, 0.0], [0.2]], "point 1 must be [re, im] or {\"angle\": a}"),
        ([[0.1, 0.0], [0.2, _HUGE]], "point 1 must hold finite numbers, got 1000"),
        ([[0.1, 0.0], [0.1, 0.0]], "coincide"),
    ],
    ids=["bool", "nan", "short", "huge", "coincident"],
)
def test_bad_points_keep_their_messages(raw, message) -> None:
    with pytest.raises(ConfigError) as exc:
        cli._parse_points(raw)
    assert message in str(exc.value)


def test_exit_code_numeric_domain(tmp_path, capsys) -> None:
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": {"blaschke_zeros": [[0.5, 0.0]], "singular_atoms": []},
         "points": [[0.5, 0.0]], "mode": "squares"},
    )
    assert main(["split", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "point 0" in capsys.readouterr().err


def test_boundary_point_escaping_every_square_is_a_numeric_domain_error(tmp_path, capsys) -> None:
    # next to the atom at angle 1.0 the eight-level arcs are truncated away
    config = {
        "inner": {"blaschke_zeros": [[0.3, 0.0]], "singular_atoms": [{"angle": 1.0, "mass": 0.5}]},
        "points": [{"angle": 1.0001}, [0.2, 0.1]],
        "mode": "squares",
        "options": {"level_count": 8, "max_points_per_arc": 4},
    }
    cfg = _write(tmp_path / "cfg.json", config)
    assert main(["split", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        "mslab: numeric domain error: boundary point 0 escaped every square; "
        "the uncovered region is interior-only\n"
    )


@pytest.mark.parametrize(
    "config, message",
    [
        (
            {"inner": {"blaschke_zeros": [[0.3, 0.0], [0.0, -0.5]]},
             "points": [[0.2, 0.1], {"angle": 1.0}, [-0.4, 0.3], {"angle": 1.0 + 1e-15}]},
            "points 1 and 3 are numerically inseparable",
        ),
        (
            {"inner": {}, "points": [[0.2, 0.1], [-0.4, 0.3]]},
            "point 0 has unusable kernel norm squared -0.0",
        ),
    ],
    ids=["boundary pair on degree 2", "constant inner function"],
)
def test_analyze_refusals_with_more_points_than_zeros(tmp_path, capsys, config, message) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == f"mslab: numeric domain error: {message}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_analyze_point_on_a_zero_next_to_the_circle(tmp_path) -> None:
    # the point on the zero (1 - 1e-9) e^{2.5i} is interior: no boundary rate
    # is taken there, so nothing divides by zero
    eta = [(1 - 1e-9) * math.cos(2.5), (1 - 1e-9) * math.sin(2.5)]
    config = {"inner": {"blaschke_zeros": [eta, [0.3, 0.0]]}, "points": [eta, [0.1, 0.0]]}
    cfg = _write(tmp_path / "cfg.json", config)
    assert main(["analyze", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = json.loads((tmp_path / "o" / "analyze.json").read_text())
    assert report["gamma_flag"] is None
    assert report["kernel_norms_sq"][0]["value"] == pytest.approx(1.0 / (1.0 - (1 - 1e-9) ** 2), rel=1e-6)


def test_exit_code_certification_failure_writes_partial(tmp_path) -> None:
    config = {"inner": Z3, "points": [{"angle": 0.3}], "mode": "interp"}
    out = tmp_path / "o"
    assert main(["split", "--config", _write(tmp_path / "cfg.json", config), "--out", str(out)]) == 4
    partial = json.loads((out / "partition.json").read_text())
    assert partial["failed"] is True
    assert partial["parts"] == []
    assert any(f.startswith("failed:") for f in partial["flags"])


def test_an_omitted_level_count_is_8(tmp_path) -> None:
    # a zero at (1 - 1e-6) e^{i} leaves the uncovered sup near 1 at N = 8:
    # the split is flagged, and is the one a given count of 8 makes
    near_circle = {"blaschke_zeros": [[0.5403017655658339, 0.8414701433369117], [0.5, 0.0], [0.0, -0.3]]}
    config = {"inner": near_circle, "points": [[0.1, 0.0], [0.0, 0.2]], "mode": "squares"}
    assert main(["split", "--config", _write(tmp_path / "auto.json", config), "--out", str(tmp_path / "a")]) == 0
    auto = (tmp_path / "a" / "partition.json").read_bytes()
    assert any("exceeds the 0.9 health margin" in flag for flag in json.loads(auto)["flags"])
    given = {**config, "options": {"level_count": 8}}
    assert main(["split", "--config", _write(tmp_path / "given.json", given), "--out", str(tmp_path / "g")]) == 0
    assert (tmp_path / "g" / "partition.json").read_bytes() == auto


def test_sweep_list_config(tmp_path) -> None:
    entries = [
        {"inner": Z2, "points": [[0.0, 0.0], [0.5, 0.0]]},
        {"inner": Z2, "points": [[0.2, 0.1]]},
    ]
    cfg = _write(tmp_path / "sweep.json", entries)
    out = tmp_path / "out"
    assert main(["analyze", "--config", cfg, "--out", str(out)]) == 0
    first = json.loads((out / "run_000" / "analyze.json").read_text())
    second = json.loads((out / "run_001" / "analyze.json").read_text())
    assert first["carleson"]["delta"] == pytest.approx(0.5)
    assert second["carleson"]["delta"] == 1.0


def test_seed_flag_accepted(tmp_path) -> None:
    cfg = _write(tmp_path / "cfg.json", {"inner": Z2, "points": [[0.1, 0.0]]})
    assert main(
        ["analyze", "--config", cfg, "--out", str(tmp_path / "o"), "--seed", "42"]
    ) == 0
