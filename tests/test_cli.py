import json
import math
import os

import pytest

from mslab.cli import main

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
    again = json.dumps(parsed, sort_keys=True, indent=2) + "\n"
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


def test_clark_command(tmp_path) -> None:
    cfg = _write(tmp_path / "cfg.json", {"inner": Z3, "alpha": [1.0, 0.0]})
    out = tmp_path / "out"
    assert main(["clark", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "clark.json").read_text())
    assert len(report["points"]) == 3
    assert report["weights"] == pytest.approx([1 / 3] * 3)
    assert report["herglotz_residual_max"] <= 1e-8
    assert report["herglotz_certifying"] is True


def test_pw_command_with_split(tmp_path) -> None:
    cfg = _write(
        tmp_path / "cfg.json",
        {"pw": {"a": math.pi, "freqs": [[float(n), 0.0] for n in range(8)]},
         "options": {"split": True}},
    )
    out = tmp_path / "out"
    assert main(["pw", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "pw.json").read_text())
    assert report["frame_bounds"]["lambda_min"] == pytest.approx(1.0)
    assert "partition" in report
    ids = sorted(i for p in report["partition"]["parts"] for i in p["ids"])
    assert ids == list(range(8))


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


_NAN = float("nan")


@pytest.mark.parametrize(
    "command, config",
    [
        ("pw", {"pw": {"a": "x", "freqs": [[0.0, 0.0], [1.0, 0.0]]}}),
        ("pw", {"pw": {"a": 1.0, "freqs": [[0.0, 0.0, 0.0], [1.0, 0.0]]}}),
        ("split", {"inner": Z2, "points": [[0.1, "y"], [0.2, 0.0]], "mode": "interp"}),
        ("clark", {"inner": {"blaschke_zeros": [["0.1", 0.0]]}, "alpha": [1.0, 0.0]}),
        ("clark", {"inner": Z3, "alpha": [_NAN, 0.0]}),
        ("clark", {"inner": {"blaschke_zeros": [[_NAN, 0.0]]}, "alpha": [1.0, 0.0]}),
        ("clark", {"inner": {"singular_atoms": [{"angle": _NAN, "mass": 1.0}]},
                   "alpha": [1.0, 0.0]}),
    ],
    ids=["pw-a-string", "pw-three-element-freq", "point-string", "zero-string",
         "alpha-nan", "zero-nan", "atom-angle-nan"],
)
def test_malformed_numbers_are_config_errors(tmp_path, command, config) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2


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


def test_exit_code_numeric_domain(tmp_path, capsys) -> None:
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": {"blaschke_zeros": [[0.5, 0.0]], "singular_atoms": []},
         "points": [[0.5, 0.0]], "mode": "squares"},
    )
    assert main(["split", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "point 0" in capsys.readouterr().err


def test_exit_code_certification_failure_writes_partial(tmp_path) -> None:
    cfg = _write(
        tmp_path / "cfg.json",
        {"inner": Z3, "points": [{"angle": 0.3}], "mode": "interp"},
    )
    out = tmp_path / "o"
    assert main(["split", "--config", cfg, "--out", str(out)]) == 4
    partial = json.loads((out / "partition.json").read_text())
    assert partial["failed"] is True
    assert partial["parts"] == []
    assert any(f.startswith("failed:") for f in partial["flags"])


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
