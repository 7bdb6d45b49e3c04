import json
import math
import os
import sys

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


# Evaluators no command needs: the analytic derivative serves path variation only.
_UNUSED_BY_COMMANDS = ("log_derivative", "derivative")


def test_commands_read_only_the_array_evaluators(tmp_path, monkeypatch) -> None:
    # every module binding of the derivatives raises; each command still
    # runs, on eval_points, argument_and_rate and normalized_values alone
    def refuse(*args, **kwargs):
        raise AssertionError("a command called an evaluator it does not need")

    for name, module in list(sys.modules.items()):
        if name == "mslab" or name.startswith("mslab."):
            for attr in _UNUSED_BY_COMMANDS:
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refuse)
    inner = {"blaschke_zeros": [[0.3, 0.1], [-0.2, 0.4]], "singular_atoms": [{"angle": 2.0, "mass": 0.3}]}
    ring = [[0.6 * math.cos(0.9 * k), 0.6 * math.sin(0.9 * k)] for k in range(6)]
    near = [[0.995 * math.cos(0.4 * k), 0.995 * math.sin(0.4 * k)] for k in range(4)]
    configs = [
        ("analyze", {"inner": inner, "points": ring + [{"angle": 1.0}]}),
        ("split", {"inner": inner, "points": ring, "mode": "interp"}),
        ("split", {"inner": Z3, "points": near + ring, "mode": "squares", "options": {"level_count": 8}}),
        ("split", {"inner": inner, "points": near, "mode": "squares", "options": {"max_points_per_arc": 24}}),
        ("clark", {"inner": inner, "alpha": [0.0, 1.0], "options": {"max_points_per_arc": 24}}),
        ("pw", {"pw": {"a": math.pi, "freqs": [[n + 0.1 * math.sin(n), 0.0] for n in range(6)]},
                "options": {"split": True}}),
    ]
    for k, (command, config) in enumerate(configs):
        cfg = _write(tmp_path / f"cfg{k}.json", config)
        assert main([command, "--config", cfg, "--out", str(tmp_path / f"out{k}")]) == 0


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
        ("split", {**_SQUARES, "options": {"max_depth": -1}}),
        ("split", {**_SQUARES, "options": {"samples": True}}),
    ],
    ids=["split-string", "split-integer", "riesz-floor-nan", "herglotz-grid-negative",
         "level-count-float", "points-per-arc-zero", "points-per-arc-negative",
         "clark-points-per-arc-zero", "max-depth-negative", "samples-bool"],
)
def test_malformed_options_are_config_errors(tmp_path, capsys, command, config) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "config error: option" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, config, report",
    [
        ("pw", {"pw": _PW_SYSTEM, "options": {"split": False, "max_depth": 0}}, "pw.json"),
        ("analyze", {"inner": Z2, "points": [[0.1, 0.0]], "options": {"riesz_floor": 1}}, "analyze.json"),
        ("clark", {"inner": Z3, "alpha": [1.0, 0.0], "options": {"herglotz_grid": 1, "max_points_per_arc": 1}}, "clark.json"),
        ("split", {**_SQUARES, "options": {"level_count": 1, "samples": 1, "max_depth": 0}}, "partition.json"),
    ],
    ids=["pw", "analyze", "clark", "split"],
)
def test_smallest_well_formed_options_run(tmp_path, command, config, report) -> None:
    cfg = _write(tmp_path / "cfg.json", config)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / report).exists()


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
