"""Tests of the benchmark itself: generator determinism, the quantile
estimator, oracle hand values, span accounting.

    python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import oracles  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_configs(workload: str) -> None:
    first = workloads.configs(workload, 11)
    assert first == workloads.configs(workload, 11)
    assert len(first) == workloads.config_count(workload)
    assert first != workloads.configs(workload, 12)


def test_harrell_davis_quantile() -> None:
    from run import hd_quantile

    values = [3.0, 1.0, 2.0, 5.0, 4.0]
    assert hd_quantile(values, 0.5) == pytest.approx(3.0, rel=1e-12)  # symmetric sample
    assert hd_quantile([0.7] * 4, 0.9) == pytest.approx(0.7, rel=1e-12)
    assert 4.0 < hd_quantile(values, 0.9) < 5.0
    # every value carries weight, not only the middle one
    assert hd_quantile([1.0, 2.0, 3.0, 4.0, 9.0], 0.5) > 3.0


# ---------------------------------------------------------------------------
# oracles against hand values
# ---------------------------------------------------------------------------

Z3 = {"blaschke_zeros": [[0.0, 0.0]] * 3}


def _clark_report(tmp_path: Path, angles: list[float]) -> dict:
    config = {"inner": Z3, "alpha": [1.0, 0.0]}
    rate = 3.0  # |Theta'| = 3 on the circle for z^3
    report = {
        "alpha": [1.0, 0.0],
        "points": angles,
        "derivs": [rate] * len(angles),
        "weights": [1.0 / rate] * len(angles),
        "truncated": False,
        "herglotz_certifying": True,
        "herglotz_residual_max": 0.0,
    }
    (tmp_path / "clark.json").write_text(json.dumps(report))
    return config


def test_cube_roots_are_the_level_set_of_z3(tmp_path: Path) -> None:
    roots = [0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0]
    np.testing.assert_allclose(oracles.theta(Z3, np.exp(1j * np.array(roots))), 1.0, atol=1e-15)
    problems, quality = oracles.check_clark(_clark_report(tmp_path, roots), tmp_path)
    assert problems == []
    assert quality["level_points"] == 3


def test_clark_oracle_rejects_a_moved_or_missing_root(tmp_path: Path) -> None:
    moved = [0.0, 2.0 * math.pi / 3.0 + 1e-6, 4.0 * math.pi / 3.0]
    problems, _ = oracles.check_clark(_clark_report(tmp_path, moved), tmp_path)
    assert any("residual" in p for p in problems)
    problems, _ = oracles.check_clark(_clark_report(tmp_path, [0.0, 2.0 * math.pi / 3.0]), tmp_path)
    assert any("2 level points for degree 3" in p for p in problems)


def test_carleson_constant_of_a_pair_is_their_distance() -> None:
    # rho(a, b) = |a - b| / |1 - conj(b) a|
    assert oracles.carleson_delta([0.0, 0.5]) == pytest.approx(0.5, rel=1e-15)
    assert oracles.carleson_delta([0.5, -0.5]) == pytest.approx(0.8, rel=1e-15)
    a, b = 0.3 + 0.1j, -0.2 + 0.4j
    want = abs(a - b) / abs(1.0 - b.conjugate() * a)
    assert oracles.carleson_delta([a, b]) == pytest.approx(want, rel=1e-14)
    assert oracles.carleson_delta([0.25j]) == 1.0


def test_phi_hand_values() -> None:
    assert oracles.phi(1.0) == 1.0
    assert oracles.phi(0.8) == pytest.approx(4.0, rel=1e-15)  # (2 - .64 + 1.2) / .64


def test_frame_bounds_oracle_flags_a_definite_claim_on_a_singular_section() -> None:
    ones = np.ones((3, 3))  # eigenvalues 0, 0, 3
    ok = {"lambda_min": 0.0, "lambda_max": 3.0, "n": 3}
    assert oracles.check_frame_bounds(ok, ones, "s") == []
    false_positive = {"lambda_min": 1e-9, "lambda_max": 3.0, "n": 3}
    problems = oracles.check_frame_bounds(false_positive, ones, "s")
    assert len(problems) == 1 and "numerically singular" in problems[0]
    eye = np.eye(4)
    assert oracles.check_frame_bounds({"lambda_min": 1.0, "lambda_max": 1.0, "n": 4}, eye, "s") == []
    assert oracles.check_frame_bounds({"lambda_min": 0.9, "lambda_max": 1.0, "n": 4}, eye, "s")


def test_coverage_oracle() -> None:
    assert oracles.check_coverage([{"ids": [0, 2]}, {"ids": [1]}], 3) == []
    assert oracles.check_coverage([{"ids": [0, 1]}, {"ids": [1]}], 3)


# ---------------------------------------------------------------------------
# span accounting
# ---------------------------------------------------------------------------

def test_layer_self_times_add_up_to_traced_wall(tmp_path: Path) -> None:
    import mslab.cli
    import mslab.decompose

    original = mslab.decompose.carleson_constant
    configs = [
        ("split", {"inner": {"blaschke_zeros": [[0.3, 0.1]]},
                   "points": [[0.1 * k, 0.05 * k] for k in range(1, 9)], "mode": "interp"}),
        ("clark", {"inner": Z3, "alpha": [0.0, 1.0]}),
    ]
    tracer = Tracer()
    with tracer:
        assert mslab.decompose.carleson_constant is not original
        for k, (command, config) in enumerate(configs):
            path = tmp_path / f"c{k}.json"
            path.write_text(json.dumps(config))
            assert mslab.cli.main([command, "--config", str(path), "--out", str(tmp_path / f"o{k}")]) == 0
    assert mslab.decompose.carleson_constant is original

    assert tracer.calls["cli.main"] == 2
    assert tracer.root_s > 0.0
    assert set(tracer.self_s) <= set(LAYERS)
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.root_s, rel=1e-9)
    # names bound by the caller are wrapped: the splitter's own binding of
    # carleson_constant, and clark's binding of eval_inner
    assert tracer.calls["carleson.carleson_constant"] > 0
    assert tracer.caller_calls[("inner.eval_inner", "clark")] > 0
    assert tracer.counts["clark.level_points"] == 3
