"""Adversarial inputs to both split pipelines, ``analyze``, ``pw`` and
``clark``, pinned by exit code through the CLI.

Every ``squares`` case runs on the zeros 0.5, -0.3+0.4i and -0.6i and the
points 0.9 e^{ik}, k = 1..11, with one thing pushed to an edge:
near-coincident boundary points or atoms, a heavy atom, many levels, high
degree, a one-point sequence, boundary points next to the wrap at angle
zero.  Those exit 0, and each partition is checked by conftest's
independent oracles: the parts cover every id exactly once; a point sits
in a square part exactly when the reference scan over ``geometry.csv``'s
arcs finds a square holding it, and a square part holds at most one point
per square, all of its own level; and each part's frame bounds match
cyclic Jacobi on the oracle Gram.  A point on the spectrum, and a zero at
1 - 1e-12 whose level points double precision cannot separate, exit 3.

Every ``interp`` case runs on the zero 0.5 and the same points, unless
it says otherwise: interior points 1e-15 apart, a point on the zero,
every point on a zero (gamma = 0, so delta* is about 1.49e-154 and nothing
clashes), a one-point sequence and an imaginary part of -0.0 exit 0, each
part's delta_j matching a from-scratch product and its frame bounds
Jacobi's.  Coincident points, a ``true`` coordinate and integers beyond
the float range exit 2, and a boundary point exits 4.

``analyze`` runs on the same zeros and points, with interior points 1e-15
apart, a zero at 1 - 1e-12, a mass-50 atom, degree 500 (fewer points than
zeros), one interior point and one boundary point; ``pw`` runs one
frequency, frequencies 1e-15 apart, and a = 1e-160 at imaginary parts near
1e155.  Those exit 0, and the report's frame bounds match cyclic Jacobi on
the oracle Gram: ``gram_oracle`` for ``analyze``, the normalized
``exp_inner_oracle`` Gram for ``pw``.  Coincident points or frequencies
exit 2; a boundary point on an atom, boundary points 1e-15 apart in one
section, a constant Theta and an overflowing a (l - conj(m)) exit 3.

``clark`` runs at alpha = 1 with a zero at 1 - 1e-12, a mass-50 atom, two
atoms 1e-9 apart and degree 500, and on the three zeros at alpha =
Theta(1), a level point on the seam at angle 0.  Those exit 0: every
point solves Theta = alpha to within a few ulps of its angle times the
oracle rate there; Blaschke data gives degree-many points and a complete
family whose weights pass the Herglotz identity against the oracle
Theta; data with atoms gives a family flagged truncated.  A
non-unimodular alpha exits 2 and a constant Theta exits 3.
"""

import csv
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (
    blaschke_values,
    blaschke_values_on_circle,
    boundary_rate_oracle,
    carleson_delta_oracle,
    eig_extremes_oracle,
    exp_inner_oracle,
    gram_oracle,
    locate_reference,
)

from mslab import cli
from mslab.cli import main
from mslab.points import PointSequence

ZEROS = [[0.5, 0.0], [-0.3, 0.4], [0.0, -0.6]]
POINTS = [[0.9 * math.cos(k), 0.9 * math.sin(k)] for k in range(1, 12)]
RING = [[0.8 * math.cos(math.tau * k / 500), 0.8 * math.sin(math.tau * k / 500)] for k in range(500)]
ATOM = {"angle": 2.0, "mass": 0.5}

# name: (inner, points, options)
PASSING = {
    "boundary-points-1e-15-apart": (
        {"blaschke_zeros": ZEROS}, POINTS + [{"angle": 0.7}, {"angle": 0.7 + 1e-15}], None,
    ),
    "atoms-1e-9-apart": (
        {"blaschke_zeros": ZEROS, "singular_atoms": [ATOM, {"angle": 2.0 + 1e-9, "mass": 0.5}]},
        POINTS,
        None,
    ),
    "mass-50-atom": (
        {"blaschke_zeros": ZEROS, "singular_atoms": [{"angle": 2.0, "mass": 50.0}]}, POINTS, None,
    ),
    "level-count-256": ({"blaschke_zeros": ZEROS}, POINTS, {"level_count": 256}),
    "degree-500": ({"blaschke_zeros": RING}, POINTS, {"level_count": 8}),
    "one-interior-point": ({"blaschke_zeros": ZEROS}, [[0.1, 0.2]], None),
    "one-boundary-point": ({"blaschke_zeros": ZEROS}, [{"angle": 1.0}], None),
    "boundary-points-at-the-wrap": (
        {"blaschke_zeros": ZEROS}, POINTS + [{"angle": 0.0}, {"angle": math.tau - 1e-9}], None,
    ),
}

# name: (inner, points, options, message)
FAILING = {
    "interior-point-on-a-zero": (
        {"blaschke_zeros": ZEROS}, POINTS + [[0.5, 0.0]], None, "point 11 lies on the spectrum",
    ),
    "boundary-point-on-an-atom": (
        {"blaschke_zeros": ZEROS, "singular_atoms": [ATOM]},
        POINTS + [{"angle": 2.0}],
        None,
        "point 11 lies on the spectrum",
    ),
    "zero-at-1-minus-1e-12": (
        {"blaschke_zeros": ZEROS + [[1.0 - 1e-12, 0.0]]}, POINTS, None, "level points at angles .* collide",
    ),
}


def _run(tmp_path, inner, points, options, mode="squares") -> tuple[int, object]:
    config = {"inner": inner, "points": points, "mode": mode}
    if options is not None:
        config["options"] = options
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main(["split", "--config", str(path), "--out", str(out)]), out


def _sequence(points) -> PointSequence:
    z = [0j if isinstance(p, dict) else complex(*p) for p in points]
    angles = [p["angle"] if isinstance(p, dict) else math.nan for p in points]
    return PointSequence.from_mixed(z, angles)


def _geometry(out) -> SimpleNamespace:
    with open(out / "geometry.csv") as handle:
        rows = list(csv.DictReader(handle))
    return SimpleNamespace(
        lo=np.array([float(r["theta_lo"]) for r in rows]),
        hi=np.array([float(r["theta_hi"]) for r in rows]),
        level=np.array([int(r["level"]) for r in rows], dtype=int),
    )


@pytest.mark.parametrize("name", sorted(PASSING))
def test_edge_input_splits_and_passes_the_oracles(tmp_path, name: str) -> None:
    inner, points, options = PASSING[name]
    code, out = _run(tmp_path, inner, points, options)
    assert code == 0
    parts = json.loads((out / "partition.json").read_text())["parts"]
    ids = sorted(pid for part in parts for pid in part["ids"])
    assert ids == list(range(len(points)))

    theta = cli._parse_inner(inner)
    seq = _sequence(points)
    arcs = _geometry(out)
    square_of = locate_reference(arcs, seq.z)
    for part in parts:
        held = square_of[part["ids"]]
        if part["route"].startswith("square:"):
            level = int(part["route"].split(":")[1])
            assert (held >= 0).all()
            assert len(set(held.tolist())) == held.size
            assert (arcs.level[held] == level).all()
        else:
            assert (held < 0).all()
        want = eig_extremes_oracle(gram_oracle(theta, seq.subset(np.array(part["ids"]))))
        got = part["certificate"]["frame_bounds"]
        assert got["lambda_min"] == pytest.approx(want[0], abs=1e-8)
        assert got["lambda_max"] == pytest.approx(want[1], abs=1e-8)


@pytest.mark.parametrize("name", sorted(FAILING))
def test_edge_input_exits_three(tmp_path, capsys, name: str) -> None:
    inner, points, options, message = FAILING[name]
    code, out = _run(tmp_path, inner, points, options)
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("mslab: numeric domain error: ")
    assert re.search(message, err)
    assert not (out / "partition.json").exists()


ZERO = {"blaschke_zeros": [[0.5, 0.0]]}
HUGE = 10**400  # a JSON integer beyond the float range

# name: (inner, points)
INTERP_PASSING = {
    "interior-points-1e-15-apart": (ZERO, POINTS + [[0.2, 0.1], [0.2 + 1e-15, 0.1]]),
    "point-on-the-zero": (ZERO, POINTS + [[0.5, 0.0]]),
    "every-point-on-a-zero": ({"blaschke_zeros": POINTS}, POINTS),
    "one-point": (ZERO, [[0.1, 0.2]]),
    "minus-zero-imaginary-part": (ZERO, POINTS + [[-0.3, -0.0]]),
}

# name: (points, exit code, message)
INTERP_FAILING = {
    "coincident-points": (POINTS + [POINTS[3]], 2, "config error: .*coincide"),
    "true-coordinate": (POINTS + [[True, 0.0]], 2, "config error: point 11 must hold finite numbers, got True"),
    "huge-integer-coordinate": (POINTS + [[0.1, HUGE]], 2, "config error: point 11 must hold finite numbers"),
    "boundary-point": (POINTS + [{"angle": 1.0}], 4, "certification failure: off-spectrum condition violated"),
}


@pytest.mark.parametrize("name", sorted(INTERP_PASSING))
def test_interp_edge_input_splits_and_passes_the_oracles(tmp_path, name: str) -> None:
    inner, points = INTERP_PASSING[name]
    code, out = _run(tmp_path, inner, points, None, mode="interp")
    assert code == 0
    parts = json.loads((out / "partition.json").read_text())["parts"]
    ids = sorted(pid for part in parts for pid in part["ids"])
    assert ids == list(range(len(points)))

    theta = cli._parse_inner(inner)
    seq = _sequence(points)
    for part in parts:
        sub = seq.subset(np.array(part["ids"]))
        cert = part["certificate"]
        assert cert["delta_j"] == pytest.approx(carleson_delta_oracle(sub.z.tolist()), rel=1e-12)
        assert cert["dist_bound"] < 1.0
        want = eig_extremes_oracle(gram_oracle(theta, sub))
        assert cert["frame_bounds"]["lambda_min"] == pytest.approx(want[0], abs=1e-8)
        assert cert["frame_bounds"]["lambda_max"] == pytest.approx(want[1], abs=1e-8)


def test_interp_keeps_a_minus_zero_imaginary_part(tmp_path) -> None:
    inner, points = INTERP_PASSING["minus-zero-imaginary-part"]
    _, out = _run(tmp_path, inner, points, None, mode="interp")
    with open(out / "points.csv") as handle:
        last = list(csv.DictReader(handle))[-1]
    assert (last["re"], last["im"]) == ("-0.3", "-0.0")


def test_interp_split_at_gamma_zero_keeps_every_point_together(tmp_path) -> None:
    inner, points = INTERP_PASSING["every-point-on-a-zero"]
    _, out = _run(tmp_path, inner, points, None, mode="interp")
    report = json.loads((out / "partition.json").read_text())
    assert report["global"]["gamma"] == 0.0
    assert report["global"]["delta_star"] == pytest.approx(1.49e-154, rel=1e-2)
    assert [part["ids"] for part in report["parts"]] == [list(range(len(points)))]


@pytest.mark.parametrize("name", sorted(INTERP_FAILING))
def test_interp_edge_input_exits_with_its_code(tmp_path, capsys, name: str) -> None:
    points, want, message = INTERP_FAILING[name]
    code, out = _run(tmp_path, ZERO, points, None, mode="interp")
    assert code == want
    assert re.match(f"mslab: {message}", capsys.readouterr().err)
    if want == 4:  # the certification failure leaves its partial report
        assert json.loads((out / "partition.json").read_text())["failed"] is True
    else:
        assert not out.exists()


# name: (inner, points)
ANALYZE_PASSING = {
    "interior-points-1e-15-apart": ({"blaschke_zeros": ZEROS}, POINTS + [[0.2, 0.1], [0.2 + 1e-15, 0.1]]),
    "zero-at-1-minus-1e-12": ({"blaschke_zeros": ZEROS + [[1.0 - 1e-12, 0.0]]}, POINTS),
    "mass-50-atom": ({"blaschke_zeros": ZEROS, "singular_atoms": [{"angle": 2.0, "mass": 50.0}]}, POINTS),
    "degree-500": ({"blaschke_zeros": RING}, POINTS),
    "one-interior-point": ({"blaschke_zeros": ZEROS}, [[0.1, 0.2]]),
    "one-boundary-point": ({"blaschke_zeros": ZEROS}, [{"angle": 1.0}]),
}

# name: (inner, points, exit code, message)
ANALYZE_FAILING = {
    "coincident-points": ({"blaschke_zeros": ZEROS}, POINTS + [POINTS[3]], 2, "config error: .*coincide"),
    "boundary-point-on-an-atom": (
        {"blaschke_zeros": ZEROS, "singular_atoms": [ATOM]},
        POINTS + [{"angle": 2.0}],
        3,
        "numeric domain error: point 11: .* is on the spectrum",
    ),
    "boundary-points-1e-15-apart": (
        {"blaschke_zeros": ZEROS},
        POINTS + [{"angle": 0.7}, {"angle": 0.7 + 1e-15}],
        3,
        "numeric domain error: points 11 and 12 are numerically inseparable",
    ),
    "constant-theta": ({}, POINTS, 3, "numeric domain error: point 0 has unusable kernel norm squared"),
}


def _run_command(tmp_path, command: str, config: dict) -> tuple[int, object]:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    return main([command, "--config", str(path), "--out", str(out)]), out


@pytest.mark.parametrize("name", sorted(ANALYZE_PASSING))
def test_analyze_edge_input_passes_the_eigenvalue_oracle(tmp_path, name: str) -> None:
    inner, points = ANALYZE_PASSING[name]
    code, out = _run_command(tmp_path, "analyze", {"inner": inner, "points": points})
    assert code == 0
    got = json.loads((out / "analyze.json").read_text())["frame_bounds"]
    assert got["n"] == len(points)
    want = eig_extremes_oracle(gram_oracle(cli._parse_inner(inner), _sequence(points)))
    assert got["lambda_min"] == pytest.approx(want[0], abs=1e-12)
    assert got["lambda_max"] == pytest.approx(want[1], abs=1e-12)


@pytest.mark.parametrize("name", sorted(ANALYZE_FAILING))
def test_analyze_edge_input_exits_with_its_code(tmp_path, capsys, name: str) -> None:
    inner, points, want, message = ANALYZE_FAILING[name]
    code, out = _run_command(tmp_path, "analyze", {"inner": inner, "points": points})
    assert code == want
    assert re.match(f"mslab: {message}", capsys.readouterr().err)
    assert not out.exists()


# name: (a, frequencies)
PW_PASSING = {
    "one-frequency": (1.0, [[0.5, 0.0]]),
    "frequencies-1e-15-apart": (1.0, [[1.0, 0.0], [1.0 + 1e-15, 0.0], [2.0, 0.0]]),
    "a-1e-160-at-im-1e155": (1e-160, [[0.0, 1e155], [1e150, 2e155], [3e150, 1e155]]),
}

# name: (a, frequencies, exit code, message)
PW_FAILING = {
    "coincident-frequencies": (1.0, [[1.0, 0.0], [2.0, 0.5], [1.0, 0.0]], 2, "config error: frequencies 0 and 2 coincide"),
    "a-times-difference-overflows": (
        1.0, [[1e308, 0.0], [-1e308, 0.0]], 3, r"numeric domain error: .* a \(l - conj\(m\)\) overflows",
    ),
}


@pytest.mark.parametrize("name", sorted(PW_PASSING))
def test_pw_edge_input_passes_the_eigenvalue_oracle(tmp_path, name: str) -> None:
    a, freqs = PW_PASSING[name]
    code, out = _run_command(tmp_path, "pw", {"pw": {"a": a, "freqs": freqs}})
    assert code == 0
    got = json.loads((out / "pw.json").read_text())["frame_bounds"]
    assert got["n"] == len(freqs)
    f = [complex(*pair) for pair in freqs]
    norms = [math.sqrt(exp_inner_oracle(a, fi, fi).real) for fi in f]
    g = np.array([
        [1.0 if i == j else exp_inner_oracle(a, fj, fi) / (norms[i] * norms[j]) for j, fj in enumerate(f)]
        for i, fi in enumerate(f)
    ])
    want = eig_extremes_oracle(g)
    assert got["lambda_min"] == pytest.approx(want[0], abs=1e-12)
    assert got["lambda_max"] == pytest.approx(want[1], abs=1e-12)


@pytest.mark.parametrize("name", sorted(PW_FAILING))
def test_pw_edge_input_exits_with_its_code(tmp_path, capsys, name: str) -> None:
    a, freqs, want, message = PW_FAILING[name]
    code, out = _run_command(tmp_path, "pw", {"pw": {"a": a, "freqs": freqs}})
    assert code == want
    assert re.match(f"mslab: {message}", capsys.readouterr().err)
    assert not out.exists()


def _theta_at_one() -> list[float]:
    """Theta(1) for the zeros ZEROS, from the oracle: a level value with a point at angle 0."""
    value = complex(blaschke_values(cli._parse_inner({"blaschke_zeros": ZEROS}), np.array([1.0]))[0])
    return [value.real, value.imag]


# name: (inner, alpha)
CLARK_PASSING = {
    "zero-at-1-minus-1e-12": ({"blaschke_zeros": ZEROS + [[1.0 - 1e-12, 0.0]]}, [1.0, 0.0]),
    "mass-50-atom": ({"blaschke_zeros": ZEROS, "singular_atoms": [{"angle": 2.0, "mass": 50.0}]}, [1.0, 0.0]),
    "atoms-1e-9-apart": (
        {"blaschke_zeros": ZEROS, "singular_atoms": [ATOM, {"angle": 2.0 + 1e-9, "mass": 0.5}]}, [1.0, 0.0],
    ),
    "degree-500": ({"blaschke_zeros": RING}, [1.0, 0.0]),
    "alpha-theta-at-1": ({"blaschke_zeros": ZEROS}, _theta_at_one()),
}

# name: (inner, alpha, exit code, message)
CLARK_FAILING = {
    "alpha-not-unimodular": (
        {"blaschke_zeros": ZEROS}, [0.5, 0.0], 2, r"config error: level value must be unimodular, got \|alpha\| = 0.5",
    ),
    "constant-theta": ({}, [1.0, 0.0], 3, "numeric domain error: constant inner function has no level sets"),
}


@pytest.mark.parametrize("name", sorted(CLARK_PASSING))
def test_clark_edge_input_passes_the_level_and_herglotz_oracles(tmp_path, name: str) -> None:
    inner, alpha = CLARK_PASSING[name]
    code, out = _run_command(tmp_path, "clark", {"inner": inner, "alpha": alpha})
    assert code == 0
    report = json.loads((out / "clark.json").read_text())
    theta = cli._parse_inner(inner)
    a = complex(*report["alpha"])
    points, weights = np.array(report["points"]), np.array(report["weights"])
    assert (np.diff(points) > 0.0).all() and 0.0 <= points[0] and points[-1] < math.tau
    # each point solves Theta = alpha up to a few ulps of its angle, times the rate there
    residual = np.abs(blaschke_values_on_circle(theta, points) - a)
    assert (residual <= 2e-14 * (1.0 + boundary_rate_oracle(theta, points))).all()
    if theta.singular_atoms:
        # the level set accumulates at the atoms: the family is cut, and says so
        assert report["truncated"] is True and report["herglotz_certifying"] is False
        return
    assert report["truncated"] is False and report["herglotz_certifying"] is True
    assert points.size == theta.degree
    # Re (alpha + Theta(z))/(alpha - Theta(z)) is the Poisson integral of the Clark measure
    z = np.array([0.0, 0.3j, -0.5 + 0.2j, 0.85])
    value = blaschke_values(theta, z)
    lhs = ((a + value) / (a - value)).real
    poisson = (1.0 - np.abs(z[:, None]) ** 2) / np.abs(np.exp(1j * points) - z[:, None]) ** 2
    assert np.abs(lhs - poisson @ weights).max() <= 1e-10
    assert report["herglotz_residual_max"] <= 1e-10


@pytest.mark.parametrize("name", sorted(CLARK_FAILING))
def test_clark_edge_input_exits_with_its_code(tmp_path, capsys, name: str) -> None:
    inner, alpha, want, message = CLARK_FAILING[name]
    code, out = _run_command(tmp_path, "clark", {"inner": inner, "alpha": alpha})
    assert code == want
    assert re.match(f"mslab: {message}", capsys.readouterr().err)
    assert not out.exists()
