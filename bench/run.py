"""mslab benchmark: closed-loop CLI workloads checked by independent oracles.

    python3 bench/run.py --workload interp_split --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  One client calls ``mslab.cli.main`` once per generated config and
starts the next config only after the previous one has finished.  Every
output is checked by ``oracles.py``; a non-zero exit or a failed check
counts as a failed config and the run goes on.

``--trace 0`` reports the end-to-end metrics, timings in units of a fixed
reference loop run between the configs.  ``--trace 1`` runs the
seed's configs once untraced and once traced (``tracer.py``) and reports
the per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it carries the provenance, and the full result is also written
to ``.bench_out/`` in the checkout.  See README.md for the metrics.
"""

from __future__ import annotations

import os

# The BLAS thread cap must be in place before numpy is first imported, here
# and in every child interpreter, so that a later switch to LAPACK runs under
# the same thread budget.  One thread: the loop has a single client.
BLAS_THREADS = 1
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _name in BLAS_ENV:
    os.environ[_name] = str(BLAS_THREADS)
# Config sweeps (MSLAB_THREADS) are not benchmarked.
os.environ.pop("MSLAB_THREADS", None)

import argparse  # noqa: E402
import cmath  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"

# An untraced run makes whole passes over the seed's configs, at least
# MIN_PASSES of them, and times every config against the reference loop
# run PROBES_PER_CONFIG times before it (see end_to_end).  Set-up is timed
# SETUP_PER_PASS times before the first pass and after each pass, so its
# samples are spread over the whole run.
MIN_PASSES = 4
PROBES_PER_CONFIG = 2
SETUP_PER_PASS = 1

# The reference loop: pseudohyperbolic distances between 80 fixed points of
# a spiral in the disk, in plain Python, as the package's hot loops are.
# It shares no code with mslab, so no change to the package moves it.
_REF_POINTS = [
    0.9 * math.sqrt((k + 0.5) / 80) * cmath.exp(1j * workloads.GOLDEN_ANGLE * k) for k in range(80)
]


def reference_loop() -> float:
    total = 0.0
    for a in _REF_POINTS:
        for b in _REF_POINTS:
            if a != b:
                total += abs((a - b) / (1.0 - b.conjugate() * a))
    return total


_CHILD = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import mslab\n"
    "for path in sys.argv[2:]:\n"
    "    with open(path) as handle:\n"
    "        json.load(handle)\n"
    "print('ready', flush=True)\n"
)


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A weighted mean of all order statistics, with Beta(q(n+1), (1-q)(n+1))
    weights, so with the 9-12 configs of a run it moves smoothly with every
    config's time instead of jumping between two neighbouring configs.
    """
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)[1:-1]
    log_density = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    density = np.exp(log_density - log_density.max())
    cdf = np.concatenate(([0.0], np.cumsum((density[1:] + density[:-1]) / 2.0)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, t, cdf)
    return float(np.diff(edges) @ x)


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.exists():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "mslab").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "MSLAB_THREADS": "unset",
        "blas_threads": BLAS_THREADS,
        "blas_env": list(BLAS_ENV),
    }


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------

class Loop:
    """Runs configs one at a time through ``mslab.cli.main`` and checks them."""

    def __init__(self, cli, work_dir: Path) -> None:
        self.cli = cli
        self.cfg_path = work_dir / "config.json"
        self.out_dir = work_dir / "out"
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.check_errors: list[str] = []
        self.bytes_written = 0

    def run(self, command: str, text: str, label: str) -> dict:
        """One config: returns the quality figures of a correct output, else {}."""
        self.cfg_path.write_text(text)
        shutil.rmtree(self.out_dir, ignore_errors=True)
        # start every config from a collected heap, as a fresh CLI process
        # would, so one config's garbage is not collected on the next one's time
        gc.collect()
        argv = [command, "--config", str(self.cfg_path), "--out", str(self.out_dir)]
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except Exception:  # the loop must go on; the config counts as failed
            code = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        self.times.append(time.perf_counter() - start)
        if code != 0:
            self.failures.append(f"{label} {command}: exit {code}")
            return {}
        self.bytes_written += sum(p.stat().st_size for p in self.out_dir.rglob("*") if p.is_file())
        config = json.loads(text)
        try:
            problems, quality = oracles.check(command, config, self.out_dir)
        except (OSError, KeyError, ValueError, TypeError, IndexError) as exc:
            problems, quality = [f"report unreadable: {exc!r}"], {}
        except Exception:  # a defect of the oracle itself: the run is not verified
            self.check_errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            return {}
        if problems:
            self.failures.append(f"{label} {command}: " + "; ".join(problems[:3]))
            return {}
        return quality


def run_pass(
    loop: Loop,
    configs: list[tuple[str, str]],
    index: int,
    qualities: list[dict],
    probes: list[float] | None = None,
) -> list[float]:
    """One pass over the configs; returns each config's wall time, in order.

    With ``probes``, the reference loop runs PROBES_PER_CONFIG times before
    each config and its wall times are appended there.
    """
    times = []
    for k, (command, text) in enumerate(configs):
        if probes is not None:
            for _ in range(PROBES_PER_CONFIG):
                start = time.perf_counter()
                reference_loop()
                probes.append(time.perf_counter() - start)
        qualities.append(loop.run(command, text, f"pass {index} config {k}"))
        times.append(loop.times[-1])
    return times


def quality_metrics(qualities: list[dict]) -> dict:
    slacks = [q["slack_min"] for q in qualities if "slack_min" in q]
    residuals = [q["herglotz_residual"] for q in qualities if "herglotz_residual" in q]
    return {
        "parts_total": sum(q.get("parts", 0) for q in qualities),
        "cert_slack_min": min(slacks) if slacks else 0.0,
        "herglotz_residual_max": max(residuals) if residuals else 0.0,
    }


class Setup:
    """Times a fresh interpreter from spawn until ``import mslab`` is done and the configs are loaded."""

    def __init__(self, configs: list[tuple[str, str]], cfg_dir: Path) -> None:
        self.paths = []
        for k, (_command, text) in enumerate(configs):
            path = cfg_dir / f"setup_{k:02d}.json"
            path.write_text(text)
            self.paths.append(str(path))
        self.samples: list[float] = []

    def measure(self, repeats: int) -> None:
        for _ in range(repeats):
            start = time.perf_counter()
            with subprocess.Popen(
                [sys.executable, "-c", _CHILD, str(SRC), *self.paths],
                stdout=subprocess.PIPE,
                text=True,
                cwd=ROOT,
            ) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
                code = proc.wait(timeout=60)
            if line.strip() != "ready" or code != 0:
                raise RuntimeError(f"setup child failed with exit code {code}")
            self.samples.append(elapsed)


def warm_up(loop: Loop, configs: list[tuple[str, str]]) -> None:
    """The smallest config of each command, untimed, so first-call costs land outside the timing."""
    smallest: dict[str, str] = {}
    for command, text in configs:
        if command not in smallest or len(text) < len(smallest[command]):
            smallest[command] = text
    for command, text in smallest.items():
        loop.run(command, text, f"warm-up {command}")


def end_to_end(args, loop: Loop, work_dir: Path) -> tuple[dict, dict, Loop]:
    """Whole passes over the seed's configs, timed in units of the reference loop.

    The host this runs on is shared, and its speed changes by up to 1.9x
    between spells of seconds to minutes, for every config of a run alike.
    So each config's wall time is divided by the median wall time of the
    reference loop in the same pass, and a config's figure is the median of
    these ratios over the passes.  Over 40-second windows of one process,
    the median config time in seconds ranged over 1.77x and this figure
    over 1.085x.  The same figures in seconds, and the reference loop's
    time, are reported beside them.
    """
    configs = workloads.configs(args.workload, args.seed)
    setup = Setup(configs, work_dir)
    warm = Loop(loop.cli, work_dir)
    warm_up(warm, configs)
    start = time.perf_counter()
    setup.measure(SETUP_PER_PASS)
    qualities: list[dict] = []
    seconds: list[list[float]] = [[] for _ in configs]
    ratios: list[list[float]] = [[] for _ in configs]
    all_probes: list[float] = []
    passes = 0
    # Whole passes until the next one would end more than half a pass past
    # --seconds, so the run ends within half a pass of it.
    while True:
        probes: list[float] = []
        times = run_pass(loop, configs, passes, qualities if passes == 0 else [], probes)
        ref = statistics.median(probes)
        for k, t in enumerate(times):
            seconds[k].append(t)
            ratios[k].append(t / ref)
        all_probes.extend(probes)
        setup.measure(SETUP_PER_PASS)
        passes += 1
        elapsed = time.perf_counter() - start
        if passes >= MIN_PASSES and elapsed + 0.5 * elapsed / passes >= args.seconds:
            break
    per_config = [statistics.median(r) for r in ratios]
    per_config_s = [statistics.median(t) for t in seconds]
    quality = quality_metrics(qualities)
    metrics = {
        "setup_s": (statistics.median(setup.samples), "s"),
        "run_ref.p50": (hd_quantile(per_config, 0.5), "ref"),
        "pass_ref": (sum(per_config), "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "parts_total": (quality["parts_total"], "count"),
    }
    detail = {
        "passes": passes,
        "configs": len(configs),
        "setup_samples": len(setup.samples),
        "ref_s": statistics.median(all_probes),
        "run_ref.p90": hd_quantile(per_config, 0.9),
        "run_s.p50": hd_quantile(per_config_s, 0.5),
        "run_s.p90": hd_quantile(per_config_s, 0.9),
        "configs_per_s": len(per_config_s) / sum(per_config_s),
        "per_config_ref": per_config,
        "cert_slack_min": quality["cert_slack_min"],
        "herglotz_residual_max": quality["herglotz_residual_max"],
    }
    return metrics, detail, warm


# ---------------------------------------------------------------------------
# the traced run
# ---------------------------------------------------------------------------

def layer_metrics(t, untraced_s: float, quality: dict, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass over the seed's configs."""
    from tracer import LAYERS

    calls = Counter(t.calls)
    for (fn, _parent), (n, _seconds) in t.hot.items():
        calls[fn] += n
    counts = t.counts
    wall = t.root_s
    m: dict = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (t.self_s[layer], "s")
        m[f"{layer}.self_share"] = (t.self_s[layer] / wall, "share")

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def count(name: str, value) -> None:
        m[name] = (value, "count")

    report_calls = calls["carleson.carleson_report"]
    count("carleson.carleson_report.calls", report_calls)
    count("carleson.carleson_constant.calls", calls["carleson.carleson_constant"])
    count("carleson.pairs", counts["carleson.pairs"])
    discarded = counts["carleson.embedding_discarded"]
    count("carleson.embedding_discarded", discarded)
    m["carleson.embedding_discarded_share"] = (ratio(discarded, report_calls), "share")

    bins = counts["decompose.greedy_bins"]
    placements = counts["decompose.greedy_points"] - bins
    # first-fit issues one Carleson call per trial, then one per bin to verify
    trials = t.children_named(
        "decompose.greedy_interpolating_cover", "carleson.carleson_constant"
    ) - bins
    splitter_calls = t.count_under("decompose.split_by_interpolation", "carleson.carleson_report")
    squares_runs = calls["decompose.decompose_by_squares"]
    m["decompose.total_s"] = (t.total_s["decompose"], "s")
    count("decompose.greedy_placements", placements)
    count("decompose.greedy_trials", trials)
    m["decompose.greedy_accept_ratio"] = (ratio(placements, trials), "ratio")
    count("decompose.splitter_carleson_calls", splitter_calls)
    parts = counts["decompose.interp_parts"]
    count("decompose.interp_parts", parts)
    m["decompose.carleson_calls_per_part"] = (ratio(splitter_calls, parts), "ratio")
    count("decompose.mills_split.calls", calls["decompose.mills_split"])
    arc_builds = calls["decompose.build_arc_system"]
    count("decompose.build_arc_system.calls", arc_builds)
    count("decompose.squares_runs", squares_runs)
    m["decompose.arc_builds_per_squares_run"] = (ratio(arc_builds, squares_runs), "ratio")
    count("decompose.select_level_count.calls", calls["decompose.select_level_count"])
    count("decompose.uncovered_samples", counts["decompose.uncovered_samples"])
    m["decompose.cert_slack_min"] = (quality["cert_slack_min"], "1")
    count("decompose.parts_total", quality["parts_total"])

    m["clark.total_s"] = (t.total_s["clark"], "s")
    count("clark.build_arg_branch.calls", calls["clark.build_arg_branch"])
    samples, points = counts["clark.branch_samples"], counts["clark.level_points"]
    count("clark.branch_samples", samples)
    count("clark.level_points", points)
    m["clark.samples_per_level_point"] = (ratio(samples, points), "ratio")
    count("clark.herglotz_residual.calls", calls["clark.herglotz_residual"])
    m["clark.herglotz_residual_max"] = (quality["herglotz_residual_max"], "1")

    for fn, callers in (
        ("eval_inner", ("inner", "clark", "decompose", "gram")),
        ("boundary_derivative", ("inner", "clark", "decompose")),
        ("kernel_norm_sq", ("inner",)),
    ):
        count(f"inner.{fn}.calls", calls[f"inner.{fn}"])
        for caller in callers:
            count(f"inner.{fn}.calls.from_{caller}", t.caller_calls[(f"inner.{fn}", caller)])

    count("quadrature.adaptive_simpson.calls", calls["quadrature.adaptive_simpson"])
    count("quadrature.integrand_evals", counts["quadrature.integrand_evals"])

    count("gram.gram.calls", calls["gram.gram"])
    count("gram.entries", counts["gram.entries"])
    count("gram.extremal_eigs.calls", calls["gram.extremal_eigs"])
    m["gram.extremal_eigs.self_s"] = (t.fn_self_s["gram.extremal_eigs"], "s")
    count("gram.eig_rows_max", t.gauges.get("gram.eig_rows_max", 0))
    count("gram.power_calls", counts["gram.power_calls"])

    count("pw.pw_gram.calls", calls["pw.pw_gram"])
    count("pw.pw_split.calls", calls["pw.pw_split"])
    count("points.sequences_built", calls["points.PointSequence.__post_init__"])
    m["cli.bytes_written"] = (bytes_written, "B")

    m["trace.wall_s"] = (wall, "s")
    m["trace.overhead_s"] = (wall - untraced_s, "s")
    return m


def traced(args, cli, work_dir: Path) -> tuple[dict, dict, list, list[str]]:
    """One untraced and one traced pass over the seed's configs.

    The counters must repeat exactly for a seed, so the traced run covers
    the configs once, whatever --seconds says.
    """
    from tracer import Tracer

    configs = workloads.configs(args.workload, args.seed)
    plain = Loop(cli, work_dir)
    run_pass(plain, configs, 0, [])
    tracer = Tracer()
    loop = Loop(cli, work_dir)
    qualities: list[dict] = []
    with tracer:
        run_pass(loop, configs, 0, qualities)
    metrics = layer_metrics(
        tracer, sum(plain.times), quality_metrics(qualities), loop.bytes_written
    )
    problems = []
    accounted = sum(tracer.self_s.values())
    if abs(accounted - tracer.root_s) > 1e-6 * tracer.root_s:
        problems.append(f"layer self times {accounted!r} do not add up to traced wall {tracer.root_s!r}")
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-spans.json").write_text(json.dumps({
        "spans": tracer.spans,
        "hot": [[name, parent, n, s] for (name, parent), (n, s) in sorted(tracer.hot.items())],
    }))
    return metrics, {}, [plain, loop], problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not (SRC / "mslab" / "__init__.py").is_file():
        print(f"bench: no mslab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mslab.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "mslab").resolve():
        print(f"bench: imported mslab from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    work_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        prov = provenance(args)
        problems: list[str] = []
        if args.trace:
            metrics, detail, loops, problems = traced(args, cli, work_dir)
        else:
            loop = Loop(cli, work_dir)
            metrics, detail, warm = end_to_end(args, loop, work_dir)
            loops = [warm, loop]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    check_errors = [e for loop in loops for e in loop.check_errors]
    result = {
        "correct": not check_errors and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    detail.update(failed_share=len(failures) / attempted, failures=failures[:20],
                  check_errors=check_errors[:5], problems=problems)
    OUT_ROOT.mkdir(exist_ok=True)
    record = {"provenance": prov, "detail": detail, "result": result}
    (OUT_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({"provenance": prov, "detail": detail}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
