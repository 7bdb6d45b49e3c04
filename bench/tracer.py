"""Out-of-program tracing of mslab by wrapping its public functions.

The package's modules import each other's functions by name
(``from .carleson import carleson_constant``), so each module holds its own
binding.  ``Tracer.install`` therefore wraps every public function at every
place a module binds it (``mslab.decompose.carleson_constant``,
``mslab.clark.eval_inner``, ``mslab.cli.level_set``, ...), plus the public
methods and ``__post_init__`` of the package's classes.  A wrapper is
charged to the layer (module) that defines the function, whoever calls it.
References captured before installation, such as ``cli._COMMANDS``, keep
the unwrapped function; their time stays with the caller's layer.

Each call pushes a frame on a stack.  A call's self time is its duration
minus the time covered by its direct children, so every instant inside a
root call (``cli.main``) is charged to exactly one layer and the layers'
self times add up to the traced wall time.  Ordinary calls are kept as
spans (id, parent id, name, start, end).  The hot scalar functions are
called hundreds of thousands of times per run; for them only a count and a
total time per (function, calling span) are kept.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("inner", "carleson", "gram", "clark", "decompose", "pw", "quadrature", "points", "cli")

HOT = frozenset(
    {
        "inner.eval_inner",
        "inner.boundary_derivative",
        "inner.log_derivative",
        "carleson.pseudohyperbolic",
        "points.normalize_angle",
        "points.angle_distance",
        "decompose.CarlesonSquare.contains",
    }
)

# Calls of these are also counted per calling module.
BY_CALLER = frozenset({"inner.eval_inner", "inner.boundary_derivative", "inner.kernel_norm_sq"})


class Tracer:
    """Wraps the mslab modules while installed; accumulates spans and counts."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.hot: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.calls: Counter = Counter()
        self.caller_calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.fn_self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.root_s = 0.0
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}
        # frame: [child seconds, span id, qualified name]
        self._stack: list[list] = [[0.0, 0, "bench"]]
        self._depth: Counter = Counter()
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        if name in HOT:
            return self._wrap_hot(fn, name, layer)
        before = _BEFORE.get(name)
        after = _AFTER.get(name)
        by_caller = name in BY_CALLER
        stack = self._stack
        depth = self._depth
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if by_caller:
                caller = sys._getframe(1).f_globals.get("__name__", "?").rpartition(".")[2]
                tracer.caller_calls[(name, caller)] += 1
            if before is not None:
                args = before(tracer, args)
            parent = stack[-1]
            span_id = tracer._next_id
            tracer._next_id += 1
            frame = [0.0, span_id, name]
            stack.append(frame)
            outermost = depth[layer] == 0
            depth[layer] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[layer] -= 1
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                own = dur - frame[0]
                tracer.self_s[layer] += own
                tracer.fn_self_s[name] += own
                tracer.calls[name] += 1
                if outermost:
                    tracer.total_s[layer] += dur
                if len(stack) == 1:
                    tracer.root_s += dur
                tracer.spans.append((span_id, parent[1], name, t0, t1))
            if after is not None:
                after(tracer, args, result, parent[2])
            return result

        return wrapper

    def _wrap_hot(self, fn, name: str, layer: str):
        """Lean wrapper: time and count aggregated per (function, calling span).

        Hot calls take no part in ``total_s``; it is reported for decompose
        and clark only, and their one hot function, ``CarlesonSquare.contains``,
        always runs inside a decompose call.
        """
        by_caller = name in BY_CALLER
        stack = self._stack
        self_s = self.self_s
        hot = self.hot
        caller_calls = self.caller_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if by_caller:
                caller = sys._getframe(1).f_globals.get("__name__", "?").rpartition(".")[2]
                caller_calls[(name, caller)] += 1
            parent = stack[-1]
            frame = [0.0, parent[1], name]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                parent[0] += dur
                self_s[layer] += dur - frame[0]
                agg = hot[(name, parent[1])]
                agg[0] += 1
                agg[1] += dur

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        # a class keeps the raw descriptor (e.g. the staticmethod) to restore
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function at every module binding, and class methods."""
        modules = [importlib.import_module(f"mslab.{layer}") for layer in LAYERS]
        classes = set()
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                home = getattr(obj, "__module__", "") or ""
                if not home.startswith("mslab."):
                    continue
                layer = home.split(".")[1]
                if inspect.isfunction(obj):
                    self._patch(module, attr, self._wrap(obj, f"{layer}.{obj.__name__}", layer))
                elif inspect.isclass(obj) and home == module.__name__:
                    classes.add((obj, layer))
        for cls, layer in sorted(classes, key=lambda c: c[0].__qualname__):
            for attr, raw in list(vars(cls).items()):
                if attr.startswith("_") and attr != "__post_init__":
                    continue
                name = f"{layer}.{cls.__qualname__}.{attr}"
                if isinstance(raw, staticmethod):
                    self._patch(cls, attr, staticmethod(self._wrap(raw.__func__, name, layer)))
                elif inspect.isfunction(raw):
                    self._patch(cls, attr, self._wrap(raw, name, layer))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- derived figures ----------------------------------------------------

    def children_named(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is a ``parent_name`` span."""
        parents = {sid for sid, _, name, _, _ in self.spans if name == parent_name}
        return sum(1 for _, pid, name, _, _ in self.spans if name == child_name and pid in parents)

    def count_under(self, ancestor_name: str, name: str) -> int:
        """Number of ``name`` spans with an ``ancestor_name`` span above them."""
        parent_of = {sid: (pid, n) for sid, pid, n, _, _ in self.spans}
        total = 0
        for sid, pid, n, _, _ in self.spans:
            if n != name:
                continue
            while pid in parent_of:
                pid, up = parent_of[pid]
                if up == ancestor_name:
                    total += 1
                    break
        return total


# ---------------------------------------------------------------------------
# observers: work counters read from arguments and results
# ---------------------------------------------------------------------------

def _carleson_report(t: Tracer, args: tuple, result, caller: str) -> None:
    n = len(args[0])
    t.counts["carleson.pairs"] += n * n
    if caller == "carleson.carleson_constant":
        t.counts["carleson.embedding_discarded"] += 1


def _greedy_cover(t: Tracer, args: tuple, result, caller: str) -> None:
    t.counts["decompose.greedy_points"] += len(args[0])
    t.counts["decompose.greedy_bins"] += len(result)


def _extremal_eigs(t: Tracer, args: tuple, result, caller: str) -> None:
    t.gauges["gram.eig_rows_max"] = max(t.gauges.get("gram.eig_rows_max", 0), result.n)
    if result.n > 512:  # the package's Jacobi/power switch
        t.counts["gram.power_calls"] += 1


def _count(name: str, amount):
    def observe(t: Tracer, args: tuple, result, caller: str) -> None:
        t.counts[name] += amount(result)
    return observe


# called after each wrapped call that returns
_AFTER = {
    "carleson.carleson_report": _carleson_report,
    "decompose.greedy_interpolating_cover": _greedy_cover,
    "decompose.split_by_interpolation": _count("decompose.interp_parts", lambda r: len(r.parts)),
    "clark.build_arg_branch": _count("clark.branch_samples", lambda r: len(r.thetas)),
    "clark.level_sets": _count("clark.level_points", lambda r: sum(len(f.points) for f in r)),
    "decompose.uncovered_region_report": _count("decompose.uncovered_samples", lambda r: r.samples),
    "gram.gram": _count("gram.entries", lambda r: r.n * r.n),
    "gram.extremal_eigs": _extremal_eigs,
}


def _count_integrand(t: Tracer, args: tuple) -> tuple:
    """Replaces the integrand argument by one that counts its evaluations."""
    f = args[0]
    counts = t.counts

    def counted(x):
        counts["quadrature.integrand_evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:])


# called before each wrapped call, may replace its positional arguments
_BEFORE = {"quadrature.adaptive_simpson": _count_integrand}
