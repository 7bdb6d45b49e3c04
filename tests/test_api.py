"""The package's export list: every name resolves, none repeats, star import works.

Also the layers the bench tracer imports: each one imports, and the empty
``mslab.quadrature`` stub binds nothing and stays out of ``import mslab``.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import mslab

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"

# The public surface, pinned so that it only changes on purpose.
EXPORTED = [
    "__version__",
    "ArcSystem",
    "CarlesonReport",
    "CertificationError",
    "ClarkFamily",
    "ConfigError",
    "ExpSystem",
    "InnerFunction",
    "MslabError",
    "NumericDomainError",
    "OnSpectrumError",
    "Partition",
    "PointSequence",
    "build_arc_system",
    "carleson_report",
    "decompose_by_squares",
    "earl_bound",
    "interpolation_threshold",
    "level_set",
    "level_sets",
    "pw_gram",
    "pw_split",
    "spectrum_distance",
    "split_by_interpolation",
    "uncovered_region_report",
]


def test_every_exported_name_resolves_once() -> None:
    names = mslab.__all__
    assert names == EXPORTED
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(mslab, name)]
    assert missing == []


def test_star_import_binds_every_exported_name() -> None:
    scope: dict = {}
    exec("from mslab import *", scope)
    assert set(mslab.__all__) <= set(scope)


def test_removed_square_names_are_not_exported() -> None:
    gone = {
        "CarlesonSquare",
        "SquareSystem",
        "build_squares",
        "select_level_count",
        "uncovered_region_delta",
        "count_per_square",
        "UnitPoint",
        "point_by_id",
        "close_to",
        # scalar twins of the array formulas, and pass-through wrappers
        "eval_inner",
        "boundary_derivative",
        "kernel_norm_sq",
        "kernel",
        "pseudohyperbolic",
        "embedding_sup",
        "exp_inner",
        "shift_off_axis",
        "herglotz_residual",
        "stability_margin",
        "riesz_verdict",
        "bessel_constant_estimate",
        # an aliased grid estimate, reached by no command
        "hankel_distance_lb",
        # one object per arc; the arc system holds arrays
        "Arc",
        # reached by no command: path variation inside the disk
        "derivative",
        "log_derivative",
        "variation_along_path",
    }
    assert gone.isdisjoint(mslab.__all__)
    assert not any(hasattr(mslab, name) for name in gone)


def _traced_layers() -> tuple[str, ...]:
    """``LAYERS`` of the bench tracer, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no LAYERS")


def test_every_traced_layer_imports_and_the_quadrature_stub_is_empty() -> None:
    # the tracer imports each listed layer when a traced run starts; the
    # stub and these checks go once the bench drops it from LAYERS
    layers = _traced_layers()
    assert "quadrature" in layers
    for layer in layers:
        importlib.import_module(f"mslab.{layer}")
    stub = importlib.import_module("mslab.quadrature")
    assert [name for name in vars(stub) if not name.startswith("_")] == []
    assert stub.__doc__


def test_importing_the_package_leaves_the_quadrature_stub_unloaded() -> None:
    # a fresh interpreter: this process may have imported the stub already
    src = Path(mslab.__file__).resolve().parents[1]
    probe = "import sys, mslab; print('mslab.quadrature' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout == "False\n"


def _public_functions(layer: str) -> list[str]:
    """The functions a layer defines under names without a leading underscore."""
    module = importlib.import_module(f"mslab.{layer}")
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_") and inspect.isfunction(obj) and obj.__module__ == module.__name__
    )


def test_the_gram_layer_binds_two_public_functions() -> None:
    # bench/tracer.py wraps every public function of each traced layer, so
    # a public name added to mslab.gram changes what a traced run times
    assert _public_functions("gram") == ["block_frame_bounds", "part_frame_bounds"]


def test_the_inner_layer_binds_one_public_function_per_quantity() -> None:
    # Theta with its kernel norms, the boundary argument with its rate, and
    # the distance to the spectrum; each one is wrapped by the bench tracer
    assert _public_functions("inner") == [
        "argument_and_rate",
        "normalized_values",
        "spectrum_distance",
    ]
