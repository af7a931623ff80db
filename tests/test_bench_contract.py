"""The benchmark's tracer wraps program functions by module and name.

bench/run.py lists them in PATCH_POINTS; a rename or an inlining in the
program would otherwise surface only when the benchmark runs traced.
The list is read from the script's source, so the test imports nothing
from bench/.
"""

import ast
import importlib
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def patch_points():
    tree = ast.parse(BENCH_RUN.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PATCH_POINTS" for t in node.targets
        ):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("bench/run.py defines no PATCH_POINTS")


def test_every_patch_point_resolves_to_a_callable():
    points = patch_points()
    assert len(points) >= 12
    for module, attr in points:
        obj = getattr(importlib.import_module(module), attr, None)
        assert callable(obj), f"{module}.{attr} is not a callable"
