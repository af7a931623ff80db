"""The benchmark's tracer wraps program functions by module and name.

bench/run.py lists them in PATCH_POINTS; a rename or an inlining in the
program would otherwise surface only when the benchmark runs traced.
A name can also resolve and still never be called, when the caller
reaches the function through another module's global; the second test
patches the engine's names and checks that short runs call each one.
The list is read from the script's source, so the test imports nothing
from bench/.
"""

import ast
import importlib
from collections import Counter
from pathlib import Path

from hsdpa_ee import sim_engine
from hsdpa_ee.ee_controller import ControllerConfig
from hsdpa_ee.link_channel import make_channel
from hsdpa_ee.mcs_table import reference_table
from hsdpa_ee.power_model import PowerModelParams

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


def test_every_engine_patch_point_is_called(monkeypatch):
    names = [attr for module, attr in patch_points() if module == "hsdpa_ee.sim_engine"]
    assert names
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(sim_engine, name, counting(name, getattr(sim_engine, name)))
    for mode in ("SIMO", "MIMO"):
        sim_engine.run(sim_engine.ScenarioConfig(
            channel=make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0),
            antenna_mode=mode,
            strategy="SemiStatic",
            duration_ttis=200,
            seed=7,
            controller=ControllerConfig(ee_smoothing=0.01),
            table=reference_table(),
            power_model=sim_engine.power_model_for_mode(mode, PowerModelParams()),
        ))
    assert [n for n in names if calls[n] == 0] == []
