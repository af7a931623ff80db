"""Smoke tests of the scripts under tools/, on short cases: a tool that
reads the engine's internals breaks here when they change, not on its
next use."""

import importlib.util
import math
from pathlib import Path

import pytest

from hsdpa_ee.sim_engine import MIMO, SIMO

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def longrun_memory():
    spec = importlib.util.spec_from_file_location(
        "longrun_memory", ROOT / "tools" / "longrun_memory.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("mode", [SIMO, MIMO])
def test_longrun_memory_traces_a_short_run(longrun_memory, mode):
    got = longrun_memory.measure("traced", mode, 2000)
    assert set(got) == {"peak_mb", "kept_mb", "ee"}
    # a one-chunk run keeps its link, and dropping it frees memory
    assert got["peak_mb"] >= got["kept_mb"] > 0
    assert math.isfinite(got["ee"]) and got["ee"] > 0


def test_longrun_memory_child_process_reports_its_rss(longrun_memory):
    got = longrun_memory.in_fresh_process(longrun_memory.SRC, "rss", SIMO, 2000)
    assert set(got) == {"rss_mb"}
    assert got["rss_mb"] > 0


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("layers", ROOT / "tools" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_times_every_case_of_a_short_run(layers):
    got = layers.measure(300, 1)
    assert set(got["metrics"]) == {f"{m} {s}" for m in layers.MODES for s in layers.STRATEGIES}
    assert len(got["figures"]) == 22  # 2 builds; 6 loops, 4 selectors and their CPU twins
    assert all(math.isfinite(v) and v > 0 for v in got["figures"].values())


def test_layers_compares_two_trees_in_fresh_processes(layers, capsys):
    assert layers.main(["--src", str(layers.SRC), "--src", str(layers.SRC),
                        "--rounds", "1", "--repeats", "1", "--ttis", "300"]) == 0
    out = capsys.readouterr().out
    assert "loop us/TTI MIMO PerTtiOptimal" in out and "build ms SIMO" in out
    assert "RunMetrics equal in every case and process: yes" in out


def test_layers_exits_1_when_two_trees_give_different_run_metrics(layers, monkeypatch, capsys):
    def fake(src, ttis, repeats):
        return {"figures": {"loop us/TTI SIMO SemiStatic": 1.0},
                "metrics": {"SIMO SemiStatic": f"RunMetrics of {src.name}"}}

    monkeypatch.setattr(layers, "in_fresh_process", fake)
    a, b = layers.SRC, layers.SRC.parent / "tools"
    assert layers.main(["--src", str(a), "--src", str(b), "--rounds", "2"]) == 1
    assert "RunMetrics equal in every case and process: NO" in capsys.readouterr().out
    # the same results from both trees pass
    assert layers.main(["--src", str(a), "--src", str(a), "--rounds", "2"]) == 0


def test_layers_prints_a_figure_one_tree_lacks_as_a_dash(layers, monkeypatch, capsys):
    # an engine from before the exact_ee keyword has no fast selector figure
    def fake(src, ttis, repeats):
        figures = {"select_optimal us exact": 3.0}
        if src.name == "new":
            figures["select_optimal us fast"] = 2.0
        return {"figures": figures, "metrics": {}}

    monkeypatch.setattr(layers, "in_fresh_process", fake)
    assert layers.main(["--src", "old", "--src", "new", "--rounds", "2"]) == 0
    lines = {line.split("  ")[0]: line.split() for line in capsys.readouterr().out.splitlines()}
    assert lines["select_optimal us exact"][-2:] == ["+0.0%", "0/2"]
    assert lines["select_optimal us fast"][-4:] == ["-", "2.000", "[", "0.000]"]
