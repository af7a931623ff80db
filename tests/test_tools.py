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
    assert len(got["figures"]) == 8
    assert all(math.isfinite(v) and v > 0 for v in got["figures"].values())


def test_layers_compares_two_trees_in_fresh_processes(layers, capsys):
    assert layers.main(["--src", str(layers.SRC), "--src", str(layers.SRC),
                        "--rounds", "1", "--repeats", "1", "--ttis", "300"]) == 0
    out = capsys.readouterr().out
    assert "loop us/TTI MIMO PerTtiOptimal" in out and "build ms SIMO" in out
    assert "RunMetrics equal in every case and process: yes" in out
