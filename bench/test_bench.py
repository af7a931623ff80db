"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest bench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_emits_every_metric_with_no_errors(workload, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
         "--size", "tiny", "--out", str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == 0.0  # error_rate
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], float)


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert set(LAYERS["workloads"]) == set(workloads.WORKLOADS)
    layer_names = {layer["layer"] for layer in LAYERS["layers"]}
    for entry in LAYERS["workloads"].values():
        assert set(entry["bypasses"]) <= layer_names


def test_every_per_layer_metric_says_what_it_should_move():
    grouped = [name for layer in LAYERS["layers"] for name in layer["metrics"]]
    assert sorted(grouped) == sorted(m["name"] for m in SPEC["per_layer"])
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for layer in LAYERS["layers"]:
        for move in layer["moves"]:
            assert move["metric"] in end_to_end
            assert move["workload"] in workloads.WORKLOADS


def test_missing_wrapped_name_fails_before_patching():
    tracer = tracing.Tracer()
    with pytest.raises(tracing.WrapError, match="json.no_such_function"):
        tracer.install([
            ("json", "dumps", "json.dumps", None),
            ("json", "no_such_function", "json.missing", None),
        ])
    assert json.dumps.__module__ == "json"  # nothing was left patched


def test_self_time_is_duration_minus_children():
    tracer = tracing.Tracer()
    leaf = tracer.wrapper(lambda: sum(range(1000)), "leaf")
    root = tracer.wrapper(lambda: [leaf() for _ in range(3)], "root")
    root()
    dur, self_s = tracer.durations_and_self()
    assert list(tracer.parent) == [-1, 0, 0, 0]
    assert self_s[0] == pytest.approx(dur[0] - dur[1:].sum())
    assert list(self_s[1:]) == list(dur[1:])
    assert self_s.sum() == pytest.approx(tracer.root_time())
