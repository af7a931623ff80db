"""The benchmark's workloads: their inputs, operations and output checks.

A workload is built once (the set-up the benchmark times) and then
yields rounds. A round is a fixed list of operations, each one call
into the program, all fed the same per-round seed so strategies are
compared on shared random draws as the engine intends. Every round of a
workload has the same sizes, so per-round figures compare across runs.

This module imports only the standard library at the top: the program
and numpy are imported inside ``build``, whose time is the set-up time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import os
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0
WORKLOADS = ("simo_long", "mimo_2x2", "cli_presets")

# Run lengths. simo_long stays above 2**16 TTIs so the fading block is
# the 131072-sample size whose memory peak_rss_mb should show; the
# others are sized so one round takes a few seconds on a 2-core host.
# "tiny" exists only for the smoke test.
SIZES = {
    "full": {
        "simo_long": {"ttis": 70_000},
        "mimo_2x2": {"ttis": 10_000},
        "cli_presets": {"sweep_reps": 20, "run_ttis": 100_000},
    },
    "tiny": {
        "simo_long": {"ttis": 3_000},
        "mimo_2x2": {"ttis": 1_000},
        "cli_presets": {"sweep_reps": 1, "run_ttis": 2_000},
    },
}


@dataclass
class Op:
    """One closed-loop operation: call() into the program, then check()
    its result (a list of broken invariants) and digest() it."""

    label: str
    ttis: int
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    digest: Callable[[object], str]


@dataclass
class Workload:
    name: str
    round_ops: Callable[[int], list[Op]]


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(c)
    return h.hexdigest()


def _metric_problems(ee, nack, energy_j, reconfigs, ttis, strategy, min_energy_j):
    """The cheap invariants every RunMetrics-shaped result must meet."""
    bad = []
    if not (math.isfinite(ee) and ee > 0.0):
        bad.append(f"EE {ee!r} is not finite and > 0")
    if not 0.0 <= nack <= 1.0:
        bad.append(f"nack_rate {nack!r} outside [0, 1]")
    # energy is a sum of ttis terms each >= tti*overhead; allow for the
    # rounding of that float sum
    if not energy_j >= min_energy_j * (1.0 - 1e-9):
        bad.append(f"energy {energy_j!r} J below the idle floor {min_energy_j!r} J")
    if not 0 <= reconfigs <= ttis:
        bad.append(f"{reconfigs} reconfigurations in {ttis} TTIs")
    if strategy == "FixedBaseline" and reconfigs != 0:
        bad.append(f"FixedBaseline made {reconfigs} reconfigurations")
    return bad


# ------------------------------------------------------------- engine runs


def _engine_workload(name, mode, strategies, distance_m, ttis):
    from hsdpa_ee import sim_engine
    from hsdpa_ee.ee_controller import ControllerConfig
    from hsdpa_ee.link_channel import make_channel
    from hsdpa_ee.mcs_table import reference_table
    from hsdpa_ee.power_model import PowerModelParams

    base = sim_engine.ScenarioConfig(
        channel=make_channel(distance_m, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0),
        antenna_mode=mode,
        duration_ttis=ttis,
        seed=DEFAULT_SEED,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        power_model=sim_engine.power_model_for_mode(mode, PowerModelParams()),
        collect_trace=False,
    )
    templates = [dataclasses.replace(base, strategy=s) for s in strategies]
    min_energy = ttis * base.controller.tti_ms * 1e-3 * base.power_model.overhead_w

    def check(sc, result):
        metrics, trace = result
        bad = _metric_problems(
            metrics.avg_ee_bits_per_joule, metrics.nack_rate, metrics.consumed_energy_j,
            metrics.reconfig_count, sc.duration_ttis, sc.strategy, min_energy,
        )
        if metrics.duration_ttis != sc.duration_ttis:
            bad.append(f"duration {metrics.duration_ttis} != {sc.duration_ttis}")
        want_rows = sc.duration_ttis if sc.collect_trace else 0
        if len(trace) != want_rows:
            bad.append(f"trace has {len(trace)} rows, want {want_rows}")
        return bad

    def digest(result):
        return _sha(repr(dataclasses.astuple(result[0])).encode())

    def round_ops(seed):
        ops = []
        for tpl in templates:
            sc = dataclasses.replace(tpl, seed=seed)
            ops.append(
                Op(
                    label=f"run {mode} {sc.strategy}",
                    ttis=ttis,
                    # sim_engine.run is looked up at call time so the
                    # tracer's wrapper is the one that runs
                    call=lambda sc=sc: sim_engine.run(sc),
                    check=lambda result, sc=sc: check(sc, result),
                    digest=digest,
                )
            )
        return ops

    return Workload(name, round_ops)


def _simo_long(size):
    return _engine_workload(
        "simo_long", "SIMO", ("SemiStatic", "PerTtiOptimal"), 435.0, size["ttis"]
    )


def _mimo_2x2(size):
    # 430 m: close enough in that dual-stream reports are common
    return _engine_workload(
        "mimo_2x2", "MIMO", ("FixedBaseline", "SemiStatic", "PerTtiOptimal"), 430.0, size["ttis"]
    )


# ------------------------------------------------------------- CLI


_RUN_CONFIG = """\
[scenario]
distance_m = 435
i_or_dbm = -72.5
geometry_db = 23
alpha = 0.995
speed_kmh = 3
antenna_mode = SIMO
strategy = FixedBaseline
duration_ttis = {ttis}
table = reference
collect_trace = true

[controller]
ee_smoothing = 0.01
"""


def _cli_presets(size, out_dir):
    from hsdpa_ee import cli_report
    from hsdpa_ee.ee_controller import ControllerConfig
    from hsdpa_ee.power_model import PowerModelParams
    from hsdpa_ee.sim_engine import power_model_for_mode

    reps = size["sweep_reps"]
    run_ttis = size["run_ttis"]
    spec = cli_report.build_preset("figure2", reps=reps)
    n_points = len(spec.values)
    runs_per_sweep = n_points * reps * len(spec.strategies) * len(spec.antenna_modes)
    sweep_ttis = runs_per_sweep * spec.template.duration_ttis
    sweep_dir = os.path.join(out_dir, "sweep")
    run_dir = os.path.join(out_dir, "run")
    os.makedirs(sweep_dir, exist_ok=True)
    os.makedirs(run_dir, exist_ok=True)
    config_path = os.path.join(out_dir, "run.ini")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(_RUN_CONFIG.format(ttis=run_ttis))
    overhead_w = power_model_for_mode("SIMO", PowerModelParams()).overhead_w
    min_energy = run_ttis * ControllerConfig().tti_ms * 1e-3 * overhead_w

    def main(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli_report.main(argv)

    def read(path):
        with open(path, "rb") as fh:
            return fh.read()

    def check_sweep(code):
        if code != 0:
            return [f"sweep exited {code}"]
        rows = read(os.path.join(sweep_dir, "series.csv")).decode().splitlines()[1:]
        bad = [] if len(rows) == n_points else [f"series.csv has {len(rows)} rows, want {n_points}"]
        for row in rows:
            _, _, strategy, mean_ee, _, mean_reconfigs, _ = row.split(",")
            ee = float(mean_ee)
            if not (math.isfinite(ee) and ee > 0.0):
                bad.append(f"sweep mean_ee {ee!r} is not finite and > 0")
            if strategy == "FixedBaseline" and float(mean_reconfigs) != 0.0:
                bad.append(f"FixedBaseline sweep cell made {mean_reconfigs} reconfigurations")
        return bad

    def check_run(code):
        if code != 0:
            return [f"run exited {code}"]
        lines = read(os.path.join(run_dir, "metrics.csv")).decode().splitlines()
        if len(lines) != 2:
            return [f"metrics.csv has {len(lines) - 1} rows, want 1"]
        strategy, _, ee, _, reconfigs, nack, _, energy, duration = lines[1].split(",")
        bad = _metric_problems(
            float(ee), float(nack), float(energy), int(reconfigs), run_ttis, strategy, min_energy
        )
        if int(duration) != run_ttis:
            bad.append(f"duration {duration} != {run_ttis}")
        rows = read(os.path.join(run_dir, "trace.csv")).count(b"\n") - 1
        if rows != run_ttis:
            bad.append(f"trace.csv has {rows} rows, want one per TTI ({run_ttis})")
        return bad

    def round_ops(seed):
        sweep_argv = ["sweep", "--preset", "figure2", "--seed", str(seed),
                      "--reps", str(reps), "--out", sweep_dir]
        run_argv = ["run", "--config", config_path, "--seed", str(seed), "--out", run_dir]
        return [
            Op(
                label="cli sweep --preset figure2",
                ttis=sweep_ttis,
                call=lambda: main(sweep_argv),
                check=check_sweep,
                digest=lambda _: _sha(read(os.path.join(sweep_dir, "series.csv"))),
            ),
            Op(
                label="cli run --config (trace on)",
                ttis=run_ttis,
                call=lambda: main(run_argv),
                check=check_run,
                digest=lambda _: _sha(
                    read(os.path.join(run_dir, "metrics.csv")),
                    read(os.path.join(run_dir, "trace.csv")),
                ),
            ),
        ]

    return Workload("cli_presets", round_ops)


def build(name: str, size_name: str, out_dir: str) -> Workload:
    """Import the program, load the MCS table and build the workload's
    configs: everything the benchmark counts as set-up."""
    size = SIZES[size_name][name]
    if name == "simo_long":
        return _simo_long(size)
    if name == "mimo_2x2":
        return _mimo_2x2(size)
    if name == "cli_presets":
        return _cli_presets(size, os.path.join(out_dir, "cli_presets"))
    raise ValueError(f"unknown workload {name!r}; have {', '.join(WORKLOADS)}")
