"""The engine's per-TTI loop and link build, timed by calling them directly.

Each figure comes from one fresh process, which imports the engine of a
src directory and times, at 435 m, 3 km/h, seed 5 and the reference
table:

* the link build of each antenna mode, SIMO and MIMO: the chunk's fading
  synthesis and per-TTI constants, sim_engine._build_link, in ms;
* the warm-link loop of each mode x strategy case: sim_engine._run_link
  on the built link with the trace off, in us per TTI;
* the selectors per call, in us: select_optimal on the arguments of
  every call of the SIMO PerTtiOptimal run, select_optimal_dual on those
  of the MIMO one, each with the default exact EE and with
  exact_ee=False (the engine's call; left out for an engine without the
  keyword).

Each is the best of --repeats calls in the process. Each loop and
per-call figure has a twin named with a trailing "cpu": the same calls
timed by the process's CPU time (time.process_time) instead of the wall
clock (time.perf_counter), so the time the process waits while others
run is left out. One tree is measured in --rounds processes; two trees
(--src given twice) alternate, one process of each per round, the first
tree first on even rounds and second on odd ones. The script prints
each figure's median and IQR over the rounds, and for two trees the
change of the median and the rounds on which the second tree was
faster (wins out of N). It also checks that both trees give the same
RunMetrics in every case, and exits 1 when they do not, so a
byte-identity check can be scripted. A figure one tree lacks prints as
"-".

At 20000 TTIs and 5 repeats a process takes about 6-7 s on a 2-core host.

Usage:
    python3 tools/layers.py [--src DIR [--src DIR]] [--rounds N] [--repeats N] [--ttis N]
"""

from __future__ import annotations

import argparse
import inspect
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 5
DISTANCE_M = 435.0
MODES = ("SIMO", "MIMO")
STRATEGIES = ("FixedBaseline", "SemiStatic", "PerTtiOptimal")
# the selector timed on each mode's PerTtiOptimal run
SELECTORS = {"SIMO": "select_optimal", "MIMO": "select_optimal_dual"}


def scenario(mode: str, strategy: str, ttis: int):
    from hsdpa_ee.ee_controller import ControllerConfig
    from hsdpa_ee.link_channel import make_channel
    from hsdpa_ee.mcs_table import reference_table
    from hsdpa_ee.sim_engine import ScenarioConfig

    return ScenarioConfig(
        channel=make_channel(DISTANCE_M, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0),
        antenna_mode=mode,
        strategy=strategy,
        duration_ttis=ttis,
        seed=SEED,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        collect_trace=False,
    )


def recorded_calls(sc, chunks, name: str) -> list[tuple]:
    """The positional arguments of every call the engine makes to its
    selector name in one run of sc on chunks."""
    from hsdpa_ee import sim_engine

    select = getattr(sim_engine, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return select(*args, **kwargs)

    setattr(sim_engine, name, recording)
    try:
        sim_engine._run_link(sc, chunks)
    finally:
        setattr(sim_engine, name, select)
    return calls


def best_of(repeats: int, fn) -> tuple:
    """fn's result, and the least wall time and the least CPU time in s
    over repeats calls of it."""
    wall = cpu = float("inf")
    for _ in range(repeats):
        start, start_cpu = perf_counter(), process_time()
        got = fn()
        cpu = min(cpu, process_time() - start_cpu)
        wall = min(wall, perf_counter() - start)
    return got, wall, cpu


def put_us(figures: dict, name: str, wall: float, cpu: float, per: int) -> None:
    """Figure name and its CPU twin, in us per one of per items."""
    figures[name] = wall / per * 1e6
    figures[f"{name} cpu"] = cpu / per * 1e6


def call_all(select, calls: list[tuple], kwargs: dict):
    def calls_of_a_run():
        for args in calls:
            select(*args, **kwargs)

    return calls_of_a_run


def measure(ttis: int, repeats: int) -> dict:
    """The figures of the engine imported in this process, as
    {"figures": {name: value}, "metrics": {case: repr of RunMetrics}}."""
    from hsdpa_ee import sim_engine

    figures, metrics = {}, {}
    for mode in MODES:
        sc = scenario(mode, STRATEGIES[0], ttis)
        chunks, wall, _ = best_of(repeats, lambda: list(sim_engine._build_link(sc)))
        figures[f"build ms {mode}"] = wall * 1e3
        for strategy in STRATEGIES:
            sc = scenario(mode, strategy, ttis)
            (got, _), wall, cpu = best_of(repeats, lambda: sim_engine._run_link(sc, chunks))
            put_us(figures, f"loop us/TTI {mode} {strategy}", wall, cpu, ttis)
            metrics[f"{mode} {strategy}"] = repr(got)
        name = SELECTORS[mode]
        calls = recorded_calls(scenario(mode, "PerTtiOptimal", ttis), chunks, name)
        select = getattr(sim_engine, name)
        kinds = {"exact": {}}
        if "exact_ee" in inspect.signature(select).parameters:
            kinds["fast"] = {"exact_ee": False}
        for kind, kwargs in kinds.items():
            _, wall, cpu = best_of(repeats, call_all(select, calls, kwargs))
            put_us(figures, f"{name} us {kind}", wall, cpu, len(calls))
    return {"figures": figures, "metrics": metrics}


def in_fresh_process(src: Path, ttis: int, repeats: int) -> dict:
    cmd = [sys.executable, __file__, "--child", "--src", str(src),
           "--ttis", str(ttis), "--repeats", str(repeats)]
    return json.loads(subprocess.run(cmd, check=True, capture_output=True, text=True).stdout)


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[2] - q[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", type=Path, action="append",
                    help="src directory of an engine; give it twice to compare two")
    ap.add_argument("--rounds", type=int, default=5, help="processes per tree")
    ap.add_argument("--repeats", type=int, default=5, help="calls per figure in a process")
    ap.add_argument("--ttis", type=int, default=20_000, help="TTIs of each run")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    srcs = [s.resolve() for s in args.src or [SRC]]
    if len(srcs) > 2:
        ap.error("--src can be given at most twice")
    for name in ("rounds", "repeats", "ttis"):
        if getattr(args, name) < 1:
            ap.error(f"--{name} must be >= 1")
    if args.child:
        sys.path.insert(0, str(srcs[0]))
        print(json.dumps(measure(args.ttis, args.repeats)))
        return 0

    samples = [[] for _ in srcs]  # per tree, one result per round
    for r in range(args.rounds):
        order = range(len(srcs)) if r % 2 == 0 else reversed(range(len(srcs)))
        for j in order:
            samples[j].append(in_fresh_process(srcs[j], args.ttis, args.repeats))

    for j, src in enumerate(srcs):
        print(f"tree {'AB'[j]}: {src}")
    print(f"{args.ttis} TTIs, {DISTANCE_M:g} m, seed {SEED}, best of {args.repeats} "
          f"in each of {args.rounds} processes per tree; median [IQR]")
    header = f"{'figure':<34}" + "".join(f"{'tree ' + 'AB'[j]:>20}" for j in range(len(srcs)))
    if len(srcs) == 2:
        header += f"{'B vs A':>10}{'B wins':>9}"
    print(header)
    names = dict.fromkeys(name for tree in samples for s in tree for name in s["figures"])
    for name in names:
        per_tree = [[s["figures"][name] for s in tree if name in s["figures"]] for tree in samples]
        line = f"{name:<34}" + "".join(
            f"{statistics.median(v):>11.3f} [{iqr(v):>6.3f}]" if v else f"{'-':>20}"
            for v in per_tree
        )
        if len(srcs) == 2 and all(per_tree):
            a, b = per_tree
            change = statistics.median(b) / statistics.median(a) - 1.0
            wins = sum(y < x for x, y in zip(a, b))
            line += f"{change:>+10.1%}{f'{wins}/{args.rounds}':>9}"
        print(line)
    if len(srcs) == 2:
        same = all(s["metrics"] == samples[0][0]["metrics"] for tree in samples for s in tree)
        print(f"RunMetrics equal in every case and process: {'yes' if same else 'NO'}")
        if not same:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
