"""Engine benchmark: simulated TTIs per host second, set-up time and
peak memory per workload, plus a traced run for per-layer figures.

    python3 bench/run.py --workload simo_long --seed 1 --seconds 15 --trace 0
    python3 bench/run.py                  # every workload, each in a fresh process
    python3 bench/run.py --record         # rewrite bench/reference.json

Load is one process, one thread, closed loop: each call into the program
starts after the previous one returns. HSDPA_EE_THREADS is unset and
OpenBLAS is held to one thread. A run is

1. set-up, timed: import hsdpa_ee, load the reference MCS table, build
   the workload's configs. Six more set-ups run in fresh child
   processes; setup_s is the median of the seven.
2. warm-up, untimed: one round on the default seed's inputs, whose
   output digests must equal bench/reference.json.
3. the timed phase: rounds on inputs drawn from --seed until --seconds
   have passed. ttis_per_s is the median over rounds of the round's
   simulated TTIs over the seconds spent inside the program's calls.

With --trace 1 the timed phase alternates untraced and traced rounds.
Traced rounds wrap the program's functions from outside (bench/tracing.py)
and give the per-layer metrics; the untraced ones give the baseline for
trace.overhead_ratio.

Every operation's output is checked against cheap invariants. The last
line of standard output is one JSON object: correct, attempted, failed
and the metrics (end-to-end ones with --trace 0, per-layer ones with
--trace 1). The exit code is 0 only if no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170


def _fail(msg: str, code: int = 2):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(code)


def _read_json(path: Path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")


def _use_program_source():
    src = ROOT / "src"
    if not (src / "hsdpa_ee" / "__init__.py").is_file():
        _fail(f"no program source at {src / 'hsdpa_ee'}; run from a checkout of the repository")
    sys.path.insert(0, str(src))


# ------------------------------------------------------------------ set-up


def setup(name: str, size: str, out_dir: str):
    """Time the set-up a user of the workload pays once per process.

    Returns (workload, setup seconds, first reference_table() seconds).
    """
    t0 = perf_counter()
    import hsdpa_ee  # noqa: F401
    from hsdpa_ee import mcs_table

    t1 = perf_counter()
    mcs_table.reference_table()
    t2 = perf_counter()
    wl = workloads.build(name, size, out_dir)
    t3 = perf_counter()
    src = (ROOT / "src").resolve()
    if src not in Path(hsdpa_ee.__file__).resolve().parents:
        _fail(f"imported hsdpa_ee from {hsdpa_ee.__file__}, not from {src}")
    return wl, t3 - t0, t2 - t1


def setup_in_children(args, n: int) -> list[tuple[float, float]]:
    """Set-up timings from n fresh processes, run one after another."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", args.workload, "--size", args.size, "--out", args.out],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((probe["setup_s"], probe["table_s"]))
    return samples


# ------------------------------------------------------------------ tracing


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _tag_run(tracer, idx, args, kwargs, result):
    sc = _arg(args, kwargs, 0, "sc")
    tracer.tags[idx] = (f"{sc.antenna_mode}.{sc.strategy}", sc.duration_ttis)


def _count_infeasible(key):
    def observe(tracer, idx, args, kwargs, result):
        tracer.counts[key] += bool(result.infeasible)

    return observe


def _count_reconfigured(tracer, idx, args, kwargs, result):
    tracer.counts["ee_controller.on_tti.reconfigured"] += result[1].action == "reconfigure"


def _count_fading_bytes(tracer, idx, args, kwargs, result):
    # computed, not measured: the complex128 spectrum synth_fading
    # allocates, n_procs x n_fft, with n_fft the power of two >= max(4096, n_steps)
    n_procs = _arg(args, kwargs, 0, "n_procs")
    n_steps = _arg(args, kwargs, 1, "n_steps")
    n_fft = 4096
    while n_fft < n_steps:
        n_fft *= 2
    tracer.counts["link_channel.synth_fading.bytes"] += n_procs * n_fft * 16


def _count_bytes_written(tracer, idx, args, kwargs, result):
    tracer.counts["cli_report.bytes_written"] += sum(os.path.getsize(p) for p in result)


# (module, attribute, span name, observer). Each name is patched where its
# caller looks it up; two points can share a span name when they wrap the
# same function for different callers.
PATCH_POINTS = (
    ("hsdpa_ee.cli_report", "main", "cli_report.main", None),
    ("hsdpa_ee.cli_report", "cmd_run", "cli_report.cmd_run", _count_bytes_written),
    ("hsdpa_ee.cli_report", "cmd_sweep", "cli_report.cmd_sweep", _count_bytes_written),
    ("hsdpa_ee.cli_report", "run", "sim_engine.run", _tag_run),
    ("hsdpa_ee.cli_report", "sweep", "sim_engine.sweep", None),
    ("hsdpa_ee.sim_engine", "run", "sim_engine.run", _tag_run),
    ("hsdpa_ee.sim_engine", "synth_fading", "link_channel.synth_fading", _count_fading_bytes),
    ("hsdpa_ee.sim_engine", "stream_gain_series", "mimo_dtxaa.stream_gain_series", None),
    ("hsdpa_ee.sim_engine", "select_optimal", "ee_controller.select_optimal",
     _count_infeasible("ee_controller.select_optimal.infeasible")),
    ("hsdpa_ee.sim_engine", "on_tti", "ee_controller.on_tti", _count_reconfigured),
    ("hsdpa_ee.sim_engine", "select_optimal_dual", "mimo_dtxaa.select_optimal_dual",
     _count_infeasible("mimo_dtxaa.select_optimal_dual.infeasible")),
    ("hsdpa_ee.ee_controller", "select_optimal", "ee_controller.select_optimal",
     _count_infeasible("ee_controller.select_optimal.infeasible")),
)

RUN_KINDS = tuple(
    f"{mode}.{strategy}"
    for mode in ("SIMO", "MIMO")
    for strategy in ("FixedBaseline", "SemiStatic", "PerTtiOptimal")
)


# ------------------------------------------------------------------ phases


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                msg = f"{label}: {p}"
                self.failures.append(msg)
                print(f"FAILED {msg}", file=sys.stderr)


def run_op(op, tally: Tally, reference: str | None = None) -> float:
    """Call op, check its output, return the seconds spent in the call."""
    t0 = perf_counter()
    try:
        result = op.call()
    except Exception:  # an operation that raises is a failed operation
        elapsed = perf_counter() - t0
        tally.record(op.label, ["raised\n" + traceback.format_exc()])
        return elapsed
    elapsed = perf_counter() - t0
    try:
        problems = op.check(result)
        if reference is not None and op.digest(result) != reference:
            problems.append("output differs from the reference digest")
    except Exception:
        problems = ["output could not be checked\n" + traceback.format_exc()]
    tally.record(op.label, problems)
    return elapsed


def warm_up(wl, reference_digests, tally: Tally):
    """One round on the default seed's inputs, compared to the recorded
    digests; it also fills caches before anything is timed."""
    ops = wl.round_ops(random.Random(workloads.DEFAULT_SEED).getrandbits(32))
    if len(reference_digests) != len(ops):
        _fail(f"reference.json has {len(reference_digests)} digests for {wl.name}, "
              f"the workload has {len(ops)} operations; run --record")
    for op, ref in zip(ops, reference_digests):
        if ref["label"] != op.label:
            _fail(f"reference.json entry {ref['label']!r} does not match operation {op.label!r}")
        run_op(op, tally, ref["digest"])


def timed_phase(wl, seed: int, seconds: float, tally: Tally, tracer=None):
    """Closed-loop rounds until `seconds` pass. With a tracer, rounds
    alternate untraced/traced and the phase ends after a traced round.

    Returns one dict per round: traced or not, its TTIs, and the seconds
    each operation's call took.
    """
    rng = random.Random(seed)
    rounds = []
    deadline = perf_counter() + seconds
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        ops = wl.round_ops(rng.getrandbits(32))
        if traced:
            tracer.install(PATCH_POINTS)
        try:
            op_s = [run_op(op, tally) for op in ops]
        finally:
            if traced:
                tracer.uninstall()
        rounds.append({"traced": traced, "ttis": sum(op.ttis for op in ops), "op_s": op_s})
        done = perf_counter() >= deadline
        if done and (tracer is None or len(rounds) % 2 == 0):
            return rounds


def _throughput(rounds, traced: bool) -> tuple[float, int]:
    """Median over rounds of simulated TTIs per second spent in calls,
    and the number of rounds. The median keeps a burst of load from
    other processes on the host from moving the figure."""
    rates = [r["ttis"] / sum(r["op_s"]) for r in rounds if r["traced"] == traced]
    return statistics.median(rates), len(rates)


# ------------------------------------------------------------------ metrics


def layer_metrics(tracer, rounds, table_samples, layers):
    """Per-layer metrics from the traced rounds' spans.

    Counts and seconds are per traced round (every round of a workload
    has the same sizes); per-call times are medians over calls.
    Returns (metrics, sample counts, self seconds by span name, wall, own).
    """
    import numpy as np

    dur, self_s = tracer.durations_and_self()
    if len(dur) and self_s.min() < -1e-6:
        _fail("traced spans are not properly nested: a self time is negative")
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    n_rounds = sum(1 for r in rounds if r["traced"])
    wall = sum(sum(r["op_s"]) for r in rounds if r["traced"])
    own = wall - tracer.root_time()

    def idx(span):
        if span not in tracer.names:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(name_id == tracer.names.index(span))

    m, n = {}, {}

    def put(metric, value, samples):
        m[metric], n[metric] = float(value), int(samples)

    def per_call_us(metric, span, times):
        sel = idx(span)
        put(metric, np.median(times[sel]) * 1e6 if len(sel) else 0.0, len(sel))

    def per_round(metric, values):
        put(metric, float(np.sum(values)) / n_rounds, n_rounds)

    for span, layer in (("ee_controller.select_optimal", "ee_controller"),
                        ("mimo_dtxaa.select_optimal_dual", "mimo_dtxaa")):
        short = span.split(".", 1)[1]
        per_round(f"{layer}.{short}.calls", len(idx(span)))
        per_call_us(f"{layer}.{short}.us_per_call", span, dur)
        per_round(f"{layer}.{short}.infeasible", tracer.counts[f"{span}.infeasible"])

    on = "ee_controller.on_tti"
    per_round(f"{on}.calls", len(idx(on)))
    per_call_us(f"{on}.self_us_per_call", on, self_s)
    n_on = len(idx(on))
    put(f"{on}.reconfigure_ratio",
        tracer.counts[f"{on}.reconfigured"] / n_on if n_on else 0.0, n_on)

    for span in ("mimo_dtxaa.stream_gain_series", "link_channel.synth_fading"):
        per_round(f"{span}.calls", len(idx(span)))
        per_round(f"{span}.s", dur[idx(span)])
    per_round("link_channel.synth_fading.mb_computed",
              tracer.counts["link_channel.synth_fading.bytes"] / 1e6)

    run = "sim_engine.run"
    run_idx = idx(run)
    per_round(f"{run}.calls", len(run_idx))
    per_round(f"{run}.self_s", self_s[run_idx])
    for kind in RUN_KINDS:
        pick = [i for i in run_idx if tracer.tags[i][0] == kind]
        ttis = sum(tracer.tags[i][1] for i in pick)
        put(f"sim_engine.us_per_tti.{kind}",
            self_s[pick].sum() / ttis * 1e6 if ttis else 0.0, len(pick))
    per_round("sim_engine.sweep.self_s", self_s[idx("sim_engine.sweep")])

    emit = np.concatenate([idx("cli_report.cmd_run"), idx("cli_report.cmd_sweep")])
    per_round("cli_report.emit_s", self_s[emit])
    per_round("cli_report.bytes_written", tracer.counts["cli_report.bytes_written"])

    put("mcs_table.reference_table.s", statistics.median(table_samples), len(table_samples))
    traced_rate, n_traced = _throughput(rounds, True)
    plain_rate, _ = _throughput(rounds, False)
    put("trace.overhead_ratio", traced_rate / plain_rate, n_traced)
    put("trace.bench_own_s", own / n_rounds, n_rounds)

    for span in layers["must_call"]:
        if not len(idx(span)):
            _fail(f"layer {span} recorded no calls on this workload; "
                  "a wrapped name no longer reaches the program's work", 1)

    self_by_name = {
        name: float(self_s[name_id == i].sum())
        for i, name in enumerate(tracer.names)
        if (name_id == i).any()
    }
    return m, n, self_by_name, wall, own


# ------------------------------------------------------------------ entry


def environment(args) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    import numpy

    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
    }


def run_workload(args, spec, layers) -> int:
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    reference = _read_json(BENCH_DIR / "reference.json")
    try:
        digests = reference[args.size][args.workload]
    except KeyError:
        _fail(f"no reference digests for {args.size}/{args.workload}; run --record")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl, setup_s, table_s = setup(args.workload, args.size, str(out_dir))
    samples = [(setup_s, table_s)] + setup_in_children(args, SETUP_SAMPLES - 1)

    tally = Tally()
    warm_up(wl, digests, tally)
    tracer = tracing.Tracer() if args.trace else None
    try:
        rounds = timed_phase(wl, args.seed, args.seconds, tally, tracer)
    except tracing.WrapError as exc:
        _fail(str(exc))
    rate, n_plain = _throughput(rounds, False)

    env = environment(args)
    report = {"env": env, "rounds": rounds, "failures": tally.failures}
    if args.trace:
        values, counts, self_by_name, wall, own = layer_metrics(
            tracer, rounds, [t for _, t in samples], layers["workloads"][args.workload]
        )
        report.update(self_s_by_span=self_by_name, traced_wall_s=wall, bench_own_s=own)
        tracer.write(str(out_dir / f"spans_{args.workload}.npz"))
    else:
        setup_median = statistics.median(s for s, _ in samples)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"ttis_per_s": rate, "setup_s": setup_median, "peak_rss_mb": rss_mb}
        counts = {"ttis_per_s": n_plain, "setup_s": len(samples), "peak_rss_mb": 1}

    if set(values) != set(units):
        _fail(f"computed metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    report["metrics"] = {k: {**metrics[k], "samples": counts[k]} for k in units}
    with open(out_dir / f"report_{args.workload}_trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print(f"# env {json.dumps(env)}")
    for k in units:
        print(f"# {k} {values[k]!r} {units[k]} (samples {counts[k]})")
    error_rate = tally.failed / tally.attempted
    print(f"# error_rate {error_rate!r} ratio ({tally.failed} of {tally.attempted} operations failed)")
    if args.trace:
        print(f"# traced wall {wall!r} s = span self times + benchmark's own {own!r} s")
        for name, s in sorted(self_by_name.items(), key=lambda kv: -kv[1]):
            print(f"#   self {name} {s!r} s")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak memory are
    its own; prints one table."""
    rows, code = [], 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out", args.out]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            code = code or proc.returncode or 1
            continue
        result = json.loads(lines[-1])
        for metric, v in result["metrics"].items():
            rows.append((name, metric, v["value"], v["unit"]))
        rows.append((name, "error_rate", result["failed"] / result["attempted"], "ratio"))
    for name, metric, value, unit in rows:
        print(f"{name:12s} {metric:44s} {value:14.6g} {unit}")
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS,
                   help="one workload in this process; omit to run all, each in its own")
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                   help="'tiny' only for the smoke test")
    p.add_argument("--out", default=str(ROOT / ".bench_out"), help="scratch output directory")
    p.add_argument("--record", action="store_true",
                   help="rewrite bench/reference.json from the current program")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # One thread, here and in the set-up children. Sweeps must run on this
    # thread: the tracer's span stack assumes it. The engine makes no BLAS
    # calls, but OpenBLAS would start a thread per core when numpy is
    # imported, and how long that takes follows the load on the other
    # cores, which made setup_s drift by half between runs.
    os.environ.pop("HSDPA_EE_THREADS", None)
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    spec = _read_json(ROOT / "BENCHMARK.json")
    layers = _read_json(BENCH_DIR / "layers.json")
    _use_program_source()

    if args.setup_probe:
        _, setup_s, table_s = setup(args.workload, args.size, args.out)
        print(json.dumps({"setup_s": setup_s, "table_s": table_s}))
        return 0
    if args.record:
        return record(args)
    if args.workload is None:
        return run_all(args)
    return run_workload(args, spec, layers)


def record(args) -> int:
    """Digests of the default seed's round, for every size and workload."""
    reference = {}
    for size in workloads.SIZES:
        reference[size] = {}
        for name in workloads.WORKLOADS:
            wl = workloads.build(name, size, args.out)
            ops = wl.round_ops(random.Random(workloads.DEFAULT_SEED).getrandbits(32))
            entries = []
            for op in ops:
                result = op.call()
                problems = op.check(result)
                if problems:
                    _fail(f"{size}/{name} {op.label}: {problems}")
                entries.append({"label": op.label, "digest": op.digest(result)})
            reference[size][name] = entries
    with open(BENCH_DIR / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {BENCH_DIR / 'reference.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
