"""Memory of long engine runs, each measured in a fresh process.

The cases are untraced FixedBaseline runs at 435 m, seed 5, on the
benchmark's channel: SIMO and MIMO over 262144 TTIs (two full chunks),
and a MIMO run of one full chunk, whose link the engine keeps after it
returns (the link memo). For each case the script prints:

* the tracemalloc peak of the run: tracemalloc.start() before run,
  get_traced_memory()[1] after. It is the same on every run of the same
  code, so it shows a change of well under 1 MB;
* for the one-chunk run, the traced memory that dropping the kept link
  frees;
* the range of ru_maxrss over --procs processes, each running the case
  untraced under gc.disable(), so that when the cyclic GC runs does not
  move the peak. It still spreads by about 1 MB; read it as a level.

Tracing slows a run about 15x: the traced cases take about a minute in
all on a 2-core host, and each ru_maxrss process a few seconds.

Usage:
    python3 tools/longrun_memory.py [--procs N] [--src DIR]

--src runs the engine of another checkout's src directory, for a
before/after comparison under one script.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SEED = 5
DISTANCE_M = 435.0
LONG_TTIS = 2**18  # two full chunks


def scenario(mode: str, ttis: int):
    from hsdpa_ee.ee_controller import ControllerConfig
    from hsdpa_ee.link_channel import make_channel
    from hsdpa_ee.mcs_table import reference_table
    from hsdpa_ee.sim_engine import FIXED_BASELINE, ScenarioConfig

    return ScenarioConfig(
        channel=make_channel(DISTANCE_M, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0),
        antenna_mode=mode,
        strategy=FIXED_BASELINE,
        duration_ttis=ttis,
        seed=SEED,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        collect_trace=False,
    )


def measure(what: str, mode: str, ttis: int) -> dict:
    """One measurement, in this process: 'traced' (tracemalloc peak of
    the run, and what dropping the kept link frees) or 'rss' (ru_maxrss
    of the untraced run under gc.disable())."""
    import gc

    from hsdpa_ee import sim_engine

    sc = scenario(mode, ttis)
    if what == "rss":
        import resource

        gc.disable()
        sim_engine.run(sc)
        return {"rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    import tracemalloc

    tracemalloc.start()
    metrics, _ = sim_engine.run(sc)
    peak = tracemalloc.get_traced_memory()[1]
    gc.collect()
    held = tracemalloc.get_traced_memory()[0]
    sim_engine._link_memo = None
    gc.collect()
    kept = held - tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    return {"peak_mb": peak / 1e6, "kept_mb": kept / 1e6, "ee": metrics.avg_ee_bits_per_joule}


def in_fresh_process(src: Path, what: str, mode: str, ttis: int) -> dict:
    cmd = [sys.executable, __file__, "--child", what, mode, str(ttis), "--src", str(src)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--procs", type=int, default=4, help="processes per ru_maxrss range")
    ap.add_argument("--src", type=Path, default=SRC, help="src directory of the engine")
    ap.add_argument("--child", nargs=3, metavar=("WHAT", "MODE", "TTIS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.procs < 1:
        ap.error("--procs must be >= 1")
    sys.path.insert(0, str(args.src.resolve()))
    if args.child:
        what, mode, ttis = args.child
        print(json.dumps(measure(what, mode, int(ttis))))
        return 0

    from hsdpa_ee.sim_engine import CHUNK_TTIS

    print(f"engine: {args.src}")
    print(f"FixedBaseline, {DISTANCE_M:g} m, seed {SEED}, untraced; "
          f"ru_maxrss over {args.procs} processes under gc.disable()")
    print(f"{'case':<24}{'tracemalloc peak':>18}{'kept link':>12}{'ru_maxrss':>18}{'EE b/J':>16}")
    for mode, ttis in (("SIMO", LONG_TTIS), ("MIMO", LONG_TTIS), ("MIMO", CHUNK_TTIS)):
        traced = in_fresh_process(args.src, "traced", mode, ttis)
        rss = [in_fresh_process(args.src, "rss", mode, ttis)["rss_mb"] for _ in range(args.procs)]
        kept = f"{traced['kept_mb']:.2f} MB" if ttis <= CHUNK_TTIS else "none"
        print(f"{f'{mode} {ttis} TTIs':<24}{traced['peak_mb']:>15.2f} MB{kept:>12}"
              f"{min(rss):>10.1f}-{max(rss):.1f} MB{traced['ee']:>16.6g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
