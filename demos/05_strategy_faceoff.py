"""
Three power-control strategies on the same channel draws
=========================================================

fixed_baseline   constant 40.5 dBm, AMC plus outer loop only
per_tti_optimal  EE argmax applied every TTI (signalling-free upper bound)
semi_static      EE argmax applied only when the trigger allows it

Same seed = same fading and noise, so the comparison is paired.
"""

import numpy as np

from hsdpa_ee import (
    FIXED_BASELINE,
    PER_TTI_OPTIMAL,
    SEMI_STATIC,
    SIMO,
    ControllerConfig,
    ScenarioConfig,
    make_channel,
    reference_table,
    run,
)

ch = make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0)

rows = []
for strategy in (FIXED_BASELINE, PER_TTI_OPTIMAL, SEMI_STATIC):
    sc = ScenarioConfig(
        channel=ch,
        antenna_mode=SIMO,
        strategy=strategy,
        duration_ttis=20_000,
        seed=5,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        collect_trace=True,
    )
    metrics, trace = run(sc)
    rows.append((strategy, metrics))
    powers = sorted({r.p_tx_dbm for r in trace if r.mcs_index > 0})
    span = f"{powers[0]:.1f}..{powers[-1]:.1f}" if len(powers) > 1 else f"{powers[0]:.1f}"
    print(f"{strategy:16s} power span {span} dBm, "
          f"{metrics.reconfig_count:5d} reconfigs")

base = rows[0][1].avg_ee_bits_per_joule
print()
print(f"{'strategy':16s} {'bits/J':>12s} {'vs baseline':>12s} "
      f"{'Mbit/s':>8s} {'NACK':>6s}")
for strategy, m in rows:
    print(f"{strategy:16s} {m.avg_ee_bits_per_joule:12,.0f} "
          f"{m.avg_ee_bits_per_joule / base - 1.0:+12.1%} "
          f"{m.throughput_bps / 1e6:8.2f} {m.nack_rate:6.3f}")

# the semi-static scheme recovers most of the per-TTI gain with a
# small fraction of the signalling events
