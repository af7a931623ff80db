"""
Where the gain lives: sweeps over speed, distance, and the MCS floor
=====================================================================

Reduced-size versions of the headline experiments. Each sweep shares
random draws across strategies (common random numbers), so the printed
gains are paired estimates. Results land in trend_sweeps.csv next to
this script. The full-size versions are the `figure7`/`figure8`/
`figure9` presets of the command line tool.
"""

import csv
import pathlib

from hsdpa_ee import (
    FIXED_BASELINE,
    SEMI_STATIC,
    SIMO,
    ControllerConfig,
    ScenarioConfig,
    make_channel,
    reference_table,
    sweep,
)

template = ScenarioConfig(
    channel=make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995,
                         speed_kmh=3.0),
    antenna_mode=SIMO,
    strategy=SEMI_STATIC,
    duration_ttis=4000,
    seed=1,
    controller=ControllerConfig(ee_smoothing=0.01),
    table=reference_table(),
)

strategies = [FIXED_BASELINE, SEMI_STATIC]
out_rows = []


def show(title, variable, values, unit=""):
    pts = sweep(template, variable, values, repetitions=3,
                strategies=strategies)
    by_val = {}
    for p in pts:
        by_val.setdefault(p.value, {})[p.strategy] = p.mean_ee
        out_rows.append((variable, p.value, p.strategy, p.mean_ee))
    print(title)
    for v in values:
        gain = by_val[v][SEMI_STATIC] / by_val[v][FIXED_BASELINE] - 1.0
        print(f"  {v:>6} {unit}: semi-static {by_val[v][SEMI_STATIC]:10,.0f} bits/J "
              f"({gain:+.1%} vs baseline)")
    print()


# adaptation tracks a slow channel better than a fast one
show("user speed", "speed", [3.0, 30.0, 120.0], "km/h")

# close-in users gain most: the fixed 40.5 dBm baseline overshoots
# hardest there, while at the edge the efficient point approaches it
show("cell-edge distance", "distance", [435.0, 650.0, 1100.0], "m")

# a throughput floor eats the gain: forcing high MCS forces high power
show("minimum MCS level", "theta_min", [1, 26, 30])

path = pathlib.Path(__file__).with_name("trend_sweeps.csv")
with path.open("w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["variable", "value", "strategy", "mean_ee_bits_per_joule"])
    w.writerows(out_rows)
print(f"wrote {path.name} ({len(out_rows)} rows)")
