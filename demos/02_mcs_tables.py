"""CQI tables: lookup, quantisation, and synthesis.

Two tables ship with the package. `default_table` is a synthetic
30-entry staircase with a 1 dB threshold pitch; `reference_table` holds
the category-10 transport block sizes used by the scenario presets.
"""

import numpy as np

from hsdpa_ee import (
    cqi_from_sinr,
    make_uniform_table,
    reference_table,
    table_to_csv,
    threshold_delta,
)

table = reference_table()
print(f"reference table: {len(table.entries)} entries, "
      f"thresholds {table.thresholds_db[0]:.1f} .. {table.thresholds_db[-1]:.1f} dB")
print(f"TBS range {int(table.tbs_bits[0])} .. {int(table.tbs_bits[-1])} bits")

# -- quantising a SINR sweep into CQIs ------------------------------------
for sinr in (-10.0, -4.5, 0.0, 7.3, 14.0, 21.0, 35.0):
    c = cqi_from_sinr(table, sinr)
    tbs = table.tbs(c) if c >= 1 else 0
    print(f"SINR {sinr:6.1f} dB -> CQI {c:2d}, TBS {tbs} bits")

# CQI 0 means "below the first threshold": nothing is scheduled there

# -- threshold deltas drive the power mapping ------------------------------
# moving from CQI 16 to CQI 25 costs exactly the threshold difference in dB
d = threshold_delta(table, 16, 25)
print(f"\nthreshold delta 16 -> 25: {d:+.2f} dB")

# -- synthesising a uniform table ------------------------------------------
synth = make_uniform_table(step_db=0.5, entries=30)
print(f"\nsynthetic table pitch: "
      f"{np.diff(synth.thresholds_db).min():.3f} dB uniform")
csv_text = table_to_csv(synth)
print("first three CSV rows:")
print("\n".join(csv_text.splitlines()[:4]))
