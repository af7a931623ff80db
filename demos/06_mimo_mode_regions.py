"""Dual-stream 2x2 operation: codebook, mode regions, paired power updates.

The terminal reports one of four precoders plus a rank choice; the
controller answers with a single power update that has to serve both
streams at once.
"""

import numpy as np

from hsdpa_ee import (
    DUAL,
    dbm_to_watt,
    enumerate_equal_delta_pairs,
    estimate_dual_power,
    make_channel,
    pci_codebook,
    reference_table,
    select_mode_and_feedback,
    stream_gains,
)

table = reference_table()
params = make_channel(430.0, -72.5, geometry_db=23.0, alpha=0.995)

# -- the codebook ------------------------------------------------------------
for i, w in enumerate(pci_codebook()):
    print(f"PCI {i}: primary ({w.w1:.4f}, {w.w2:+.4f}), "
          f"secondary ({w.w3:.4f}, {w.w4:+.4f})")

# -- mode regions over transmit power ----------------------------------------
# one frozen channel draw; sweep power and watch the rank decision flip
rng = np.random.default_rng(2)
g = (rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))) * 0.7  # 3 taps of 2x2

print()
last = None
for p_dbm in np.arange(24.0, 44.1, 2.0):
    fb = select_mode_and_feedback(g, params, table, dbm_to_watt(p_dbm))
    desc = (f"{fb.mode:6s} PCI {fb.pci} CQI {fb.cqi_primary}"
            + (f"/{fb.cqi_secondary}" if fb.mode == DUAL else ""))
    if desc != last:
        print(f"{p_dbm:5.1f} dBm: {desc}")
        last = desc
# low power cannot pay for two decodable streams; once both streams
# clear the first threshold the summed TBS wins

# -- one power update for two streams ----------------------------------------
# reported dual CQIs (14, 9) at 38 dBm: which MCS pairs stay reachable
# with a single shared power shift, and what does each shift cost?
pairs = enumerate_equal_delta_pairs(14, 9, table)
print(f"\n{len(pairs)} equal-shift MCS pairs from (14, 9); a few around the report:")
for j1, j2 in pairs:
    if abs(j1 - 14) <= 2:
        p_new = estimate_dual_power(38.0, 14, j1, table, delta_db=0.0)
        print(f"  ({j1:2d}, {j2:2d}) at {p_new:.2f} dBm")
