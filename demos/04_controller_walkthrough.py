"""Hand-feeding the semi-static controller, one feedback tick at a time.

Three layers, bottom up:

  estimate_power_for_mcs  dB-for-dB power to hit a target MCS
  select_optimal          EE argmax over the whole table, clamped
  on_tti                  trigger logic: prohibit timer, EE gap, periodic
"""

from hsdpa_ee import (
    ControllerConfig,
    PowerModelParams,
    TtiFeedback,
    estimate_power_for_mcs,
    new_controller_state,
    on_tti,
    reference_table,
    select_optimal,
)

table = reference_table()
cfg = ControllerConfig()
pm = PowerModelParams()

# -- layer 1: the power mapping --------------------------------------------
# reported CQI 20 at 36 dBm; what power would MCS 25 have needed?
p = estimate_power_for_mcs(36.0, 20, 25, table, delta_db=0.0)
print(f"CQI 20 observed at 36 dBm -> MCS 25 needs {p:.2f} dBm")
# with a +1.5 dB outer-loop backoff the estimate shifts by the same amount
p_blr = estimate_power_for_mcs(36.0, 20, 25, table, delta_db=1.5)
print(f"same, with +1.5 dB margin: {p_blr:.2f} dBm")

# -- layer 2: the EE argmax -------------------------------------------------
sel = select_optimal(36.0, 20, 0.0, table, cfg, pm)
print(f"\nEE argmax: MCS {sel.mcs} at {sel.power_dbm:.2f} dBm, "
      f"{sel.ee:,.0f} bits/J, infeasible={sel.infeasible}")

# a tight power cap forces the clamp branch
tight = ControllerConfig(p_max_dbm=30.0)
sel2 = select_optimal(36.0, 20, 0.0, table, tight, pm)
print(f"capped at 30 dBm: MCS {sel2.mcs} at {sel2.power_dbm:.2f} dBm, "
      f"infeasible={sel2.infeasible}")

# -- layer 3: the trigger loop ----------------------------------------------
# synthetic feedback: stable channel, then a sharp drop at tick 60
st = new_controller_state(cfg, power_dbm=36.0)
events = []
for t in range(140):
    cqi = 21 if t < 60 else 12
    ee_meas = 30_000.0 if t < 60 else 9_000.0
    fb = TtiFeedback(cqi=cqi, acks=(True,), measured_power_dbm=st.power_dbm,
                     realized_ee=ee_meas)
    st, dec = on_tti(st, fb, table, cfg, pm)
    if dec.action == "reconfigure":
        events.append((t, dec.levels[0], round(st.power_dbm, 2)))

print(f"\n{len(events)} reconfigurations over 140 ticks:")
for t, mcs, pdbm in events:
    print(f"  tick {t:3d}: -> MCS {mcs}, {pdbm} dBm")
# the synthetic EE samples keep the estimate/realized gap wide, so the
# trigger fires at every prohibit-timer expiry: spacing is pinned at 11
# ticks, and the channel drop at tick 60 is picked up at tick 66, the
# first allowed opportunity after it
