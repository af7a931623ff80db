"""Run-level invariants of the TTI engine over generated scenarios.

Each example draws a seed, an antenna mode, a strategy, a distance, a
geometry and a run length, runs the engine with its trace on, and
checks that the metrics are the trace's totals (energy bit for bit,
summed in TTI order), that the baseline never reconfigures, and that the
semi-static controller's reconfigurations keep the spacing of the dual
trigger: never within the minimum interval, and past the maximum
interval only where idle TTIs (out-of-range reports, which skip the
trigger) held it back.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hsdpa_ee.ee_controller import ControllerConfig
from hsdpa_ee.link_channel import make_channel
from hsdpa_ee.mcs_table import reference_table
from hsdpa_ee.power_model import PowerModelParams
from hsdpa_ee.sim_engine import (
    FIXED_BASELINE,
    MIMO,
    OUTCOME_IDLE,
    PER_TTI_OPTIMAL,
    SEMI_STATIC,
    SIMO,
    SISO,
    ScenarioConfig,
    power_model_for_mode,
    run,
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from([SISO, SIMO, MIMO]),
    strategy=st.sampled_from([FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL]),
    distance_m=st.floats(300.0, 1500.0),
    geometry_db=st.floats(-5.0, 23.0),
    ttis=st.integers(50, 2000),
)
def test_metrics_are_the_trace_totals(seed, mode, strategy, distance_m, geometry_db, ttis):
    cfg = ControllerConfig(ee_smoothing=0.01)
    sc = ScenarioConfig(
        channel=make_channel(distance_m, -72.5, geometry_db=geometry_db, alpha=0.995),
        antenna_mode=mode,
        strategy=strategy,
        duration_ttis=ttis,
        seed=seed,
        controller=cfg,
        table=reference_table(),
        power_model=power_model_for_mode(mode, PowerModelParams()),
    )
    metrics, trace = run(sc)

    assert [r.tti_index for r in trace] == list(range(ttis))
    energy = 0.0
    for r in trace:
        energy += r.consumed_energy_j
    assert energy.hex() == metrics.consumed_energy_j.hex()
    assert metrics.delivered_bits == sum(r.delivered_bits for r in trace)

    marks = [r.tti_index for r in trace if r.reconfigured]
    assert metrics.reconfig_count == len(marks)
    if strategy == FIXED_BASELINE:
        assert marks == []
    elif strategy == SEMI_STATIC:
        min_gap = cfg.min_reconfig_interval_ms / cfg.tti_ms
        assert all(b - a > min_gap for a, b in zip(marks, marks[1:]))
        max_gap = cfg.max_reconfig_interval_ms / cfg.tti_ms + 1
        idle = [r.outcome == OUTCOME_IDLE for r in trace]
        assert all(any(idle[a + 1:b]) for a, b in zip(marks, marks[1:]) if b - a > max_gap)
