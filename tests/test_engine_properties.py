"""Run-level invariants of the TTI engine over generated scenarios.

Each example draws a seed, an antenna mode, a strategy, a distance, a
geometry and a run length, runs the engine with its trace on, and
checks that the metrics are the trace's totals (energy bit for bit,
summed in TTI order), that the baseline never reconfigures, and that the
semi-static controller's reconfigurations keep the spacing of the dual
trigger: never within the minimum interval, and past the maximum
interval only where idle TTIs (out-of-range reports, which skip the
trigger) held it back.

A second test ties the selector to the engine's own link constants: on
a built SIMO link, select_optimal's level decodes on the TTI whose
report it was given, at the power it chose. Its 2x2 twin, for
select_optimal_dual on a built MIMO link, is an expected failure while
the dual selector shifts the total power 2 dB per dB of stream shift
(ROADMAP item 14).
"""

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from hsdpa_ee import sim_engine
from hsdpa_ee.ee_controller import ControllerConfig, select_optimal
from hsdpa_ee.link_channel import make_channel
from hsdpa_ee.mcs_table import reference_table
from hsdpa_ee.mimo_dtxaa import DUAL, SINGLE, MimoFeedback, select_optimal_dual
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    distance_m=st.floats(300.0, 900.0),
    p_dbm=st.floats(20.0, 43.0),
    min_mcs=st.integers(1, 30),
)
def test_a_selection_decodes_on_the_tti_it_was_measured(seed, distance_m, p_dbm, min_mcs):
    # the dB-for-dB power shift the selector assumes, against the link:
    # with no outer-loop offset, a feasible level chosen from TTI t's
    # report decodes on t's constant at the chosen power
    table = reference_table()
    cfg = ControllerConfig(min_mcs=min_mcs)
    sc = ScenarioConfig(
        channel=make_channel(distance_m, -72.5, geometry_db=23.0, alpha=0.995),
        antenna_mode=SIMO,
        duration_ttis=400,
        seed=seed,
        controller=cfg,
        table=table,
    )
    (link,) = sim_engine._build_link(sc)
    c_db = link.sinr_db[SINGLE][0][0]
    for t in range(link.ttis):
        cqi = link.report(t, p_dbm)[2]
        if cqi < 1:
            continue
        sel = select_optimal(p_dbm, cqi, 0.0, table, cfg, sc.power_model)
        if not sel.infeasible:
            assert c_db[t] + (sel.power_dbm - 30.0) >= table.threshold(sel.mcs) - 1e-9


@pytest.mark.xfail(strict=True, reason="ROADMAP item 14: the dual selector moves the total "
                   "power 2 dB per dB of stream shift, each stream's SINR moves 1 dB per dB")
@settings(max_examples=60, deadline=None, derandomize=True,
          phases=[Phase.explicit, Phase.generate])
@given(
    seed=st.integers(0, 2**32 - 1),
    distance_m=st.floats(400.0, 470.0),
    p_dbm=st.floats(25.0, 43.0),
)
@example(seed=3, distance_m=430.0, p_dbm=36.0)  # the case of ROADMAP item 14
def test_a_dual_selection_decodes_on_the_tti_it_was_measured(seed, distance_m, p_dbm):
    # the 2x2 twin of the test above: a feasible pair chosen from TTI t's
    # dual report decodes both streams on t's constants, each stream at
    # half the chosen power
    table = reference_table()
    cfg = ControllerConfig()
    sc = ScenarioConfig(
        channel=make_channel(distance_m, -72.5, geometry_db=23.0, alpha=0.995),
        antenna_mode=MIMO,
        duration_ttis=400,
        seed=seed,
        controller=cfg,
        table=table,
    )
    (link,) = sim_engine._build_link(sc)
    streams = link.sinr_db[DUAL]
    for t in range(link.ttis):
        mode, pci, c1, c2, _ = link.report(t, p_dbm)
        if mode != DUAL:
            continue
        sel = select_optimal_dual(p_dbm, MimoFeedback(DUAL, pci, c1, c2), 0.0, table, cfg,
                                  sc.power_model)
        if not sel.infeasible:
            off = (sel.power_dbm - 30.0) - sim_engine._HALF_DB
            for rows, level in zip(streams, sel.pair):
                assert rows[pci][t] + off >= table.threshold(level) - 1e-9
