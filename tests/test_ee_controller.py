"""Controller oracles.

The selection logic is checked against a literal brute-force
reimplementation of the per-level estimates, clamps included, on
randomized tables and parameters. Trigger and offset rules are checked
against their truth tables and hand-computed accumulations.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from hsdpa_ee.ee_controller import (
    KEEP,
    RECONFIGURE,
    ControllerConfig,
    ControllerState,
    TtiFeedback,
    estimate_ee,
    estimate_power_for_mcs,
    amc_level,
    new_controller_state,
    on_tti,
    relative_ee_difference,
    select_optimal,
    should_trigger,
    update_offset,
)
from hsdpa_ee.link_channel import ChannelParams, hs_sinr_db
from hsdpa_ee.mcs_table import default_table, make_uniform_table
from hsdpa_ee.mimo_dtxaa import DUAL, SINGLE, MimoFeedback, select_optimal_dual
from hsdpa_ee.power_model import PowerModelParams, dbm_to_watt

PM5 = PowerModelParams(eta=0.38, p_cir_w=6.0, p_sta_w=6.0, m_a=1)


def flat_table():
    # thresholds 0..29 dB so hand arithmetic stays obvious
    return make_uniform_table(step_db=1.0, entries=30, first_threshold_db=0.0)


# ------------------------------------------------------- power estimate


def test_power_estimate_identity():
    t = flat_table()
    assert estimate_power_for_mcs(40.5, 12, 12, t, 0.0) == 40.5


def test_power_estimate_hand_case():
    # beta_i = 10 dB (index 11), beta_j = 7 dB (index 8)
    t = flat_table()
    assert t.threshold(11) == 10.0 and t.threshold(8) == 7.0
    assert estimate_power_for_mcs(40.5, 11, 8, t, 0.0) == pytest.approx(37.5, abs=1e-12)


def test_power_estimate_offset_additivity():
    t = flat_table()
    base = estimate_power_for_mcs(33.0, 5, 19, t, 0.0)
    shifted = estimate_power_for_mcs(33.0, 5, 19, t, 1.0)
    assert shifted - base == pytest.approx(1.0, abs=1e-12)


def test_power_estimate_rejects_out_of_range_cqi():
    t = flat_table()
    with pytest.raises(ValueError):
        estimate_power_for_mcs(40.0, 0, 5, t)
    with pytest.raises(ValueError):
        estimate_power_for_mcs(40.0, 5, 31, t)


# ------------------------------------------------------------ EE estimate


def test_ee_estimate_hand_case():
    # 4664 bits at 10 W: 10/0.38 + 12 = 38.3158 W over 2 ms
    got = estimate_ee(40.0, 4664.0, PM5)
    assert got == pytest.approx(4664.0 / (0.002 * (10.0 / 0.38 + 12.0)), rel=1e-12)
    assert got == pytest.approx(60862.0, rel=1e-4)


def test_ee_estimate_linear_in_tbs():
    a = estimate_ee(37.0, 1000.0, PM5)
    b = estimate_ee(37.0, 2000.0, PM5)
    assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_ee_estimate_vanishes_at_huge_power():
    assert estimate_ee(150.0, 25558.0, PM5) < 1e-3


def test_ee_estimate_validation():
    with pytest.raises(ValueError):
        estimate_ee(40.0, 0.0, PM5)


# --------------------------------------------------------- select_optimal


def brute_force_selection(p_dbm, i, delta, table, cfg, pm):
    """Literal per-level loop with the clamps applied longhand."""
    n = len(table.entries)
    powers, ees = {}, {}
    best = None
    for j in range(1, n + 1):
        pj = p_dbm + table.threshold(j) - table.threshold(i) + delta
        w = 10.0 ** ((pj - 30.0) / 10.0)
        ees[j] = table.tbs(j) / ((cfg.tti_ms * 1e-3) * (w / pm.eta + pm.overhead_w))
        powers[j] = pj
        if best is None or ees[j] > ees[best]:
            best = j
    theta_max = 0
    for j in range(1, n + 1):
        if powers[j] <= cfg.p_max_dbm:
            theta_max = j
    if powers[cfg.min_mcs] > cfg.p_max_dbm:
        th = max(theta_max, 1)
        return th, cfg.p_max_dbm, ees[th], True, best
    th = min(max(best, cfg.min_mcs), theta_max)
    return th, powers[th], ees[th], False, best


def test_select_optimal_matches_brute_force_randomized():
    rng = np.random.default_rng(20240817)
    n_infeasible = n_lower = n_upper = 0
    for _ in range(1000):
        entries = int(rng.integers(8, 31))
        table = make_uniform_table(
            step_db=float(rng.uniform(0.4, 2.0)),
            entries=entries,
            first_threshold_db=float(rng.uniform(-8.0, 0.0)),
            tbs_min_bits=int(rng.integers(100, 200)),
            tbs_max_bits=int(rng.integers(5000, 30000)),
        )
        pm = PowerModelParams(
            eta=float(rng.uniform(0.2, 0.9)),
            p_cir_w=float(rng.uniform(1.0, 10.0)),
            p_sta_w=float(rng.uniform(1.0, 10.0)),
            m_a=int(rng.integers(1, 3)),
        )
        cfg = ControllerConfig(
            p_max_dbm=float(rng.uniform(20.0, 50.0)),
            min_mcs=int(rng.integers(1, entries + 1)),
        )
        i = int(rng.integers(1, entries + 1))
        delta = float(rng.uniform(-6.0, 6.0))
        p = float(rng.uniform(0.0, 45.0))

        got = select_optimal(p, i, delta, table, cfg, pm)
        want = brute_force_selection(p, i, delta, table, cfg, pm)
        assert got.mcs == want[0]
        assert got.power_dbm == pytest.approx(want[1], abs=1e-9)
        assert got.ee == pytest.approx(want[2], rel=1e-9)
        assert got.infeasible == want[3]

        if want[3]:
            n_infeasible += 1
        elif want[0] == cfg.min_mcs and want[4] < cfg.min_mcs:
            n_lower += 1
        elif want[0] < max(want[4], cfg.min_mcs):
            n_upper += 1  # power budget pulled the choice down
    # the randomization must actually exercise every clamp branch
    assert n_infeasible >= 20
    assert n_lower >= 5
    assert n_upper >= 5


def test_select_optimal_matches_brute_force_lower_clamp_directed():
    # at very high power the efficiency argmax sits at the bottom of the
    # table, so any higher min_mcs forces the lower clamp branch
    rng = np.random.default_rng(771)
    t = default_table()
    hits = 0
    for _ in range(100):
        cfg = ControllerConfig(
            p_max_dbm=90.0, min_mcs=int(rng.integers(5, 31))
        )
        p = float(rng.uniform(55.0, 65.0))
        i = int(rng.integers(1, 31))
        got = select_optimal(p, i, 0.0, t, cfg, PM5)
        want = brute_force_selection(p, i, 0.0, t, cfg, PM5)
        assert got.mcs == want[0]
        assert got.power_dbm == pytest.approx(want[1], abs=1e-9)
        assert got.ee == pytest.approx(want[2], rel=1e-9)
        assert got.infeasible == want[3]
        if want[0] == cfg.min_mcs and want[4] < cfg.min_mcs:
            hits += 1
    assert hits >= 50


def test_select_optimal_lower_clamp_branch():
    t = default_table()
    cfg = ControllerConfig(min_mcs=30, p_max_dbm=60.0)
    got = select_optimal(40.5, 25, 0.0, t, cfg, PM5)
    assert got.mcs == 30
    assert got.power_dbm == pytest.approx(
        estimate_power_for_mcs(40.5, 25, 30, t), abs=1e-12
    )
    assert not got.infeasible


def test_select_optimal_upper_clamp_branch():
    t = default_table()
    # cap the budget at the level-10 estimate; the unconstrained argmax
    # at this low power sits far above level 10
    p, i = 20.0, 15
    p_max = estimate_power_for_mcs(p, i, 10, t)
    cfg = ControllerConfig(p_max_dbm=p_max)
    unconstrained = select_optimal(p, i, 0.0, t, ControllerConfig(p_max_dbm=90.0), PM5)
    assert unconstrained.mcs > 10
    got = select_optimal(p, i, 0.0, t, cfg, PM5)
    assert got.mcs == 10
    assert got.power_dbm == pytest.approx(p_max, abs=1e-9)
    assert not got.infeasible


def test_select_optimal_infeasible_reports_distinctly():
    t = default_table()
    p, i = 40.0, 15
    p_max = estimate_power_for_mcs(p, i, 10, t)
    cfg = ControllerConfig(p_max_dbm=p_max, min_mcs=20)
    got = select_optimal(p, i, 0.0, t, cfg, PM5)
    assert got.infeasible
    assert got.mcs == 10  # best affordable level, constraint notwithstanding
    assert got.power_dbm == p_max


def test_select_optimal_infeasible_even_at_level_one():
    t = default_table()
    cfg = ControllerConfig(p_max_dbm=-40.0)
    got = select_optimal(30.0, 15, 0.0, t, cfg, PM5)
    assert got.infeasible
    assert got.mcs == 1
    assert got.power_dbm == -40.0


def test_select_optimal_validates_cqi():
    t = default_table()
    cfg = ControllerConfig()
    for bad in (0, 31):
        with pytest.raises(ValueError):
            select_optimal(40.0, bad, 0.0, t, cfg, PM5)


@pytest.mark.parametrize("bad", [2.0, True, np.True_, "2", None])
def test_select_optimal_rejects_a_report_that_is_not_an_integer_index(bad):
    # a float used to fail as a list index, and True was served as CQI 1
    t = default_table()
    cfg = ControllerConfig()
    with pytest.raises(ValueError, match=rf"integer CQI index, got {bad!r}"):
        select_optimal(30.0, bad, 0.0, t, cfg, PM5)
    assert select_optimal(30.0, np.int64(2), 0.0, t, cfg, PM5) == select_optimal(
        30.0, 2, 0.0, t, cfg, PM5
    )


# ------------------------------------------------------- gap and trigger


def test_relative_ee_difference_hand_cases():
    assert relative_ee_difference(100.0, 100.0) == 0.0
    assert relative_ee_difference(100.0, 0.0) == 1.0
    assert relative_ee_difference(100.0, 75.0) == pytest.approx(0.25, abs=1e-12)
    assert relative_ee_difference(100.0, 120.0) < 0.0
    with pytest.raises(ValueError):
        relative_ee_difference(0.0, 10.0)


def test_should_trigger_truth_table():
    cfg = ControllerConfig()
    assert should_trigger(0.25, 25.0, cfg) is True  # event branch
    assert should_trigger(0.25, 15.0, cfg) is False  # blocked by min interval
    assert should_trigger(0.0, 201.0, cfg) is True  # periodic branch
    assert should_trigger(0.0, 200.0, cfg) is False  # strictly greater
    assert should_trigger(1.0, 20.0, cfg) is False  # strictly greater
    assert should_trigger(0.2, 22.0, cfg) is True  # gap threshold inclusive
    with pytest.raises(ValueError):
        should_trigger(0.1, -1.0, cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        ControllerConfig(max_reconfig_interval_ms=50.0)  # < 5x the min
    with pytest.raises(ValueError):
        ControllerConfig(ee_gap_threshold=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(min_mcs=0)


# ------------------------------------------------------------- offset


def test_offset_steps_and_clamp():
    cfg = ControllerConfig()
    st = ControllerState(power_dbm=40.0)
    update_offset(st, False, cfg)
    assert st.offset_db == pytest.approx(0.5, abs=1e-12)
    update_offset(st, True, cfg)
    assert st.offset_db == pytest.approx(0.5 - 0.5 / 9.0, abs=1e-12)
    for _ in range(100):
        update_offset(st, False, cfg)
    assert st.offset_db == 6.0
    for _ in range(3000):
        update_offset(st, True, cfg)
    assert st.offset_db == -6.0


def test_offset_one_nack_then_nine_acks_return_to_zero():
    # the steps' 9:1 ratio is the 10% error target: one NACK per nine
    # ACKs leaves the offset where it was
    cfg = ControllerConfig()
    st = ControllerState(power_dbm=40.0)
    update_offset(st, False, cfg)
    for _ in range(9):
        update_offset(st, True, cfg)
    assert st.offset_db == pytest.approx(0.0, abs=1e-12)


def test_offset_ten_acks_accumulate():
    cfg = ControllerConfig()
    st = ControllerState(power_dbm=40.0)
    for _ in range(10):
        update_offset(st, True, cfg)
    assert st.offset_db == pytest.approx(-10 * (0.5 / 9.0), abs=1e-12)


def test_offset_equilibrium_hits_error_target():
    # stationary channel with a soft margin: NACK iff a unit-variance
    # Gaussian innovation defeats the accumulated offset margin. The
    # asymmetric steps must park the NACK rate at the 10% target.
    cfg = ControllerConfig()
    st = ControllerState(power_dbm=40.0)
    rng = np.random.default_rng(99)
    nacks = 0
    total = 120_000
    burn = 20_000
    for k in range(total):
        ack = bool(2.0 * rng.standard_normal() + st.offset_db >= 0.0)
        update_offset(st, ack, cfg)
        if k >= burn and not ack:
            nacks += 1
    rate = nacks / (total - burn)
    target = cfg.offset_step_down_db / (cfg.offset_step_up_db + cfg.offset_step_down_db)
    assert target == pytest.approx(0.1, abs=1e-12)
    assert rate == pytest.approx(target, abs=0.015)


# --------------------------------------------------------------- on_tti


def test_on_tti_first_feedback_configures_link():
    cfg = ControllerConfig()
    t = default_table()
    st = new_controller_state(cfg, power_dbm=40.5)
    st, dec = on_tti(st, TtiFeedback(cqi=18), t, cfg, PM5)
    assert dec.action == RECONFIGURE
    assert st.timer_ms == 0.0
    assert st.power_dbm == dec.power_dbm
    want = select_optimal(40.5, 18, 0.0, t, cfg, PM5)
    assert (dec.levels, dec.power_dbm) == ((want.mcs,), want.power_dbm)


def test_on_tti_static_channel_waits_for_periodic():
    cfg = ControllerConfig()
    t = default_table()
    best = select_optimal(40.5, 18, 0.0, t, cfg, PM5)
    st = ControllerState(
        power_dbm=best.power_dbm, ee_smoothed=best.ee, timer_ms=0.0
    )
    # on a frozen channel the report tracks the configured level exactly
    fb = TtiFeedback(
        cqi=best.mcs, measured_power_dbm=best.power_dbm, realized_ee=best.ee
    )
    actions = []
    for _ in range(101):
        st, dec = on_tti(st, fb, t, cfg, PM5)
        actions.append(dec.action)
    assert all(a == KEEP for a in actions[:100])
    assert actions[100] == RECONFIGURE  # timer hits 202 ms
    # nothing actually changed, so the new configuration is the old one
    assert st.power_dbm == pytest.approx(best.power_dbm, abs=1e-9)
    assert dec.levels == (best.mcs,)


def test_on_tti_spacing_bounds_under_noisy_feedback():
    cfg = ControllerConfig()
    t = default_table()
    rng = np.random.default_rng(4242)
    st = new_controller_state(cfg, power_dbm=40.5)
    marks = []
    for k in range(5000):
        fb = TtiFeedback(
            cqi=int(rng.integers(5, 26)),
            acks=(bool(rng.random() < 0.9),),
            realized_ee=float(rng.uniform(0.0, 2e5)),
        )
        st, dec = on_tti(st, fb, t, cfg, PM5)
        if dec.action == RECONFIGURE:
            marks.append(k)
    assert len(marks) >= 2
    gaps = np.diff(marks)
    assert gaps.min() >= 11  # > 20 ms at 2 ms per TTI
    assert gaps.max() <= 101  # <= 200 ms + one TTI


def test_on_tti_out_of_range_cqi_serves_nothing():
    cfg = ControllerConfig()
    t = default_table()
    st = new_controller_state(cfg, power_dbm=40.5)
    timer_before = st.timer_ms
    offset_before = st.offset_db
    st, dec = on_tti(st, TtiFeedback(cqi=0, acks=(False,)), t, cfg, PM5)
    assert dec.action == KEEP
    assert dec.levels == ()
    assert st.timer_ms == timer_before + cfg.tti_ms  # timer keeps running
    assert st.offset_db == pytest.approx(offset_before + 0.5)  # late NACK counted


@pytest.mark.parametrize("timer_ms", [0.0, 30.0])  # next step inside / past 20 ms
@pytest.mark.parametrize("report, dual, min_mcs", [
    (31, False, 1),  # CQI above the table
    ((DUAL, 5, 31), True, 1),
    ((DUAL, 31, 5), True, 1),
    ((SINGLE, 5, None), True, 1),  # single-mode report to the dual selector
    ((SINGLE, 5, 7), True, 1),
    (5, False, 31),  # min_mcs above the table
    ((DUAL, 5, 7), True, 31),
])
def test_on_tti_rejects_a_cqi_outside_the_table(timer_ms, report, dual, min_mcs):
    # the step must raise select's ValueError at either timer, not an
    # IndexError or TypeError out of the AMC path
    cfg = ControllerConfig(min_mcs=min_mcs)
    t = default_table()
    assert len(t) == 30
    cqi = MimoFeedback(report[0], 0, *report[1:]) if dual else report
    select = select_optimal_dual if dual else select_optimal
    assert_rejected_unchanged(timer_ms, cqi, t, cfg, select)


def assert_rejected_unchanged(timer_ms, cqi, table, cfg, select=select_optimal, match=None):
    """on_tti rejects the report cqi, arriving with a NACK and a realized
    EE, and leaves the state as it was: timer, offset and smoothed EE."""
    st = ControllerState(power_dbm=40.0, offset_db=0.25, timer_ms=timer_ms, ee_smoothed=1e6)
    before = replace(st)
    with pytest.raises(ValueError, match=match):
        on_tti(st, TtiFeedback(cqi, (False,), 40.0, 2e6), table, cfg, PM5, select)
    assert st == before


@pytest.mark.parametrize("timer_ms", [0.0, 30.0])  # next step inside / past 20 ms
def test_on_tti_takes_a_numpy_integer_cqi_as_a_single_stream_report(timer_ms):
    # cqi_from_sinr returns numpy integers for array input
    cfg = ControllerConfig()
    t = default_table()
    steps = [
        on_tti(ControllerState(power_dbm=40.0, timer_ms=timer_ms),
               TtiFeedback(cqi, measured_power_dbm=40.0), t, cfg, PM5)
        for cqi in (12, np.int64(12), np.int32(12))
    ]
    assert steps[1] == steps[0] and steps[2] == steps[0]
    with pytest.raises(ValueError):
        on_tti(ControllerState(power_dbm=40.0, timer_ms=timer_ms),
               TtiFeedback(np.int64(31), measured_power_dbm=40.0), t, cfg, PM5)


@pytest.mark.parametrize("timer_ms", [0.0, 30.0])  # next step inside / past 20 ms
@pytest.mark.parametrize("bad", [2.0, True, (5, 7), None])
def test_on_tti_rejects_a_report_that_is_neither_an_index_nor_mimo_feedback(timer_ms, bad):
    # a float used to fail with an AttributeError, and True was served
    # as CQI 1
    assert_rejected_unchanged(timer_ms, bad, default_table(), ControllerConfig(),
                              match=rf"feedback.cqi .* got {re.escape(repr(bad))}")


def test_on_tti_rejects_a_negative_timer_inside_the_minimum_interval():
    cfg = ControllerConfig()
    # -8 ms after the step
    assert_rejected_unchanged(-10.0, 5, default_table(), cfg, match="timer")


@pytest.mark.parametrize("timer_ms", [0.0, 30.0])  # next step inside / past 20 ms
def test_on_tti_rejects_a_nan_measured_power_and_keeps_its_state(timer_ms):
    # a NaN measurement used to reconfigure the state to NaN dBm
    st = ControllerState(power_dbm=40.0, offset_db=0.25, timer_ms=timer_ms, ee_smoothed=1e6)
    before = replace(st)
    with pytest.raises(ValueError, match="power nan dBm"):
        on_tti(st, TtiFeedback(5, (False,), float("nan"), 2e6), default_table(),
               ControllerConfig(), PM5)
    assert st == before


@pytest.mark.parametrize("cqi", [0, 31])
def test_amc_level_rejects_a_cqi_outside_the_table(cqi):
    # CQI 0 used to read the top threshold and serve level 30, and CQI
    # 31 raised an IndexError
    t = default_table()
    assert len(t) == 30
    with pytest.raises(ValueError, match=f"cqi index {cqi} outside 1..30"):
        amc_level(t, cqi, 0.0, 1)


def test_on_tti_amc_follows_offset_backoff():
    cfg = ControllerConfig()
    t = default_table()  # thresholds -4.5 + (cqi-1)
    best = select_optimal(40.0, 20, 1.2, t, cfg, PM5)
    st = ControllerState(
        power_dbm=40.0, offset_db=1.2, ee_smoothed=best.ee, timer_ms=0.0
    )
    st, dec = on_tti(st, TtiFeedback(cqi=20, measured_power_dbm=40.0), t, cfg, PM5)
    assert dec.action == KEEP
    # supportable = beta_20 - 1.2 lands between beta_18 and beta_19
    assert dec.levels == (18,)


def test_on_tti_amc_compensates_power_changes():
    cfg = ControllerConfig()
    t = default_table()
    best = select_optimal(38.0, 20, 0.0, t, cfg, PM5)
    st = ControllerState(
        power_dbm=40.0, offset_db=0.0, ee_smoothed=best.ee * 2, timer_ms=0.0
    )
    st, dec = on_tti(st, TtiFeedback(cqi=20, measured_power_dbm=38.0), t, cfg, PM5)
    assert dec.action == KEEP
    # report taken 2 dB below current power: two extra levels supportable
    assert dec.levels == (22,)


def test_on_tti_serve_respects_min_mcs():
    cfg = ControllerConfig(min_mcs=4)
    t = default_table()
    st = ControllerState(
        power_dbm=40.0, offset_db=5.9, ee_smoothed=1e12, timer_ms=0.0
    )
    st, dec = on_tti(st, TtiFeedback(cqi=3, measured_power_dbm=40.0), t, cfg, PM5)
    assert dec.action == KEEP
    assert dec.levels == (4,)


def test_joint_adjustment_preserves_decode_margin():
    # moving power and MCS together must leave the SINR margin over the
    # serving threshold untouched on a frozen channel
    t = default_table()
    ch = ChannelParams(i_or_w=5.6e-11, i_oc_w=1.2e-13, alpha=0.995, distance_m=500.0)
    g = ch.path_gain_lin * 1.37
    p_old = 40.5
    i = 18
    margin_old = hs_sinr_db(dbm_to_watt(p_old), g, ch) - t.threshold(i)
    for j in (5, 12, 25, 30):
        p_new = estimate_power_for_mcs(p_old, i, j, t, 0.0)
        margin_new = hs_sinr_db(dbm_to_watt(p_new), g, ch) - t.threshold(j)
        assert margin_new == pytest.approx(margin_old, abs=1e-9)
