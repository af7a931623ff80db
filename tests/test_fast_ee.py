"""The selectors' and on_tti's fast EE (exact_ee=False) against the exact one.

With exact_ee=False the chosen candidate's efficiency takes its power
from ** instead of np.power. Everything else must stay as it is: the
item, power and infeasible flag of a selection, and on_tti's state,
action, power and levels, with the efficiency within EE_REL of the
exact one. The
trigger is decided on np.power's efficiency by construction: a gap
within _TIE_MARGIN of the threshold is selected again exactly, which the
directed tests at the end pin.
"""

import dataclasses
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_selector_oracles import around, calls, power_models, tables

from hsdpa_ee.ee_controller import (
    RECONFIGURE,
    _TIE_MARGIN,
    ControllerConfig,
    ControllerState,
    TtiFeedback,
    _level_search,
    on_tti,
    relative_ee_difference,
    select_optimal,
    should_trigger,
)
from hsdpa_ee.mcs_table import reference_table
from hsdpa_ee.mimo_dtxaa import DUAL, MimoFeedback, _pair_search, select_optimal_dual
from hsdpa_ee.power_model import PowerModelParams

SETTINGS = settings(max_examples=150, deadline=None, derandomize=True)

# The relative distance allowed between a fast and an exact efficiency.
# The two powers differ by at most an ulp, 2^-52 relative, and each of
# the formula's four roundings adds at most 2^-53 on either side. Zero
# overhead passes the power's difference on whole; generated cases
# reached 2.9 * 2^-52, five ulps of a result at the bottom of its binade.
EE_REL = 5 * 2.0**-52


def assert_close_ee(got, want):
    assert abs(got - want) <= EE_REL * want, (got, want)


def assert_close(got, want):
    """Equal but for ee, which is within EE_REL; floats by their bits."""
    assert got[0] == want[0] and got[1].hex() == want[1].hex() and got[3] is want[3], (got, want)
    assert_close_ee(got.ee, want.ee)


def both(selector, *call):
    """selector's fast and exact results on one call."""
    return selector(*call, exact_ee=False), selector(*call)


def edge_points(search, ref=0.0):
    """Powers on and beside the search's interval edges: at an edge the
    interval names the winner, beside it every candidate is evaluated."""
    return list(around(*(x + ref for x in search.starts[1:] + search.ends[:-1])))


@SETTINGS
@given(tables(), power_models, st.integers(0, 2**32 - 1))
def test_fast_select_optimal_matches_the_exact_one(table, pm, seed):
    rng = np.random.default_rng(seed)
    for p, i, delta, cfg in calls(rng, table, 40):
        assert_close(*both(select_optimal, p, i, delta, table, cfg, pm))
    i = int(rng.integers(1, len(table) + 1))
    cfg = ControllerConfig(p_max_dbm=1e4)
    for p in edge_points(_level_search(table, pm), table.threshold(i)):
        assert_close(*both(select_optimal, p, i, 0.0, table, cfg, pm))


@SETTINGS
@given(tables(), power_models, st.integers(0, 2**32 - 1))
def test_fast_select_optimal_dual_matches_the_exact_one(table, pm, seed):
    rng = np.random.default_rng(seed)
    n = len(table)
    for p, i1, delta, cfg in calls(rng, table, 40):
        fb = MimoFeedback(DUAL, 0, i1, int(rng.integers(1, n + 1)))
        assert_close(*both(select_optimal_dual, p, fb, delta, table, cfg, pm))
    fb = MimoFeedback(DUAL, 0, int(rng.integers(1, n + 1)), int(rng.integers(1, n + 1)))
    cfg = ControllerConfig(p_max_dbm=1e4)
    for p in edge_points(_pair_search(table, pm, fb.cqi_primary, fb.cqi_secondary)):
        assert_close(*both(select_optimal_dual, p, fb, 0.0, table, cfg, pm))


def branch(search, x, selection):
    """Which way _select went at x = p - ref + delta."""
    if selection.infeasible:
        return "infeasible"
    k = bisect_right(search.starts, x) - 1
    return "interval" if k >= 0 and x <= search.ends[k] else "every candidate"


def test_the_generated_calls_take_every_branch():
    # the calls the properties draw, on the reference table: each of
    # _select's three ways to an ee is compared above
    table = reference_table()
    seen = {"infeasible": 0, "interval": 0, "every candidate": 0}
    rng = np.random.default_rng(8)
    for pm in (PowerModelParams(), PowerModelParams(p_cir_w=0.0, p_sta_w=0.0)):
        search = _level_search(table, pm)
        for p, i, delta, cfg in calls(rng, table, 300):
            got = select_optimal(p, i, delta, table, cfg, pm)
            seen[branch(search, p - table.threshold(i) + delta, got)] += 1
        cfg = ControllerConfig(p_max_dbm=1e4)
        for i in (5, 10, 20):
            for p in edge_points(search, table.threshold(i)):
                got = select_optimal(p, i, 0.0, table, cfg, pm)
                seen[branch(search, p - table.threshold(i), got)] += 1
    assert min(seen.values()) >= 20, seen


def test_a_power_past_the_float_range_takes_np_powers_ee():
    # ** raises OverflowError beyond 1e308 W, where np.power gives inf W
    # and so an ee of 0
    cfg = ControllerConfig(p_max_dbm=5000.0)
    with pytest.warns(RuntimeWarning, match="overflow"):
        got, want = both(select_optimal, 3500.0, 1, 0.0, reference_table(), cfg,
                         PowerModelParams())
    assert got == want and want.ee == 0.0


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tables(), power_models, st.data())
def test_fast_on_tti_steps_like_the_exact_one(table, pm, data):
    n = len(table)
    min_ms = data.draw(st.sampled_from([0.0, 4.0, 20.0]))
    cfg = ControllerConfig(
        p_max_dbm=data.draw(st.floats(-10.0, 70.0)),
        min_mcs=data.draw(st.integers(1, n)),
        ee_gap_threshold=data.draw(st.floats(0.01, 0.99)),
        min_reconfig_interval_ms=min_ms,
        max_reconfig_interval_ms=5.0 * min_ms + data.draw(st.floats(0.0, 100.0)),
        ee_smoothing=data.draw(st.floats(0.01, 1.0)),
    )
    dual = data.draw(st.booleans())
    select = select_optimal_dual if dual else select_optimal
    fast = ControllerState(
        power_dbm=data.draw(st.floats(0.0, 50.0)),
        offset_db=data.draw(st.floats(-6.0, 6.0)),
        timer_ms=data.draw(st.floats(0.0, cfg.max_reconfig_interval_ms)),
        ee_smoothed=data.draw(st.floats(0.0, 1e9)),
    )
    exact = dataclasses.replace(fast)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(40):
        cqi = int(rng.integers(0, n + 1))
        if dual:
            cqi = MimoFeedback(DUAL, 0, cqi, int(rng.integers(1, n + 1)))
        feedback = TtiFeedback(
            cqi,
            tuple(bool(a) for a in rng.random(int(rng.integers(0, 3))) < 0.8),
            None if rng.random() < 0.3 else float(rng.uniform(0.0, 50.0)),
            None if rng.random() < 0.3 else float(rng.uniform(0.0, 1e9)),
        )
        fast, got = on_tti(fast, feedback, table, cfg, pm, select, exact_ee=False)
        exact, want = on_tti(exact, feedback, table, cfg, pm, select)
        assert fast == exact
        assert got._replace(estimated_ee=0.0) == want._replace(estimated_ee=0.0)
        assert_close_ee(got.estimated_ee, want.estimated_ee)


# ---------------------------------------------------- the guard band


PM = PowerModelParams()


def counting(log):
    """select_optimal that logs each call's keywords."""
    def select(*args, **kwargs):
        log.append(kwargs)
        return select_optimal(*args, **kwargs)
    return select


def step_both(state, cfg, p_dbm, cqi):
    """on_tti in fast and exact mode from copies of state, on one
    report measured at p_dbm; returns both steps and the fast step's
    select calls."""
    log = []
    feedback = TtiFeedback(cqi, (), p_dbm, None)
    fast = on_tti(dataclasses.replace(state), feedback, reference_table(), cfg, PM,
                  counting(log), exact_ee=False)
    exact = on_tti(dataclasses.replace(state), feedback, reference_table(), cfg, PM)
    return fast, exact, log


def test_a_gap_at_the_threshold_is_decided_exactly():
    cfg = ControllerConfig()
    ee = select_optimal(36.0, 15, 0.0, reference_table(), cfg, PM).ee
    # past the minimum interval, so the gap decides
    state = ControllerState(power_dbm=36.0, timer_ms=50.0,
                            ee_smoothed=ee * (1.0 - cfg.ee_gap_threshold))
    assert abs(relative_ee_difference(ee, state.ee_smoothed) - cfg.ee_gap_threshold) <= _TIE_MARGIN
    fast, exact, log = step_both(state, cfg, 36.0, 15)
    assert log == [{"exact_ee": False}, {}]  # the fast call, then the exact one
    assert fast == exact
    # off the band the fast selection decides alone
    far = dataclasses.replace(state, ee_smoothed=0.5 * ee)
    fast, exact, log = step_both(far, cfg, 36.0, 15)
    assert log == [{"exact_ee": False}]
    assert fast[0] == exact[0] and fast[1].action == exact[1].action == RECONFIGURE


def gaps_that_straddle():
    """A report, a smoothed EE and the threshold at the exact gap, such
    that the fast gap falls below it: None where this host's np.power
    and ** agree on every power tried."""
    cfg = ControllerConfig()
    for p in np.linspace(30.0, 40.0, 2001).tolist():
        want = select_optimal(p, 15, 0.0, reference_table(), cfg, PM).ee
        got = select_optimal(p, 15, 0.0, reference_table(), cfg, PM, exact_ee=False).ee
        smoothed = 0.7 * want
        gap_exact = relative_ee_difference(want, smoothed)
        gap_fast = relative_ee_difference(got, smoothed)
        if gap_fast != gap_exact:
            threshold = max(gap_fast, gap_exact)
            return p, smoothed, threshold, gap_fast, gap_exact
    return None


def test_a_threshold_between_the_fast_and_exact_gaps_is_decided_exactly():
    found = gaps_that_straddle()
    if found is None:
        pytest.skip("np.power and ** agree on every power tried on this host")
    p, smoothed, threshold, gap_fast, gap_exact = found
    cfg = ControllerConfig(ee_gap_threshold=threshold)
    state = ControllerState(power_dbm=p, timer_ms=50.0, ee_smoothed=smoothed)
    # without the guard band the fast gap alone would decide otherwise
    assert should_trigger(gap_fast, 52.0, cfg) != should_trigger(gap_exact, 52.0, cfg)
    fast, exact, log = step_both(state, cfg, p, 15)
    assert log == [{"exact_ee": False}, {}]
    assert fast == exact
