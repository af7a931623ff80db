"""The per-TTI searches against their former whole-table numpy bodies.

select_optimal, select_optimal_dual and the 2x2 report search used to
evaluate every candidate with numpy on each call. Those bodies are kept
here, unchanged, as oracles: the scalar searches must return the same
results bit for bit (floats compared by their hex form) on generated
tables, power models, clamps and reports, on the exact float where the
oracle's argmax flips between two levels, and one ulp to either side.

The other way round, the scalar forms are the oracles of what skips
them: the vectorised report list of a FixedBaseline run, single-stream
or 2x2, must equal the scalar report at every TTI, and on_tti must
step like a controller written out from its parts, selecting on every
report in range.
"""

import dataclasses
import math
from collections import Counter
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hsdpa_ee import ee_controller, mimo_dtxaa
from hsdpa_ee.ee_controller import (
    KEEP,
    RECONFIGURE,
    ControllerConfig,
    ControllerDecision,
    ControllerState,
    OptimalSelection,
    TtiFeedback,
    _level_search,
    amc_level,
    on_tti,
    relative_ee_difference,
    select_optimal,
    should_trigger,
    update_offset,
)
from hsdpa_ee.mcs_table import McsEntry, McsTable, reference_table
from hsdpa_ee.mimo_dtxaa import (
    DUAL,
    DualSelection,
    MimoFeedback,
    _pair_search,
    enumerate_equal_delta_pairs,
    estimate_dual_power,
    select_optimal_dual,
)
from hsdpa_ee.power_model import PowerModelParams
from hsdpa_ee.sim_engine import (
    _HALF_DB,
    MIMO,
    SINGLE,
    _mimo_hypothesis,
    _mimo_view,
    _single_stream_view,
    power_model_for_mode,
)

SETTINGS = settings(
    max_examples=200,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------- oracles


def oracle_select_optimal(p_dbm, feedback_cqi, delta_db, table, cfg, pm):
    if feedback_cqi < 1 or feedback_cqi > len(table.entries):
        raise ValueError("feedback_cqi must be a valid table index")
    thr = table.thresholds_db
    p_each = p_dbm + thr - thr[feedback_cqi - 1] + delta_db
    p_w = 10.0 ** ((p_each - 30.0) / 10.0)
    ee_each = table.tbs_bits / ((cfg.tti_ms * 1e-3) * (p_w / pm.eta + pm.overhead_w))

    n = len(thr)
    affordable = int(p_each.searchsorted(cfg.p_max_dbm, side="right"))
    p_min_est = float(p_each[cfg.min_mcs - 1])
    if p_min_est > cfg.p_max_dbm:
        theta = max(affordable, 1)
        return OptimalSelection(theta, cfg.p_max_dbm, float(ee_each[theta - 1]), True)

    theta_max = min(affordable, n)
    j_star = int(ee_each.argmax()) + 1
    theta = min(max(j_star, cfg.min_mcs), theta_max)
    return OptimalSelection(theta, float(p_each[theta - 1]), float(ee_each[theta - 1]), False)


def oracle_select_optimal_dual(p_dbm, feedback, delta_db, table, cfg, pm):
    if feedback.mode != DUAL:
        raise ValueError("dual-stream selection needs dual-mode feedback")
    i1, i2 = feedback.cqi_primary, feedback.cqi_secondary
    pairs = enumerate_equal_delta_pairs(i1, i2, table)
    powers = np.array([estimate_dual_power(p_dbm, i1, j1, table, delta_db) for j1, _ in pairs])
    order = np.argsort(powers, kind="stable")
    pairs = [pairs[k] for k in order]
    powers = powers[order]
    tbs_sum = np.array([table.tbs(a) + table.tbs(b) for a, b in pairs], dtype=float)
    p_w = 10.0 ** ((powers - 30.0) / 10.0)
    ee = tbs_sum / ((cfg.tti_ms * 1e-3) * (p_w / pm.eta + pm.overhead_w))

    admissible = [min(a, b) >= cfg.min_mcs for a, b in pairs]
    pos_min = next((k for k, ok in enumerate(admissible) if ok), None)
    affordable = int(np.searchsorted(powers, cfg.p_max_dbm, side="right"))
    if pos_min is None or powers[pos_min] > cfg.p_max_dbm:
        pos = affordable - 1 if affordable >= 1 else 0
        return DualSelection(pairs[pos], cfg.p_max_dbm, float(ee[pos]), True)
    pos_max = affordable - 1
    pos_star = int(np.argmax(ee))
    pos = min(max(pos_star, pos_min), pos_max)
    return DualSelection(pairs[pos], float(powers[pos]), float(ee[pos]), False)


def oracle_mimo_hypothesis(thr_arr, tbs_arr, a1, a2, a_single, t, p_dbm):
    off = p_dbm - 30.0
    c_single = np.searchsorted(thr_arr, a_single[:, t] + off, side="right")
    t_single = np.where(c_single > 0, tbs_arr[np.maximum(c_single - 1, 0)], 0)
    c1 = np.searchsorted(thr_arr, a1[:, t] + (off - _HALF_DB), side="right")
    c2 = np.searchsorted(thr_arr, a2[:, t] + (off - _HALF_DB), side="right")
    live = (c1 > 0) & (c2 > 0)
    t_dual = np.where(
        live, tbs_arr[np.maximum(c1 - 1, 0)] + tbs_arr[np.maximum(c2 - 1, 0)], -1
    )
    cat = np.concatenate([t_single, t_dual])
    k = int(np.argmax(cat))
    if k < 4:
        return SINGLE, k, int(c_single[k]), 0
    k -= 4
    return DUAL, k, int(c1[k]), int(c2[k])


def bits_of(selection):
    """Every field, floats by their exact bits, plus the float types."""
    if dataclasses.is_dataclass(selection):
        selection = dataclasses.astuple(selection)
    return tuple(
        (type(v).__name__, v.hex() if isinstance(v, float) else v) for v in selection
    )


def assert_same(got, want):
    assert bits_of(got) == bits_of(want), (got, want)


# ------------------------------------------------------------- strategies


@st.composite
def tables(draw, max_levels=30):
    n = draw(st.integers(2, max_levels))
    first = draw(st.floats(-12.0, 12.0))
    gap = st.one_of(st.just(1e-9), st.floats(1e-9, 1e-4), st.floats(0.05, 3.0))
    thr = list(accumulate([first] + draw(st.lists(gap, min_size=n - 1, max_size=n - 1))))
    step = st.one_of(st.just(0), st.integers(1, 4000))
    tbs = list(
        accumulate(
            [draw(st.integers(1, 3000))] + draw(st.lists(step, min_size=n - 1, max_size=n - 1))
        )
    )
    return McsTable(tuple(McsEntry(k + 1, thr[k], tbs[k], 2, 1) for k in range(n)))


power_models = st.builds(
    PowerModelParams,
    eta=st.floats(0.05, 1.0),
    p_cir_w=st.one_of(st.just(0.0), st.floats(0.01, 60.0)),
    p_sta_w=st.one_of(st.just(0.0), st.floats(0.01, 600.0)),
    m_a=st.sampled_from([1, 2]),
)


def calls(rng, table, count):
    """Random reports, offsets, budgets and floors on one table; budgets
    low enough for infeasible selections and floors above the optimum."""
    n = len(table)
    for _ in range(count):
        cfg = ControllerConfig(
            p_max_dbm=float(rng.uniform(-10.0, 70.0)),
            min_mcs=int(rng.integers(1, n + 1)),
        )
        yield (float(rng.uniform(-20.0, 70.0)), int(rng.integers(1, n + 1)),
               float(rng.uniform(-6.0, 6.0)), cfg)


# ------------------------------------------------------- select_optimal


@SETTINGS
@given(tables(), power_models, st.integers(0, 2**32 - 1))
def test_select_optimal_matches_numpy_oracle(table, pm, seed):
    for p, i, delta, cfg in calls(np.random.default_rng(seed), table, 40):
        call = (p, i, delta, table, cfg, pm)
        assert_same(select_optimal(*call), oracle_select_optimal(*call))


def flip_point(value_at, lo, hi):
    """Adjacent floats lo < hi with value_at(lo) != value_at(hi), by
    bisection from a bracket whose ends already differ."""
    v_lo = value_at(lo)
    assert v_lo != value_at(hi)
    while math.nextafter(lo, math.inf) < hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            mid = math.nextafter(lo, math.inf)
        if value_at(mid) == v_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def around(*xs):
    for x in xs:
        yield from (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tables(), power_models, st.data())
def test_select_optimal_on_and_beside_every_breakpoint(table, pm, data):
    n = len(table)
    i = data.draw(st.integers(1, n))
    ref = table.threshold(i)
    cfg = ControllerConfig(p_max_dbm=1e4, min_mcs=1)
    search = _level_search(table, pm)

    def argmax_at(p):
        return oracle_select_optimal(p, i, 0.0, table, cfg, pm).mcs

    # the search works in x = p - ref; its interval edges, moved to p
    edges = [x + ref for x in search.starts[1:] + search.ends[:-1]]
    points = list(around(*edges))
    for k in range(len(search.winners) - 1):
        lo, hi = flip_point(argmax_at, search.ends[k] + ref, search.starts[k + 1] + ref)
        points.extend(around(lo, hi))
    for p in points:
        assert_same(select_optimal(p, i, 0.0, table, cfg, pm),
                    oracle_select_optimal(p, i, 0.0, table, cfg, pm))


def test_reference_table_has_eight_optimal_levels():
    for m_a in (1, 2):
        search = _level_search(reference_table(), PowerModelParams(m_a=m_a))
        assert len(search.winners) == 8
        assert search.starts[0] == -math.inf and search.ends[-1] == math.inf


def test_zero_overhead_argmax_ignores_power():
    # without circuit or site power every level's energy scales alike
    # with x, so one level is optimal at every power
    pm = PowerModelParams(p_cir_w=0.0, p_sta_w=0.0)
    table = reference_table()
    cfg = ControllerConfig(p_max_dbm=1e4)
    chosen = {select_optimal(p, 15, 0.0, table, cfg, pm).mcs for p in np.linspace(-30, 90, 241)}
    assert len(chosen) == 1
    rng = np.random.default_rng(4)
    for _ in range(2000):
        call = (float(rng.uniform(-30, 90)), int(rng.integers(1, 31)),
                float(rng.uniform(-6, 6)), table,
                ControllerConfig(p_max_dbm=float(rng.uniform(0, 60)),
                                 min_mcs=int(rng.integers(1, 31))), pm)
        assert_same(select_optimal(*call), oracle_select_optimal(*call))


def test_select_optimal_randomized_covers_every_branch():
    rng = np.random.default_rng(31)
    table = reference_table()
    pms = (PowerModelParams(), PowerModelParams(m_a=2), PowerModelParams(p_cir_w=0.0, p_sta_w=0.0))
    seen = {"infeasible": 0, "lower": 0, "upper": 0, "free": 0}
    for k in range(6000):
        cfg = ControllerConfig(p_max_dbm=float(rng.uniform(15.0, 50.0)),
                               min_mcs=int(rng.integers(1, 31)))
        call = (float(rng.uniform(0.0, 50.0)), int(rng.integers(1, 31)),
                float(rng.uniform(-6.0, 6.0)), table, cfg, pms[k % 3])
        got = select_optimal(*call)
        assert_same(got, oracle_select_optimal(*call))
        if got.infeasible:
            seen["infeasible"] += 1
        elif got.mcs == cfg.min_mcs:
            seen["lower"] += 1
        elif select_optimal(call[0], call[1], call[2], table,
                            ControllerConfig(p_max_dbm=1e4), call[5]).mcs > got.mcs:
            seen["upper"] += 1
        else:
            seen["free"] += 1
    assert min(seen.values()) >= 100, seen


def test_select_optimal_rejects_min_mcs_beyond_table():
    with pytest.raises(ValueError):
        select_optimal(40.0, 5, 0.0, reference_table(), ControllerConfig(min_mcs=31),
                       PowerModelParams())


def test_estimate_ee_is_the_selectors_formula():
    # select_optimal writes both estimates out inline; its power and EE
    # must be theirs bit for bit, which ties criterion 03 to the selector
    table = reference_table()
    cfg = ControllerConfig(p_max_dbm=1e4)
    pm = PowerModelParams()
    for p in np.linspace(10.0, 45.0, 71):
        got = select_optimal(float(p), 12, 0.0, table, cfg, pm)
        assert not got.infeasible
        want_p = ee_controller.estimate_power_for_mcs(float(p), 12, got.mcs, table, 0.0)
        assert got.power_dbm.hex() == want_p.hex()
        assert got.ee == ee_controller.estimate_ee(got.power_dbm, table.tbs(got.mcs), pm)


def test_search_cache_is_bounded_and_transparent():
    # level and pair searches share one cache; a fresh power model per
    # call fills it past its limit, so it is cleared along the way
    table = reference_table()
    cfg = ControllerConfig()
    fb = MimoFeedback(DUAL, 0, 15, 12)
    want = select_optimal(40.0, 15, 0.2, table, cfg, PowerModelParams())
    want_dual = select_optimal_dual(40.0, fb, 0.2, table, cfg, PowerModelParams(m_a=2))
    for _ in range(ee_controller._CACHE_LIMIT + 5):
        got = select_optimal(40.0, 15, 0.2, table, cfg, PowerModelParams())
        got_dual = select_optimal_dual(40.0, fb, 0.2, table, cfg, PowerModelParams(m_a=2))
        assert got == want
        assert got_dual == want_dual
        assert len(ee_controller._searches) <= ee_controller._CACHE_LIMIT
    assert {len(key) for key in ee_controller._searches} == {2, 4}  # (table, pm[, i1, i2])


def test_every_pair_search_of_one_table_fits_the_cache(monkeypatch):
    # a 30-level table has 900 dual reports: with the level search they
    # all fit, so a run that meets every report builds each search once
    table = reference_table()
    cfg = ControllerConfig()
    pm = PowerModelParams(m_a=2)
    builds = Counter()

    def counting(key, *args, _build=mimo_dtxaa._build_search):
        builds[key[2:]] += 1
        return _build(key, *args)

    monkeypatch.setattr(mimo_dtxaa, "_build_search", counting)
    ee_controller._searches.clear()
    pairs = [(i1, i2) for i1 in range(1, len(table) + 1) for i2 in range(1, len(table) + 1)]
    assert len(pairs) + 1 <= ee_controller._CACHE_LIMIT
    select_optimal(40.0, 15, 0.2, table, cfg, pm)
    for _ in range(2):
        for i1, i2 in pairs:
            select_optimal_dual(40.0, MimoFeedback(DUAL, 0, i1, i2), 0.2, table, cfg, pm)
    assert builds == Counter(pairs)
    assert (id(table), id(pm)) in ee_controller._searches  # the level search stayed


def test_sweep_runs_share_one_power_model_per_mode():
    # the searches are cached per power model object, so every 2x2 run of
    # a sweep must get the same one
    base = PowerModelParams()
    assert power_model_for_mode(MIMO, base) is power_model_for_mode(MIMO, PowerModelParams())


# --------------------------------------------------- select_optimal_dual


@SETTINGS
@given(tables(), power_models, st.integers(0, 2**32 - 1))
def test_select_optimal_dual_matches_numpy_oracle(table, pm, seed):
    rng = np.random.default_rng(seed)
    n = len(table)
    for p, i1, delta, cfg in calls(rng, table, 40):
        fb = MimoFeedback(DUAL, 0, i1, int(rng.integers(1, n + 1)))
        call = (p, fb, delta, table, cfg, pm)
        assert_same(select_optimal_dual(*call), oracle_select_optimal_dual(*call))


def test_select_optimal_dual_with_candidates_at_one_power():
    # thresholds 0 and 5e-14 dB apart round to equal power shifts, so
    # the report (1, 1) has four pairs at one offset: [(1,1), (2,2),
    # (2,3), (3,2), (3,3), (4,4)] at [0, 2000, 2000, 2000, 2000, 2002]
    table = McsTable(tuple(
        McsEntry(k + 1, thr, tbs, 2, 1)
        for k, (thr, tbs) in enumerate(zip((-1000.0, 0.0, 5e-14, 1.0), (100, 300, 300, 900)))
    ))
    pm = PowerModelParams(m_a=2)
    fb = MimoFeedback(DUAL, 0, 1, 1)
    pairs = enumerate_equal_delta_pairs(1, 1, table)
    assert pairs == [(1, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]
    assert [estimate_dual_power(0.0, 1, j1, table) for j1, _ in pairs] == [
        0.0, 2000.0, 2000.0, 2000.0, 2000.0, 2002.0]
    search = _pair_search(table, pm, 1, 1)
    edges = search.starts[1:] + search.ends[:-1]
    powers = [*np.linspace(-2100.0, -1900.0, 401).tolist(), *around(*edges)]
    for p in powers:
        for delta in (-0.5, 0.0, 0.5):
            for min_mcs in (1, 2, 3):
                for p_max in (43.0, -500.0):
                    cfg = ControllerConfig(p_max_dbm=p_max, min_mcs=min_mcs)
                    call = (p, fb, delta, table, cfg, pm)
                    assert_same(select_optimal_dual(*call), oracle_select_optimal_dual(*call))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tables(), power_models, st.data())
def test_select_optimal_dual_on_and_beside_every_breakpoint(table, pm, data):
    n = len(table)
    fb = MimoFeedback(DUAL, 0, data.draw(st.integers(1, n)), data.draw(st.integers(1, n)))
    cfg = ControllerConfig(p_max_dbm=1e4, min_mcs=1)
    search = _pair_search(table, pm, fb.cqi_primary, fb.cqi_secondary)

    def select(select_fn, p):
        return select_fn(p, fb, 0.0, table, cfg, pm)

    points = list(around(*search.starts[1:], *search.ends[:-1]))
    for k in range(len(search.winners) - 1):
        lo, hi = flip_point(lambda p: select(oracle_select_optimal_dual, p).pair,
                            search.ends[k], search.starts[k + 1])
        points.extend(around(lo, hi))
    for p in points:
        assert_same(select(select_optimal_dual, p), select(oracle_select_optimal_dual, p))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables(), st.data())
def test_pair_enumeration_is_in_ascending_power_order(table, data):
    # the invariant that lets select_optimal_dual skip sorting the pairs
    # by their power estimate
    n = len(table)
    i1, i2 = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    p, delta = data.draw(st.floats(-20.0, 70.0)), data.draw(st.floats(-6.0, 6.0))
    pairs = enumerate_equal_delta_pairs(i1, i2, table)
    powers = [estimate_dual_power(p, i1, j1, table, delta) for j1, _ in pairs]
    assert (i1, i2) in pairs
    assert all(a <= b for a, b in zip(powers, powers[1:]))


# ------------------------------------------------- 2x2 hypothesis search


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables(), st.data())
def test_mimo_hypothesis_matches_numpy_oracle(table, data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    T = 40
    a1 = rng.uniform(-25.0, 35.0, size=(4, T))
    a2 = a1 - rng.uniform(0.0, 20.0, size=(4, T))
    a_single = a1 + rng.uniform(0.0, 6.0, size=(4, T))
    for a in (a1, a2, a_single):
        a[rng.random((4, T)) < 0.05] = -np.inf  # a stream nulled to zero gain
    thr, tbs = table.thresholds_db, np.array(table._tbs_list)
    lists = (a1.tolist(), a2.tolist(), a_single.tolist())
    for t in range(T):
        p_dbm = float(rng.uniform(0.0, 50.0))
        want = oracle_mimo_hypothesis(thr, tbs, a1, a2, a_single, t, p_dbm)
        got = _mimo_hypothesis(table._thr_list, table._tbs_list, *lists, t, p_dbm)
        assert got == want
        assert all(type(v) is type(w) for v, w in zip(got, want))


# ------------------------------------------- FixedBaseline report lists


def assert_same_reports(got, want):
    """Equal report lists, with the same Python types field by field."""
    assert got == want
    assert all(type(v) is type(w) for g, r in zip(got, want) for v, w in zip(g, r))


def at_thresholds(rng, c, table, p_dbm):
    """Put some constants where (p - 30) + c lands on a threshold, or an
    ulp beside it, so the searches meet their ties."""
    hit = rng.random(c.shape) < 0.2
    c[hit] = rng.choice(table.thresholds_db, size=int(hit.sum())) - (p_dbm - 30.0)


fixed_powers = st.one_of(st.floats(0.0, 50.0), st.integers(0, 50))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables(), fixed_powers, st.data())
def test_mimo_fixed_reports_match_scalar_report(table, p_dbm, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    T = 60
    a1 = rng.uniform(-25.0, 35.0, size=(4, T))
    a2 = a1 - rng.uniform(0.0, 20.0, size=(4, T))
    a_single = a1 + rng.uniform(0.0, 6.0, size=(4, T))
    for a in (a1, a2, a_single):
        at_thresholds(rng, a, table, p_dbm)
        a[rng.random((4, T)) < 0.05] = -np.inf  # a stream nulled to zero gain
    link = _mimo_view(table, np.stack([a1, a2, a_single]).tolist())
    reports = link.fixed_reports(p_dbm)
    assert_same_reports(reports, [link.report(t, p_dbm) for t in range(T)])
    thr, tbs = table.thresholds_db, np.array(table._tbs_list)
    for t, report in enumerate(reports):
        assert report[:4] == oracle_mimo_hypothesis(thr, tbs, a1, a2, a_single, t, p_dbm)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(tables(), fixed_powers, st.data())
def test_single_stream_fixed_reports_match_scalar_report(table, p_dbm, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    T = 60
    c = rng.uniform(-25.0, 35.0, size=T)
    at_thresholds(rng, c, table, p_dbm)
    c[rng.random(T) < 0.05] = -np.inf  # a deep fade, out of range
    link = _single_stream_view(table, c.tolist())
    assert_same_reports(link.fixed_reports(p_dbm), [link.report(t, p_dbm) for t in range(T)])


# ------------------------------------------- on_tti against its parts


def reference_on_tti(state, feedback, table, cfg, pm, select):
    """on_tti as a step that calls select on every in-range report."""
    state.timer_ms += cfg.tti_ms
    for ack in feedback.acks:
        update_offset(state, ack, cfg)
    if feedback.realized_ee is not None:
        state.ee_smoothed += cfg.ee_smoothing * (feedback.realized_ee - state.ee_smoothed)
    report = feedback.cqi
    reported = (report,) if isinstance(report, int) else (
        report.cqi_primary, report.cqi_secondary)
    if reported[0] < 1:
        return state, ControllerDecision(KEEP, state.power_dbm, ())
    measured_p = (state.power_dbm if feedback.measured_power_dbm is None
                  else feedback.measured_power_dbm)
    best = select(measured_p, report, state.offset_db, table, cfg, pm)
    if should_trigger(
        relative_ee_difference(best.ee, state.ee_smoothed), state.timer_ms, cfg
    ):
        state.power_dbm = best.power_dbm
        state.timer_ms = 0.0
        return state, ControllerDecision(
            RECONFIGURE, best.power_dbm, best.levels, best.ee, best.infeasible)
    shift = (state.power_dbm - measured_p) - state.offset_db
    levels = tuple(amc_level(table, c, shift, cfg.min_mcs) for c in reported)
    return state, ControllerDecision(KEEP, state.power_dbm, levels, best.ee, best.infeasible)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(tables(), power_models, st.data())
def test_on_tti_equals_a_step_that_always_selects(table, pm, data):
    n = len(table)
    min_ms = data.draw(st.one_of(st.sampled_from([0.0, 4.0, 20.0]), st.floats(0.0, 60.0)))
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
    state = ControllerState(
        power_dbm=data.draw(st.floats(0.0, 50.0)),
        offset_db=data.draw(st.floats(-6.0, 6.0)),
        timer_ms=data.draw(st.one_of(st.just(0.0), st.floats(0.0, cfg.max_reconfig_interval_ms))),
        ee_smoothed=data.draw(st.floats(0.0, 1e9)),
    )
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    calls = []

    def counting(*args):
        calls.append(args)
        return select(*args)

    for _ in range(40):
        cqi = int(rng.integers(0, n + 1)) if rng.random() < 0.9 else 0
        if dual:
            cqi = MimoFeedback(DUAL, int(rng.integers(0, 4)), cqi, int(rng.integers(1, n + 1)))
        feedback = TtiFeedback(
            cqi,
            tuple(bool(a) for a in rng.random(int(rng.integers(0, 3))) < 0.8),
            None if rng.random() < 0.3 else float(rng.uniform(0.0, 50.0)),
            None if rng.random() < 0.3 else float(rng.uniform(0.0, 1e9)),
        )
        want_state, want = reference_on_tti(
            dataclasses.replace(state), feedback, table, cfg, pm, select
        )
        calls.clear()
        state, got = on_tti(state, feedback, table, cfg, pm, counting)
        assert got == want
        assert state == want_state
        in_range = (cqi if isinstance(cqi, int) else cqi.cqi_primary) >= 1
        assert len(calls) == in_range
