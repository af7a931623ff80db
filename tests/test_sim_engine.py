"""Tests for the TTI simulation engine.

Energy accounting is re-derived from the power model on raw traces, the
estimation-loss kernel is checked against scipy's Bessel J0, and the
trigger spacing bounds are verified on long runs. Trend-level claims
(gain magnitudes, crossovers) live in the acceptance suite; here we pin
mechanics and determinism.
"""

import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import j0 as scipy_j0

from hsdpa_ee import sim_engine
from hsdpa_ee.ee_controller import (
    RECONFIGURE,
    ControllerConfig,
    TtiFeedback,
    amc_level,
    new_controller_state,
    on_tti,
    select_optimal,
    update_offset,
)
from hsdpa_ee.link_channel import doppler_hz, hs_sinr_db, make_channel, synth_fading
from hsdpa_ee.mcs_table import cqi_from_sinr, reference_table
from hsdpa_ee.mimo_dtxaa import (
    DUAL,
    SINGLE,
    MimoFeedback,
    pci_codebook,
    select_optimal_dual,
    stream_gain_series,
)
from hsdpa_ee.power_model import PowerModelParams, total_power
from hsdpa_ee.sim_engine import (
    FIXED_BASELINE,
    MIMO,
    OUTCOME_ACK,
    OUTCOME_IDLE,
    OUTCOME_MIXED,
    OUTCOME_NACK,
    PER_TTI_OPTIMAL,
    SEMI_STATIC,
    SIMO,
    SISO,
    ScenarioConfig,
    SweepPoint,
    estimation_loss_db,
    power_model_for_mode,
    run,
    sweep,
)
from hsdpa_ee.sim_engine import _derive, _mimo_hypothesis


def make_scenario(**over):
    defaults = dict(
        channel=make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0),
        antenna_mode=SIMO,
        strategy=SEMI_STATIC,
        duration_ttis=2000,
        seed=42,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
    )
    defaults.update(over)
    mode = defaults["antenna_mode"]
    defaults.setdefault("power_model", power_model_for_mode(mode, PowerModelParams()))
    return ScenarioConfig(**defaults)


# ------------------------------------------------------------ config


def test_rejects_unknown_mode_and_strategy():
    with pytest.raises(ValueError):
        make_scenario(antenna_mode="MISO")
    with pytest.raises(ValueError):
        make_scenario(strategy="Genie")


def test_antenna_mode_sets_the_chain_count():
    # the scenario stores power_model_for_mode's object, so the
    # selectors' searches, cached per power-model object, stay shared
    derived = make_scenario(antenna_mode=MIMO, power_model=PowerModelParams(), duration_ttis=600)
    explicit = make_scenario(
        antenna_mode=MIMO,
        power_model=power_model_for_mode(MIMO, PowerModelParams()),
        duration_ttis=600,
    )
    assert derived.power_model is power_model_for_mode(MIMO, PowerModelParams())
    assert derived.power_model.m_a == 2
    assert run(derived) == run(explicit)
    assert replace(derived, antenna_mode=SIMO).power_model.m_a == 1


def test_rejects_bad_durations():
    with pytest.raises(ValueError):
        make_scenario(duration_ttis=0)


@pytest.mark.parametrize("name, value", [
    ("channel", None),
    ("controller", None),
    ("power_model", None),
    ("table", None),
    ("baseline_power_dbm", "40"),
    ("baseline_power_dbm", True),
    ("collect_trace", "no"),
])
def test_rejects_a_field_of_the_wrong_type(name, value):
    # "no" is truthy: it would trace silently, and True would run at
    # 1 dBm; None would fail only when the run first reads the field
    with pytest.raises(ValueError, match=name):
        make_scenario(**{name: value})


def test_power_model_for_mode_sets_chain_count():
    base = PowerModelParams()
    assert power_model_for_mode(SISO, base).m_a == 1
    assert power_model_for_mode(SIMO, base).m_a == 1
    assert power_model_for_mode(MIMO, base).m_a == 2
    # already matching instances pass through untouched
    assert power_model_for_mode(SIMO, base) is base


# ------------------------------------------------------ estimation loss


def test_estimation_loss_matches_scipy_j0():
    for f_d in (1.0, 5.55, 55.5, 222.2, 400.0):
        for w in (1.0 / 1500.0, 2e-3):
            rho = abs(float(scipy_j0(2.0 * np.pi * f_d * w)))
            want = -20.0 * np.log10(max(rho, 0.05))
            got = estimation_loss_db(f_d, w)
            assert got == pytest.approx(want, rel=1e-9)


def test_estimation_loss_limits():
    assert estimation_loss_db(0.0, 1.0 / 1500.0) == 0.0
    assert estimation_loss_db(100.0, 0.0) == 0.0
    # deep decorrelation clips at the floor: -20 log10(0.05) dB
    assert estimation_loss_db(1e4, 1.0) == pytest.approx(26.0205999, abs=1e-6)


def test_estimation_loss_orders_the_standard_speeds():
    w = 1.0 / 1500.0
    losses = [estimation_loss_db(doppler_hz(v, 2e9), w) for v in (3.0, 30.0, 120.0)]
    assert losses[0] < losses[1] < losses[2]
    assert losses[0] < 0.01  # negligible at walking speed
    assert losses[2] > 1.0  # material at vehicular speed


# --------------------------------------------------------- determinism


def test_same_seed_same_trace():
    sc = make_scenario(duration_ttis=1500)
    m1, t1 = run(sc)
    m2, t2 = run(sc)
    assert m1 == m2
    assert t1 == t2


def test_different_seeds_differ():
    m1, _ = run(make_scenario(seed=1))
    m2, _ = run(make_scenario(seed=2))
    assert m1.avg_ee_bits_per_joule != m2.avg_ee_bits_per_joule


def test_single_tti_run_is_idle_warmup():
    # shorter than the feedback delay: nothing can ever be served
    m, trace = run(make_scenario(duration_ttis=2))
    assert m.delivered_bits == 0
    assert all(r.outcome == OUTCOME_IDLE for r in trace)
    assert m.consumed_energy_j > 0.0  # overhead still burns


# ------------------------------------------------------- trace accounting


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
@pytest.mark.parametrize("strategy", [FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL])
def test_energy_re_derives_from_power_model(mode, strategy):
    # bit for bit: the engine's served and idle energy is the selectors'
    # formula, which this states once more from power_model
    sc = make_scenario(
        antenna_mode=mode,
        strategy=strategy,
        duration_ttis=800,
        power_model=power_model_for_mode(mode, PowerModelParams()),
    )
    m, trace = run(sc)
    pm = sc.power_model
    ts = sc.controller.tti_ms * 1e-3
    total = 0.0
    for r in trace:
        if r.outcome == OUTCOME_IDLE:
            want = ts * pm.overhead_w
        else:
            want = ts * total_power(10.0 ** ((r.p_tx_dbm - 30.0) / 10.0), pm)
        assert r.consumed_energy_j == want
        total += r.consumed_energy_j
    assert m.consumed_energy_j == total


def test_metrics_re_derive_from_trace():
    sc = make_scenario(duration_ttis=3000)
    m, trace = run(sc)
    delivered = sum(r.delivered_bits for r in trace)
    assert m.delivered_bits == delivered
    assert m.avg_ee_bits_per_joule == pytest.approx(
        delivered / m.consumed_energy_j, rel=1e-12
    )
    span = sc.duration_ttis * sc.controller.tti_ms * 1e-3
    assert m.throughput_bps == pytest.approx(delivered / span, rel=1e-12)
    assert m.duration_ttis == sc.duration_ttis == len(trace)


def test_nack_rate_counts_attempts():
    m, trace = run(make_scenario(duration_ttis=3000))
    acked = sum(r.outcome == OUTCOME_ACK for r in trace)
    nacked = sum(r.outcome == OUTCOME_NACK for r in trace)
    assert m.nack_rate == pytest.approx(nacked / (acked + nacked), rel=1e-12)


def test_warmup_is_idle_until_first_report():
    _, trace = run(make_scenario(duration_ttis=50))
    d = 3  # default feedback delay
    assert all(trace[t].outcome == OUTCOME_IDLE for t in range(d))
    assert trace[d].outcome != OUTCOME_IDLE


def test_idle_rows_share_their_power_and_energy_objects():
    # so the trace writer's per-object memo hits on idle stretches
    _, trace = run(make_scenario(duration_ttis=50))
    idle = [r for r in trace if r.outcome == OUTCOME_IDLE]
    assert len(idle) >= 3
    assert idle[0].p_tx_dbm == float("-inf")
    assert all(r.p_tx_dbm is idle[0].p_tx_dbm for r in idle)
    assert all(r.consumed_energy_j is idle[0].consumed_energy_j for r in idle)


# ------------------------------------------------------------ baseline


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
def test_baseline_never_reconfigures_and_holds_power(mode):
    sc = make_scenario(
        antenna_mode=mode,
        strategy=FIXED_BASELINE,
        duration_ttis=1200,
        power_model=power_model_for_mode(mode, PowerModelParams()),
    )
    m, trace = run(sc)
    assert m.reconfig_count == 0
    assert not any(r.reconfigured for r in trace)
    served = {r.p_tx_dbm for r in trace if r.outcome != OUTCOME_IDLE}
    assert served == {sc.baseline_power_dbm}


def test_baseline_outer_loop_regulates_error_rate():
    # interior operating point: the offset loop should settle the NACK
    # rate near the 10% design target
    ch = make_channel(1000.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0)
    sc = make_scenario(
        channel=ch, antenna_mode=SISO, strategy=FIXED_BASELINE,
        duration_ttis=30_000, collect_trace=False,
        power_model=power_model_for_mode(SISO, PowerModelParams()),
    )
    m = run(sc)[0]
    assert m.nack_rate == pytest.approx(0.10, abs=0.03)


# ------------------------------------------------------------- triggering


def test_semi_static_trigger_spacing_bounds():
    cfg = ControllerConfig(ee_smoothing=0.01)
    sc = make_scenario(duration_ttis=20_000, controller=cfg)
    _, trace = run(sc)
    marks = np.array([r.tti_index for r in trace if r.reconfigured])
    assert len(marks) > 50
    spacing = np.diff(marks)
    min_ttis = cfg.min_reconfig_interval_ms / cfg.tti_ms
    max_ttis = cfg.max_reconfig_interval_ms / cfg.tti_ms
    assert spacing.min() > min_ttis
    assert spacing.max() <= max_ttis + 1


def test_mimo_semi_static_trigger_spacing_bounds():
    cfg = ControllerConfig(ee_smoothing=0.01)
    sc = make_scenario(
        antenna_mode=MIMO, duration_ttis=6000, controller=cfg,
        power_model=power_model_for_mode(MIMO, PowerModelParams()),
    )
    _, trace = run(sc)
    marks = np.array([r.tti_index for r in trace if r.reconfigured])
    assert len(marks) > 20
    spacing = np.diff(marks)
    assert spacing.min() > cfg.min_reconfig_interval_ms / cfg.tti_ms
    assert spacing.max() <= cfg.max_reconfig_interval_ms / cfg.tti_ms + 1


def test_per_tti_reconfigures_every_served_tti():
    m, trace = run(make_scenario(strategy=PER_TTI_OPTIMAL, duration_ttis=1500))
    served = [r for r in trace if r.outcome != OUTCOME_IDLE]
    assert all(r.reconfigured for r in served)
    assert m.reconfig_count >= len(served)


def test_strategy_ordering_at_the_reference_point():
    # one seed, sanity scale; the statistical version is an acceptance test
    ees = {}
    for strat in (FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL):
        sc = make_scenario(strategy=strat, duration_ttis=8000, seed=5,
                           collect_trace=False)
        ees[strat] = run(sc)[0].avg_ee_bits_per_joule
    assert ees[SEMI_STATIC] > ees[FIXED_BASELINE]
    assert ees[PER_TTI_OPTIMAL] > ees[FIXED_BASELINE]


# ------------------------------------------------------------------ MIMO


def test_mimo_outcomes_and_stream_fields():
    _, trace = run(make_scenario(
        antenna_mode=MIMO, duration_ttis=2500,
        power_model=power_model_for_mode(MIMO, PowerModelParams()),
    ))
    seen = {r.outcome for r in trace}
    assert seen <= {OUTCOME_ACK, OUTCOME_NACK, OUTCOME_MIXED, OUTCOME_IDLE}
    for r in trace:
        if r.outcome == OUTCOME_MIXED:
            assert r.mcs_secondary >= 1  # mixed requires two streams
        if r.outcome == OUTCOME_IDLE:
            assert r.mcs_index == 0 and r.mcs_secondary == 0
    # the strong reference channel should exercise dual-stream mode
    assert any(r.mcs_secondary >= 1 for r in trace)


def test_mimo_hypothesis_matches_brute_force():
    rng = np.random.default_rng(9)
    table = reference_table()
    thr = np.array([float(e.sinr_threshold_db) for e in table.entries])
    tbs = np.array([int(e.tbs_bits) for e in table.entries])
    half_db = 10.0 * np.log10(2.0)
    T = 200
    a1 = rng.uniform(-20.0, 30.0, size=(4, T))
    a2 = a1 - rng.uniform(0.0, 15.0, size=(4, T))
    a_single = a1 + rng.uniform(0.0, 6.0, size=(4, T))

    def brute(t, p_dbm):
        off = p_dbm - 30.0
        best = None
        best_tbs = -1
        for mode_tag, pci in [("S", i) for i in range(4)] + [("D", i) for i in range(4)]:
            if mode_tag == "S":
                c1 = cqi_from_sinr(table, a_single[pci, t] + off)
                c2 = 0
                tot = tbs[c1 - 1] if c1 >= 1 else 0
            else:
                c1 = cqi_from_sinr(table, a1[pci, t] + off - half_db)
                c2 = cqi_from_sinr(table, a2[pci, t] + off - half_db)
                tot = (tbs[c1 - 1] if c1 >= 1 else 0) + (tbs[c2 - 1] if c2 >= 1 else 0)
                if not (c1 >= 1 and c2 >= 1):
                    tot = -1
            if tot > best_tbs:
                best_tbs = tot
                best = (mode_tag, pci, c1, c2)
        return best

    for t in range(T):
        for p_dbm in (25.0, 33.0, 40.0):
            mode, pci, c1, c2 = _mimo_hypothesis(
                thr, tbs, a1, a2, a_single, t, p_dbm
            )
            want = brute(t, p_dbm)
            got_tag = "S" if mode == SINGLE else "D"
            assert (got_tag, pci, c1, c2) == want, (t, p_dbm)


# ----------------------------------------------------------------- sweep


def test_sweep_rejects_unknown_variable_and_empty_values():
    sc = make_scenario(collect_trace=False)
    # antenna modes are swept through antenna_modes, not as a variable
    for variable in ("bandwidth", "antenna_mode"):
        with pytest.raises(ValueError, match="variable must be one of"):
            sweep(sc, variable, [1.0])
    with pytest.raises(ValueError):
        sweep(sc, "speed", [])
    # 2.5, True and "2" used to fail inside numpy's SeedSequence
    for repetitions in (0, 2.5, True, "2"):
        with pytest.raises(ValueError, match="repetitions"):
            sweep(sc, "speed", [3.0], repetitions=repetitions)


def test_sweep_theta_min_values_are_integers():
    # int() would truncate 2.5 and run min_mcs = 2 under the label 2.5
    sc = make_scenario(duration_ttis=100, collect_trace=False)
    with pytest.raises(ValueError, match="theta_min"):
        sweep(sc, "theta_min", [2.5])
    (point,) = sweep(sc, "theta_min", [np.int64(3)])
    assert point == sweep(sc, "theta_min", [3])[0]


def test_sweep_rejects_cells_that_collide():
    # a repeated entry would merge two cells' runs into one
    sc = make_scenario(duration_ttis=100, collect_trace=False)
    for values, over in (
        ([3.0, 3.0], {}),
        ([3.0], {"strategies": (SEMI_STATIC, SEMI_STATIC)}),
        ([3.0], {"antenna_modes": (SIMO, SIMO)}),
    ):
        with pytest.raises(ValueError, match="repeated"):
            sweep(sc, "speed", values, **over)


def test_degenerate_sweep_equals_direct_run():
    template = make_scenario(duration_ttis=1000, collect_trace=False)
    pts = sweep(template, "speed", [3.0], repetitions=1)
    assert len(pts) == 1
    seed = int(np.random.SeedSequence(template.seed).generate_state(1)[0])
    direct = run(ScenarioConfig(
        channel=template.channel, antenna_mode=template.antenna_mode,
        strategy=template.strategy, duration_ttis=template.duration_ttis,
        seed=seed, controller=template.controller, table=template.table,
        power_model=template.power_model, collect_trace=False,
    ))[0]
    assert pts[0].mean_ee == pytest.approx(direct.avg_ee_bits_per_joule, rel=1e-12)
    assert pts[0].std_ee == 0.0
    assert pts[0].repetitions == 1


def test_sweep_shape_and_labels():
    template = make_scenario(duration_ttis=600, collect_trace=False)
    pts = sweep(
        template, "fixed_power", [30.0, 36.0],
        repetitions=2,
        strategies=[FIXED_BASELINE],
        antenna_modes=[SIMO, MIMO],
    )
    assert len(pts) == 4  # 2 values x 1 strategy x 2 modes
    labels = {p.strategy for p in pts}
    assert labels == {"FixedBaseline/SIMO", "FixedBaseline/MIMO"}
    assert all(p.repetitions == 2 and len(p.ee_samples) == 2 for p in pts)
    assert all(p.variable == "fixed_power" for p in pts)


def test_sweep_single_mode_label_is_plain():
    template = make_scenario(duration_ttis=600, collect_trace=False)
    pts = sweep(template, "speed", [3.0], strategies=[SEMI_STATIC])
    assert pts[0].strategy == "SemiStatic"


def test_sweep_pairs_seeds_across_cells():
    # common random numbers: repetition r runs on the same seed in every
    # cell. FixedBaseline never reads min_mcs, so its two theta_min cells
    # must match sample for sample, while the repetitions differ
    template = make_scenario(
        channel=make_channel(1100.0, -72.5, geometry_db=0.0, alpha=0.995, speed_kmh=3.0),
        duration_ttis=800,
        collect_trace=False,
    )
    lo, hi = sweep(template, "theta_min", [1, 30], strategies=[FIXED_BASELINE],
                   repetitions=3)
    assert (lo.value, hi.value) == (1, 30)
    assert lo.ee_samples == hi.ee_samples
    assert len(set(lo.ee_samples)) == 3


def test_sweep_theta_min_applies_constraint():
    template = make_scenario(duration_ttis=2000, collect_trace=False)
    pts = sweep(template, "theta_min", [1, 30], strategies=[SEMI_STATIC])
    by_theta = {p.value: p.mean_ee for p in pts}
    # forcing the top level burns more power in fades: EE must drop
    assert by_theta[30] < by_theta[1]


def per_cell_sweep(template, variable, values, repetitions, strategies, modes):
    """The sweep as one run(_derive(...)) per job, aggregated cell by
    cell: what sweep returns, with no link shared between runs."""
    seeds = [int(s) for s in np.random.SeedSequence(template.seed).generate_state(repetitions)]
    points = []
    for value in values:
        for mode in modes:
            for strat in strategies:
                ms = [run(_derive(template, variable, value, strat, mode, s))[0] for s in seeds]
                ees = np.array([m.avg_ee_bits_per_joule for m in ms])
                points.append(SweepPoint(
                    variable=variable,
                    value=value,
                    strategy=strat if len(modes) == 1 else f"{strat}/{mode}",
                    mean_ee=float(ees.mean()),
                    std_ee=float(ees.std(ddof=1)) if len(ees) > 1 else 0.0,
                    mean_reconfigs=float(np.mean([m.reconfig_count for m in ms])),
                    mean_throughput=float(np.mean([m.throughput_bps for m in ms])),
                    repetitions=len(ms),
                    ee_samples=tuple(float(x) for x in ees),
                ))
    return points


@pytest.mark.parametrize("variable, values, modes", [
    ("fixed_power", [30.0, 36.0, 42.0], (SIMO, MIMO)),
    ("distance", [435.0, 800.0], (SIMO,)),
])
def test_sweep_with_shared_links_equals_one_run_per_cell(variable, values, modes):
    template = make_scenario(duration_ttis=500, collect_trace=False)
    strategies = (FIXED_BASELINE, SEMI_STATIC)
    got = sweep(template, variable, values, repetitions=2, strategies=strategies,
                antenna_modes=modes)
    assert got == per_cell_sweep(template, variable, values, 2, strategies, modes)


def test_sweep_synthesizes_each_realization_once(monkeypatch):
    calls = []

    def counting(n_procs, n_steps, *args):
        calls.append((n_procs, n_steps))
        return synth_fading(n_procs, n_steps, *args)

    monkeypatch.setattr(sim_engine, "synth_fading", counting)
    template = make_scenario(duration_ttis=300, collect_trace=False)
    sweep(template, "fixed_power", [30.0, 36.0, 42.0], repetitions=3,
          strategies=(FIXED_BASELINE, SEMI_STATIC), antenna_modes=(SIMO, MIMO))
    assert len(calls) == 2 * 3  # one per (mode, repetition), not per cell
    calls.clear()
    sweep(template, "speed", [3.0, 30.0], repetitions=2,
          strategies=(FIXED_BASELINE, SEMI_STATIC))
    assert len(calls) == 2 * 2  # one per (speed, repetition)
    calls.clear()
    # a theta_min value leaves the channel as it is, like a power
    sweep(template, "theta_min", [1, 5, 9], repetitions=2,
          strategies=(FIXED_BASELINE, SEMI_STATIC), antenna_modes=(SIMO, MIMO))
    assert len(calls) == 2 * 2  # one per (mode, repetition)


def test_sweep_rejects_a_later_bad_value_before_any_run(monkeypatch):
    calls = []
    original = sim_engine.run

    def counting(sc, sink=None):
        calls.append(sc)
        return original(sc, sink)

    monkeypatch.setattr(sim_engine, "run", counting)
    template = make_scenario(duration_ttis=100, collect_trace=False)
    with pytest.raises(ValueError, match="theta_min"):
        sweep(template, "theta_min", [3, 2.5], repetitions=2, antenna_modes=(SIMO, MIMO))
    assert calls == []


@pytest.mark.parametrize("mode", [SIMO, MIMO])
def test_fading_is_sampled_at_the_tti(monkeypatch, mode):
    steps = []

    def recording(n_procs, n_steps, dt_s, *args):
        steps.append(dt_s)
        return synth_fading(n_procs, n_steps, dt_s, *args)

    monkeypatch.setattr(sim_engine, "synth_fading", recording)
    fresh_run(make_scenario(antenna_mode=mode, duration_ttis=100, collect_trace=False))
    assert steps == [ControllerConfig.tti_ms * 1e-3]


def assert_link_is_the_fading_blocks(mode, speed_kmh, distance_m, n, seed):
    """The link reduces synth_fading's rows as they are made; its
    constants must be those computed from fading_block's processes, byte
    for byte, and the generator must end where fading_block leaves it.
    One stream's gain is |h|^2 summed over the processes, each 2x2
    stream's the block's summed stream gain per PCI."""
    sc = make_scenario(antenna_mode=mode, duration_ttis=n, channel=make_channel(
        distance_m, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=speed_kmh))
    ch = sc.channel
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    n_rx, n_tx = {SISO: (1, 1), SIMO: (2, 1), MIMO: (2, 2)}[mode]
    block = sim_engine.fading_block(ch, n_rx, n_tx, n, ref_rng)
    if mode == MIMO:
        link = sim_engine._mimo_link(sc, n, rng)
        series = [stream_gain_series(block, w) for w in pci_codebook()]
        gains = [[by_pci[k] for by_pci in series] for k in range(3)]
        rows = [link.sinr_db[DUAL][0], link.sinr_db[DUAL][1], link.sinr_db[SINGLE][0]]
    else:
        link = sim_engine._single_stream_link(sc, n, rng)
        gains = [[np.sum(np.abs(block) ** 2, axis=(0, 1, 2))]]
        rows = [link.sinr_db[SINGLE][0]]
    loss = sim_engine._pilot_loss_db(sc)
    for got_rows, want_rows in zip(rows, gains, strict=True):
        for got, gain in zip(got_rows, want_rows, strict=True):
            want = hs_sinr_db(1.0, ch.path_gain_lin * gain, ch) - loss
            assert np.array(got).tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("mode", [SISO, SIMO])
@pytest.mark.parametrize("speed_kmh", [0.0, 3.0, 120.0])
def test_single_stream_gain_is_the_fading_blocks_summed_power(mode, speed_kmh):
    assert_link_is_the_fading_blocks(mode, speed_kmh, 435.0, 5000, 7)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from([SISO, SIMO, MIMO]),
    speed_kmh=st.one_of(st.just(0.0), st.floats(0.5, 150.0)),
    distance_m=st.sampled_from([435.0, 1100.0]),
    n=st.one_of(st.integers(1, 64), st.integers(4090, 4100), st.integers(4101, 12_000)),
    seed=st.integers(0, 2**32),
)
@example(mode=MIMO, speed_kmh=0.0, distance_m=435.0, n=1, seed=0)
@example(mode=MIMO, speed_kmh=3.0, distance_m=435.0, n=4096, seed=1)
@example(mode=MIMO, speed_kmh=120.0, distance_m=1100.0, n=4097, seed=2)
@example(mode=SIMO, speed_kmh=3.0, distance_m=435.0, n=70_000, seed=3)
def test_every_link_is_built_from_the_fading_blocks(mode, speed_kmh, distance_m, n, seed):
    assert_link_is_the_fading_blocks(mode, speed_kmh, distance_m, n, seed)


def test_single_stream_link_holds_no_fading_block():
    sc = make_scenario(antenna_mode=SIMO)
    n, n_procs, n_fft = 70_000, 2 * len(sc.channel.pdp_weights), 131_072
    for speed_kmh in (0.0, 3.0):
        sc = replace(sc, channel=replace(sc.channel, speed_kmh=speed_kmh))
        tracemalloc.start()
        try:
            sim_engine._single_stream_link(sc, n, np.random.default_rng(5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # holding the complex block alone would take this much; the gain,
        # one float temporary and a few complex rows of n_fft are held
        assert peak < n_procs * n * 16
        assert peak <= 2 * n * 8 + 4 * n_fft * 16


def test_mimo_link_holds_no_fading_block():
    sc = make_scenario(antenna_mode=MIMO)
    n, n_procs = 32_768, 4 * len(sc.channel.pdp_weights)
    sim_engine._mimo_link(sc, 8, np.random.default_rng(5))  # warm any caches
    tracemalloc.start()
    try:
        sim_engine._mimo_link(sc, n, np.random.default_rng(5))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 12 constant rows and the complex block of the 16 processes,
    # which a build holding that block would hold at once: 11.5 MB
    # against about 10.8 MB of constants, one tap and its temporaries
    assert peak < 12 * n * 8 + n_procs * n * 16


# ----------------------------------------------------------------- chunks

CHUNK = 4096


@pytest.fixture
def small_chunks(monkeypatch):
    """Runs cut into chunks of CHUNK TTIs, so short runs cross chunk
    boundaries."""
    monkeypatch.setattr(sim_engine, "CHUNK_TTIS", CHUNK)


def joined_link(sc):
    """One link over the per-TTI constants of sc's chunks joined end to
    end: the run without its chunk boundaries."""
    chunks = list(sim_engine._build_link(sc))
    if sc.antenna_mode == MIMO:
        consts = [
            [[x for c in chunks for x in c.sinr_db[mode][slot][pci]] for pci in range(4)]
            for mode, slot in ((DUAL, 0), (DUAL, 1), (SINGLE, 0))
        ]
        return sim_engine._mimo_view(sc.table, consts)
    return sim_engine._single_stream_view(
        sc.table, [x for c in chunks for x in c.sinr_db[SINGLE][0][0]]
    )


@pytest.mark.parametrize("mode", [SIMO, MIMO])
@pytest.mark.parametrize("strategy", [FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL])
def test_chunked_run_equals_the_run_on_its_joined_link(small_chunks, mode, strategy):
    # the controller state, the reports and ACKs in flight and the
    # pending retransmissions cross each chunk boundary unchanged
    sc = make_scenario(antenna_mode=mode, strategy=strategy, duration_ttis=3 * CHUNK + 1000)
    assert [c.ttis for c in sim_engine._build_link(sc)] == [CHUNK] * 3 + [1000]
    metrics, trace = run(sc)
    assert len(trace) == sc.duration_ttis
    assert (metrics, trace) == sim_engine._run_link(sc, [joined_link(sc)])


def test_each_chunk_is_synthesized_once(small_chunks, monkeypatch):
    calls = []

    def counting(n_procs, n_steps, *args):
        calls.append(n_steps)
        return synth_fading(n_procs, n_steps, *args)

    monkeypatch.setattr(sim_engine, "synth_fading", counting)
    run(make_scenario(antenna_mode=MIMO, duration_ttis=3 * CHUNK + 1000, collect_trace=False))
    assert calls == [CHUNK] * 3 + [1000]


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
def test_a_built_link_holds_8_bytes_per_constant(mode):
    # the per-TTI constants are packed doubles, not lists of Python
    # floats (32 B each)
    sc = make_scenario(antenna_mode=mode, duration_ttis=20_000)
    list(sim_engine._build_link(sc))  # warm any caches
    tracemalloc.start()
    try:
        link = list(sim_engine._build_link(sc))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    constants = (12 if mode == MIMO else 1) * sc.duration_ttis
    assert len(link) == 1
    assert held <= 8 * constants + 32_000


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
def test_link_constants_and_report_powers_are_python_floats(mode):
    # the loop sums and compares Python floats, as the trace text needs
    sc = make_scenario(antenna_mode=mode, duration_ttis=500)
    (link,) = sim_engine._build_link(sc)
    for rows in link.sinr_db.values():
        for by_pci in rows:
            for row in by_pci:
                assert len(row) == link.ttis
                assert all(type(row[i]) is float for i in range(link.ttis))
    for p_dbm in (40.0, 31.5):
        reports = link.fixed_reports(p_dbm) + [link.report(i, p_dbm) for i in range(link.ttis)]
        assert all(type(r[4]) is float for r in reports)
        assert all(type(v) is int for r in reports for v in r[1:4])


def test_sweep_cell_longer_than_a_chunk_is_its_own_run(small_chunks):
    template = make_scenario(duration_ttis=2 * CHUNK + 500, collect_trace=False)
    strategies = (FIXED_BASELINE, SEMI_STATIC)
    got = sweep(template, "fixed_power", [36.0, 42.0], repetitions=1, strategies=strategies,
                antenna_modes=(SIMO, MIMO))
    assert got == per_cell_sweep(template, "fixed_power", [36.0, 42.0], 1, strategies,
                                 (SIMO, MIMO))


# ------------------------------------------------------------ link memo

STRATEGIES = (FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL)


def fresh_run(sc):
    """run(sc) on a link built for it, not a kept one."""
    sim_engine._link_memo = None
    return run(sc)


def counting_synthesis(monkeypatch):
    """Patch synth_fading to log the kept entry at each call; returns
    the log."""
    entries = []

    def counting(*args):
        entries.append(sim_engine._link_memo)
        return synth_fading(*args)

    monkeypatch.setattr(sim_engine, "synth_fading", counting)
    return entries


@pytest.mark.parametrize("mode", [SIMO, MIMO])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_runs_on_the_kept_link_equal_runs_on_their_own(mode, order):
    scs = [make_scenario(antenna_mode=mode, strategy=s, duration_ttis=1500)
           for s in STRATEGIES[::order]]
    want = [repr(fresh_run(sc)) for sc in scs]
    sim_engine._link_memo = None
    for sc, w in zip(scs, want):
        rows = []
        metrics, _ = run(sc, rows.append)
        assert repr((metrics, rows)) == w
        assert repr(run(sc)) == w


def test_each_realization_is_synthesized_once_and_after_the_entry_is_dropped(monkeypatch):
    entries = counting_synthesis(monkeypatch)
    for mode in (SIMO, MIMO):
        for strategy in STRATEGIES:
            run(make_scenario(antenna_mode=mode, strategy=strategy, collect_trace=False))
    # one link per mode, each built only after the other's was dropped
    assert entries == [None, None]


def test_a_kept_link_replaced_by_another_is_rebuilt_alike(monkeypatch):
    entries = counting_synthesis(monkeypatch)
    a = make_scenario(antenna_mode=MIMO, seed=5)
    b = make_scenario(antenna_mode=MIMO, seed=6)
    first = repr(run(a))
    run(b)
    assert repr(run(a)) == first
    assert entries == [None] * 3


def test_a_run_longer_than_a_chunk_neither_reads_nor_keeps_the_entry(small_chunks):
    sc = make_scenario(duration_ttis=CHUNK + 500, collect_trace=False)
    want = fresh_run(sc)
    # a stale entry under sc's own key, which would fail if read
    sim_engine._link_memo = sim_engine._link_key(sc), None
    assert run(sc) == want
    assert sim_engine._link_memo is None


def test_threads_alternating_two_realizations_equal_serial_runs():
    jobs = [make_scenario(seed=seed, strategy=strategy, duration_ttis=800, collect_trace=False)
            for strategy in STRATEGIES for _ in range(2) for seed in (11, 12)]
    want = [fresh_run(sc)[0] for sc in jobs]
    sim_engine._link_memo = None
    # switch threads often, so each run's check and use of the entry
    # interleave with the other thread's replacing it
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            got = list(pool.map(lambda sc: run(sc)[0], jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert got == want


def test_sweep_calls_run_once_per_cell(monkeypatch):
    calls = []
    original = sim_engine.run

    def counting(sc, sink=None):
        calls.append(sc)
        return original(sc, sink)

    monkeypatch.setattr(sim_engine, "run", counting)
    template = make_scenario(duration_ttis=300, collect_trace=False)
    sweep(template, "fixed_power", [30.0, 36.0], repetitions=2,
          strategies=(FIXED_BASELINE, SEMI_STATIC))
    assert len(calls) == 2 * 2 * 2


# ------------------------------------------------------ reference step


def reference_run(sc, chunks):
    """Any strategy as a slow step over the whole run, built on the
    controller's own functions. FixedBaseline's and PerTtiOptimal's
    outer loop is update_offset. FixedBaseline serves amc_level at
    min_mcs 1; PerTtiOptimal applies select_optimal or
    select_optimal_dual, by the report's mode, on every report in range.
    SemiStatic steps on_tti with each report as a TtiFeedback and the
    previous TTI's EE sample, selecting by the report's mode. Every
    report is the chunk's scalar report(t, p) at the power configured at
    t, and every served TTI's energy is computed from its power. Returns
    the run's (metrics, trace) and counts: outer-loop updates that ended
    on the clamp, SemiStatic reconfigurations by the event and by the
    periodic branch of the trigger, and the TTIs on which SemiStatic
    evaluates its trigger (a report in range past the minimum
    interval)."""
    cfg, pm, table = sc.controller, sc.power_model, sc.table
    delay = sim_engine.FEEDBACK_DELAY_TTIS
    ts = cfg.tti_ms * 1e-3
    baseline = sc.strategy == FIXED_BASELINE
    semi_static = sc.strategy == SEMI_STATIC
    p = sc.baseline_power_dbm
    idle_energy = ts * pm.overhead_w
    state = new_controller_state(cfg, p)
    steps = [(link, i) for link in chunks for i in range(link.ttis)]
    # SISO/SIMO queue a failure before the TTI transmits, 2x2 after it;
    # a dual-stream TTI splits its power equally over the streams
    resolve_first = sc.antenna_mode != MIMO
    share_db = {SINGLE: 0.0, DUAL: float(10.0 * np.log10(2.0))}
    # the report measured at TTI t, and the (acks, failed blocks) of t,
    # each acted on at t + delay
    measured = [None] * len(steps)
    outcomes = [((), ())] * len(steps)
    retx = [None, None]
    trace = []
    bits = attempts = nacks = reconfigs = 0
    counts = {"clamped": 0, "event": 0, "periodic": 0, "evaluated": 0}
    energy_j = 0.0
    sample_ee = 0.0

    def queue(failed, replace):
        for slot, m, b, cnt in failed:
            if cnt < sim_engine.MAX_RETRANSMISSIONS and (replace or retx[slot] is None):
                retx[slot] = (m, b, cnt + 1)

    for t, (link, i) in enumerate(steps):
        fb = measured[t - delay] if t >= delay else None
        acks_in, failed_in = outcomes[t - delay] if t >= delay else ((), ())
        reconfigured = False
        in_range = fb is not None and fb[2] >= 1
        if fb is None:
            report, p_meas, select = 0, None, select_optimal
        elif fb[0] == DUAL:
            report, p_meas = MimoFeedback(DUAL, fb[1], fb[2], fb[3]), fb[4]
            select = select_optimal_dual
        else:
            report, p_meas, select = fb[2], fb[4], select_optimal
        if semi_static:
            timer_ms = state.timer_ms + cfg.tti_ms  # as on_tti advances it
            counts["evaluated"] += in_range and timer_ms > cfg.min_reconfig_interval_ms
            state, dec = on_tti(state, TtiFeedback(report, acks_in, p_meas, sample_ee),
                                table, cfg, pm, select)
            reconfigured = dec.action == RECONFIGURE
            if reconfigured:
                branch = "periodic" if timer_ms > cfg.max_reconfig_interval_ms else "event"
                counts[branch] += 1
            p = state.power_dbm
            levels = dec.levels
        else:
            for ack in acks_in:
                update_offset(state, ack, cfg)
                counts["clamped"] += abs(state.offset_db) == cfg.offset_clamp_db
            levels = ()
            if in_range and baseline:
                cqis = fb[2:4] if fb[0] == DUAL else fb[2:3]
                levels = tuple(amc_level(table, c, -state.offset_db, 1) for c in cqis)
            elif in_range:
                sel = select(p_meas, report, state.offset_db, table, cfg, pm)
                reconfigured = True
                p = sel.power_dbm
                levels = sel.levels
        reconfigs += reconfigured
        if resolve_first:
            queue(failed_in, True)
        if levels:
            off = (p - 30.0) - share_db[fb[0]]
            energy = ts * (10.0 ** ((p - 30.0) / 10.0) / pm.eta + pm.overhead_w)
            sent = []
            acks, failed, delivered = [], [], 0
            for slot, m in enumerate(levels):
                if retx[slot] is None:
                    b, cnt = table.tbs(m), 0
                else:
                    (m, b, cnt), retx[slot] = retx[slot], None
                sent.append(m)
                ok = link.sinr_db[fb[0]][slot][fb[1]][i] + off >= table.threshold(m)
                acks.append(ok)
                if ok:
                    delivered += b
                else:
                    failed.append((slot, m, b, cnt))
            outcomes[t] = (tuple(acks), tuple(failed))
            attempts += len(acks)
            nacks += len(failed)
            bits += delivered
            energy_j += energy
            sample_ee = delivered / energy
            outcome = (OUTCOME_ACK if not failed
                       else OUTCOME_NACK if len(failed) == len(acks) else OUTCOME_MIXED)
            m1, m2 = (sent + [0])[:2]  # mcs_secondary is 0 on one stream
            trace.append(sim_engine.TtiRecord(
                t, p, m1, m2, outcome, delivered, energy, reconfigured))
        else:
            energy_j += idle_energy
            sample_ee = 0.0
            trace.append(sim_engine.TtiRecord(
                t, float("-inf"), 0, 0, OUTCOME_IDLE, 0, idle_energy, reconfigured))
        if not resolve_first:
            queue(failed_in, False)
        measured[t] = link.report(i, p)

    metrics = sim_engine.RunMetrics(
        avg_ee_bits_per_joule=bits / energy_j,
        throughput_bps=bits / (len(steps) * ts),
        reconfig_count=reconfigs,
        nack_rate=nacks / attempts if attempts else 0.0,
        delivered_bits=bits,
        consumed_energy_j=energy_j,
        duration_ttis=len(steps),
        strategy=sc.strategy,
        antenna_mode=sc.antenna_mode,
    )
    return metrics, trace, counts


def assert_same_run(got, want):
    """Equal metrics and traces, row by row, with the power's type."""
    (got_m, got_trace), (want_m, want_trace) = got, want
    assert got_m == want_m
    assert len(got_trace) == len(want_trace)
    for g, w in zip(got_trace, want_trace):
        assert g == w
        assert type(g.p_tx_dbm) is type(w.p_tx_dbm)


def counting_steps(monkeypatch):
    """Wrap the engine's on_tti and selectors; the Counter returned
    counts their calls by name, and by (name, exact_ee) where the call
    passes exact_ee."""
    calls = Counter()
    for name in ("on_tti", "select_optimal", "select_optimal_dual"):
        def wrapper(*args, _name=name, _fn=getattr(sim_engine, name), **kwargs):
            calls[_name] += 1
            if "exact_ee" in kwargs:
                calls[_name, kwargs["exact_ee"]] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(sim_engine, name, wrapper)
    return calls


@pytest.mark.parametrize("mode", [SIMO, MIMO])
@pytest.mark.parametrize("strategy", [FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL])
def test_the_controllers_take_the_fast_ee(monkeypatch, mode, strategy):
    # PerTtiOptimal never reads a selection's EE and SemiStatic only
    # compares its gap with the threshold, so both ask for the fast one;
    # on_tti passes exact_ee=False on to the engine's selector
    sc = make_scenario(antenna_mode=mode, strategy=strategy)
    chunks = list(sim_engine._build_link(sc))
    calls = counting_steps(monkeypatch)
    sim_engine._run_link(sc, chunks)
    selectors = ("select_optimal",) if mode == SIMO else ("select_optimal", "select_optimal_dual")
    if strategy == FIXED_BASELINE:
        assert not calls
        return
    for name in selectors:
        assert calls[name, False] > 0, calls
    fast = sum(calls[name, False] for name in selectors)
    if strategy == PER_TTI_OPTIMAL:
        assert calls["on_tti"] == 0
        assert fast == sum(calls[name] for name in selectors)
    else:
        assert calls["on_tti"] == calls["on_tti", False] == fast
        assert calls["on_tti", True] == 0


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
@pytest.mark.parametrize("power, ttis", [(40, 2000), (40.5, 2000), (21.0, 6000)])
def test_fixed_baseline_equals_a_step_through_the_controller_functions(
    monkeypatch, mode, power, ttis
):
    sc = make_scenario(antenna_mode=mode, strategy=FIXED_BASELINE, baseline_power_dbm=power,
                       duration_ttis=ttis)
    chunks = list(sim_engine._build_link(sc))
    metrics, trace, counts = reference_run(sc, chunks)
    calls = counting_steps(monkeypatch)
    assert_same_run(sim_engine._run_link(sc, chunks), (metrics, trace))
    assert not calls  # neither the controller step nor a selector
    if power == 21.0:
        # at a low power the NACKs drive the offset into its clamp
        assert counts["clamped"] > 0


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
def test_fixed_baseline_ignores_the_controllers_floor(mode):
    sc = make_scenario(antenna_mode=mode, strategy=FIXED_BASELINE, baseline_power_dbm=21.0,
                       controller=ControllerConfig(ee_smoothing=0.01, min_mcs=12))
    chunks = list(sim_engine._build_link(sc))
    metrics, trace, _ = reference_run(sc, chunks)
    assert_same_run(sim_engine._run_link(sc, chunks), (metrics, trace))
    assert any(0 < r.mcs_index < 12 for r in trace)


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
def test_chunked_fixed_baseline_equals_a_step_through_the_controller_functions(
    small_chunks, mode
):
    sc = make_scenario(antenna_mode=mode, strategy=FIXED_BASELINE, duration_ttis=2 * CHUNK + 700,
                       baseline_power_dbm=36.0)
    chunks = list(sim_engine._build_link(sc))
    assert [c.ttis for c in chunks] == [CHUNK, CHUNK, 700]
    metrics, trace, _ = reference_run(sc, chunks)
    assert_same_run(run(sc), (metrics, trace))


# a fast cell-edge channel: reports fall out of range between served
# TTIs, and the fading moves within the feedback delay, so an idle TTI's
# EE sample of 0 reaches triggers that a served one would not have fired
CELL_EDGE = make_channel(1100.0, -72.5, geometry_db=0.0, alpha=0.995, speed_kmh=30.0)


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
@pytest.mark.parametrize("strategy", [SEMI_STATIC, PER_TTI_OPTIMAL])
@pytest.mark.parametrize("edge", [False, True], ids=["3kmh-435m", "30kmh-1100m"])
def test_controller_run_equals_a_step_through_on_tti(monkeypatch, mode, strategy, edge):
    sc = make_scenario(antenna_mode=mode, strategy=strategy, duration_ttis=3000,
                       **({"channel": CELL_EDGE} if edge else {}))
    chunks = list(sim_engine._build_link(sc))
    metrics, trace, counts = reference_run(sc, chunks)
    calls = counting_steps(monkeypatch)
    assert_same_run(sim_engine._run_link(sc, chunks), (metrics, trace))
    if edge:
        warm = sim_engine.FEEDBACK_DELAY_TTIS
        assert any(r.outcome == OUTCOME_IDLE for r in trace[warm:])
    served = sum(r.outcome != OUTCOME_IDLE for r in trace)
    if strategy == SEMI_STATIC:
        assert counts["event"] > 0 and counts["periodic"] > 0, counts
        # the engine calls on_tti only where the trigger is evaluated,
        # and most served TTIs fall inside the minimum interval
        assert calls["on_tti"] == counts["evaluated"] < served
    else:
        assert metrics.reconfig_count == served
        # no on_tti call: every report in range, so every served TTI,
        # selects once by its mode, and a dual report serves two streams
        assert calls["on_tti"] == counts["evaluated"] == 0
        assert calls["select_optimal"] + calls["select_optimal_dual"] == served
        assert calls["select_optimal_dual"] == sum(r.mcs_secondary > 0 for r in trace)


@pytest.mark.parametrize("mode", [SISO, SIMO, MIMO])
def test_chunked_controller_run_equals_a_step_through_on_tti(small_chunks, mode):
    sc = make_scenario(antenna_mode=mode, strategy=SEMI_STATIC, duration_ttis=2 * CHUNK + 700)
    chunks = list(sim_engine._build_link(sc))
    assert [c.ttis for c in chunks] == [CHUNK, CHUNK, 700]
    metrics, trace, counts = reference_run(sc, chunks)
    assert_same_run(run(sc), (metrics, trace))
    assert counts["event"] > 0 and counts["periodic"] > 0, counts


@st.composite
def controller_configs(draw):
    """ControllerConfigs over the knobs the engine's own steps read: an
    MCS floor up to 20, minimum intervals of 0 and off the 2 ms grid,
    smoothing up to 1 and power budgets that leave selections
    infeasible."""
    min_ms = draw(st.one_of(st.just(0.0), st.sampled_from([1.0, 3.0, 7.5, 20.0]),
                            st.floats(0.0, 60.0)))
    return ControllerConfig(
        p_max_dbm=draw(st.floats(15.0, 46.0)),
        min_mcs=draw(st.integers(1, 20)),
        ee_gap_threshold=draw(st.floats(0.01, 0.99)),
        min_reconfig_interval_ms=min_ms,
        max_reconfig_interval_ms=5.0 * min_ms + draw(st.floats(0.0, 400.0)),
        ee_smoothing=draw(st.one_of(st.just(1.0), st.floats(0.001, 1.0))),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    cfg=controller_configs(),
    mode=st.sampled_from([SISO, SIMO, MIMO]),
    strategy=st.sampled_from([SEMI_STATIC, PER_TTI_OPTIMAL]),
    edge=st.booleans(),
    chunk=st.sampled_from([None, 700]),
    ttis=st.integers(50, 2000),
    seed=st.integers(0, 2**32 - 1),
)
@example(cfg=ControllerConfig(min_mcs=20, min_reconfig_interval_ms=0.0,
                              max_reconfig_interval_ms=0.0, ee_smoothing=1.0),
         mode=MIMO, strategy=SEMI_STATIC, edge=False, chunk=700, ttis=2000, seed=3)
@example(cfg=ControllerConfig(p_max_dbm=20.0, min_mcs=12, min_reconfig_interval_ms=3.0,
                              max_reconfig_interval_ms=15.0),
         mode=SIMO, strategy=SEMI_STATIC, edge=True, chunk=None, ttis=2000, seed=3)
def test_controller_runs_equal_a_step_through_on_tti_for_any_config(
    cfg, mode, strategy, edge, chunk, ttis, seed
):
    # with chunk set, the run is cut into chunks of that many TTIs, so the
    # timer, the offset and the smoothed EE cross chunk boundaries
    sc = make_scenario(antenna_mode=mode, strategy=strategy, duration_ttis=ttis, seed=seed,
                       controller=cfg, **({"channel": CELL_EDGE} if edge else {}))
    with pytest.MonkeyPatch.context() as mp:
        if chunk:
            mp.setattr(sim_engine, "CHUNK_TTIS", chunk)
        chunks = list(sim_engine._build_link(sc))
    metrics, trace, counts = reference_run(sc, chunks)
    with pytest.MonkeyPatch.context() as mp:
        calls = counting_steps(mp)
        got = sim_engine._run_link(sc, chunks)
    assert_same_run(got, (metrics, trace))
    assert calls["on_tti"] == counts["evaluated"]


# ------------------------------------------------------------------ sink


@pytest.mark.parametrize("mode", [SIMO, MIMO])
@pytest.mark.parametrize("strategy", [FIXED_BASELINE, SEMI_STATIC])
@pytest.mark.parametrize("ttis", [2000, 2 * CHUNK + 700], ids=["one-chunk", "three-chunks"])
def test_sink_gets_the_trace_row_by_row(small_chunks, mode, strategy, ttis):
    sc = make_scenario(antenna_mode=mode, strategy=strategy, duration_ttis=ttis)
    rows = []
    metrics, trace = run(sc, rows.append)
    assert trace == []
    assert [r.tti_index for r in rows] == list(range(ttis))
    assert_same_run((metrics, rows), run(sc))


@pytest.mark.parametrize("mode", [SIMO, MIMO])
@pytest.mark.parametrize("strategy", [FIXED_BASELINE, SEMI_STATIC])
def test_sink_is_not_called_without_collect_trace(mode, strategy):
    sc = make_scenario(antenna_mode=mode, strategy=strategy, collect_trace=False)

    def sink(row):
        raise AssertionError(f"sink called with {row}")

    metrics, trace = run(sc, sink)
    assert trace == [] and (metrics, trace) == run(sc)
