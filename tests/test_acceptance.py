"""Acceptance gate: twelve criteria, one printed pass/fail line each.

Exact criteria pin arithmetic identities; statistical criteria run the
Monte-Carlo engine at fixed seeds with paired common random numbers, so
every rerun sees the same draws. Each criterion also enforces its own
wall-clock budget. Run with -s to watch the lines as they print.
"""

import time

import numpy as np
import pytest
from scipy import stats

from hsdpa_ee.ee_controller import (
    ControllerConfig,
    estimate_power_for_mcs,
    select_optimal,
)
from hsdpa_ee.link_channel import hs_sinr_db, make_channel
from hsdpa_ee.mcs_table import cqi_from_sinr, default_table, reference_table
from hsdpa_ee.mimo_dtxaa import (
    DUAL,
    SINGLE,
    pci_codebook,
    select_mode_and_feedback,
    stream_gains,
)
from hsdpa_ee.power_model import (
    PowerModelParams,
    optimal_shannon_power,
    shannon_ee,
    total_power,
)
from hsdpa_ee.sim_engine import (
    FIXED_BASELINE,
    MIMO,
    PER_TTI_OPTIMAL,
    SEMI_STATIC,
    SIMO,
    SISO,
    ScenarioConfig,
    power_model_for_mode,
    run,
    sweep,
)


def report(num: int, label: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def budget(num: int, label: str, elapsed: float, limit_s: float):
    report(num, f"{label} runtime", elapsed < limit_s,
           f"{elapsed:.1f}s of {limit_s:.0f}s budget")


# The reference operating point used by the strategy-comparison
# criteria: strong urban link, dual-antenna terminal, walking speed.
def reference_point(**over) -> ScenarioConfig:
    defaults = dict(
        channel=make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995,
                             speed_kmh=3.0),
        antenna_mode=SIMO,
        strategy=SEMI_STATIC,
        duration_ttis=10_000,
        seed=0,
        controller=ControllerConfig(ee_smoothing=0.01),
        table=reference_table(),
        collect_trace=False,
    )
    defaults.update(over)
    mode = defaults["antenna_mode"]
    defaults.setdefault("power_model", power_model_for_mode(mode, PowerModelParams()))
    return ScenarioConfig(**defaults)


def gain_samples(seeds, speed_kmh=3.0, **semi_over):
    """Paired semi-static vs baseline EE ratios, one per seed."""
    ch = make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995,
                      speed_kmh=speed_kmh)
    out = []
    for seed in seeds:
        base = run(reference_point(channel=ch, strategy=FIXED_BASELINE,
                                   seed=seed))[0]
        semi = run(reference_point(channel=ch, strategy=SEMI_STATIC,
                                   seed=seed, **semi_over))[0]
        out.append(semi.avg_ee_bits_per_joule / base.avg_ee_bits_per_joule - 1.0)
    return np.array(out)


def ci95(x: np.ndarray) -> float:
    return 1.96 * x.std(ddof=1) / np.sqrt(len(x))


# ------------------------------------------------------------------ 1


def test_criterion_01_power_model_exactness():
    got = total_power(19.9526, PowerModelParams(eta=0.38, p_cir_w=6.0,
                                                p_sta_w=6.0, m_a=1))
    want = 19.9526 / 0.38 + 12.0  # 64.50684210526316, prints as 64.507
    ok = abs(got - want) <= 1e-6 and round(got, 3) == 64.507
    report(1, "power model exactness", ok,
           f"total_power(19.9526 W) = {got:.6f} W")


# ------------------------------------------------------------------ 2


def test_criterion_02_shannon_ee_unimodal():
    t0 = time.perf_counter()
    pm = PowerModelParams()
    n0w = 1e-12
    grid = np.linspace(1e-3, 4.0, 100_000)
    ee = shannon_ee(grid, pm, n0w)
    d = np.diff(ee)
    signs = np.sign(d[np.abs(d) > 0.0])
    flips = int(np.sum(signs[1:] != signs[:-1]))
    k = int(np.argmax(ee))
    p_star = optimal_shannon_power(pm, n0w, p_max_w=4.0)
    rel = abs(grid[k] - p_star) / p_star
    elapsed = time.perf_counter() - t0
    report(2, "Shannon EE curve unimodal", flips == 1 and 0 < k < len(ee) - 1,
           f"{flips} slope sign change(s), peak at {grid[k]:.4f} W")
    report(2, "Shannon EE argmax vs golden section", rel <= 1e-3,
           f"relative gap {rel:.2e}")
    budget(2, "Shannon EE", elapsed, 1.0)


# ------------------------------------------------------------------ 3


def test_criterion_03_power_shift_is_sinr_shift():
    t0 = time.perf_counter()
    table = default_table()
    thr = table.thresholds_db
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        cqi = int(rng.integers(1, 31))
        target = int(rng.integers(1, 31))
        p1 = float(rng.uniform(0.0, 46.0))
        delta = float(rng.uniform(-6.0, 6.0))
        p2 = estimate_power_for_mcs(p1, cqi, target, table, delta)
        # the SINR move between the two operating points
        sinr_diff = thr[target - 1] - thr[cqi - 1] + delta
        worst = max(worst, abs((p2 - p1) - sinr_diff))
    # and the raw affine composition: channel constant cancels exactly
    for _ in range(1000):
        c = float(rng.uniform(-40.0, 40.0))
        p1 = float(rng.uniform(0.0, 46.0))
        p2 = float(rng.uniform(0.0, 46.0))
        s1 = (p1 - 30.0) + c
        s2 = (p2 - 30.0) + c
        worst = max(worst, abs((s2 - s1) - (p2 - p1)))
    elapsed = time.perf_counter() - t0
    report(3, "power shift equals SINR shift", worst <= 1e-9,
           f"worst deviation {worst:.2e} dB over 2000 draws")
    budget(3, "power/SINR shift", elapsed, 1.0)


# ------------------------------------------------------------------ 4


def test_criterion_04_select_optimal_matches_brute_force():
    t0 = time.perf_counter()
    table = default_table()
    thr = table.thresholds_db
    tbs = table.tbs_bits
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(1000):
        cqi = int(rng.integers(1, 31))
        p_meas = float(rng.uniform(10.0, 46.0))
        delta = float(rng.uniform(-6.0, 6.0))
        min_mcs = int(rng.choice([1, 5, 15, 26, 30]))
        p_max = float(rng.choice([30.0, 38.0, 43.0]))
        cfg = ControllerConfig(p_max_dbm=p_max, min_mcs=min_mcs)
        pm = PowerModelParams()
        got = select_optimal(p_meas, cqi, delta, table, cfg, pm)

        # brute force from the stated selection rule
        p_each = [p_meas + thr[m] - thr[cqi - 1] + delta for m in range(len(thr))]
        ee_each = [
            tbs[m] / (cfg.tti_ms * 1e-3 * (10.0 ** ((p_each[m] - 30.0) / 10.0) / pm.eta
                                           + pm.overhead_w))
            for m in range(len(thr))
        ]
        affordable = sum(1 for p in p_each if p <= p_max)
        if p_each[min_mcs - 1] > p_max:
            want_mcs = max(affordable, 1)
            want_power = p_max
            want_flag = True
        else:
            best = max(range(len(thr)), key=lambda m: (ee_each[m], -m)) + 1
            want_mcs = min(max(best, min_mcs), min(affordable, len(thr)))
            want_power = p_each[want_mcs - 1]
            want_flag = False

        assert got.mcs == want_mcs, (cqi, p_meas, delta, min_mcs, p_max)
        assert got.power_dbm == pytest.approx(want_power, abs=1e-9)
        assert got.infeasible == want_flag
        assert got.ee == pytest.approx(ee_each[want_mcs - 1], rel=1e-9)
        checked += 1
    elapsed = time.perf_counter() - t0
    report(4, "select_optimal equals brute force", checked == 1000,
           f"{checked} randomized instances incl. clamp branches")
    budget(4, "selection argmax", elapsed, 5.0)


# ------------------------------------------------------------------ 5


def test_criterion_05_trigger_spacing_invariants():
    t0 = time.perf_counter()
    cfg = ControllerConfig(ee_smoothing=0.01)
    sc = reference_point(duration_ttis=100_000, seed=3, controller=cfg,
                         collect_trace=True)
    _, trace = run(sc)
    marks = np.array([r.tti_index for r in trace if r.reconfigured])
    spacing = np.diff(marks)
    min_ttis = cfg.min_reconfig_interval_ms / cfg.tti_ms  # 10
    max_ttis = cfg.max_reconfig_interval_ms / cfg.tti_ms  # 100
    elapsed = time.perf_counter() - t0
    ok = len(marks) > 100 and spacing.min() > min_ttis and spacing.max() <= max_ttis + 1
    report(5, "trigger spacing bounds", ok,
           f"{len(marks)} reconfigs, spacing {spacing.min()}..{spacing.max()} TTIs "
           f"= {spacing.min() * 2}..{spacing.max() * 2} ms")
    budget(5, "trigger invariants", elapsed, 10.0)


# ------------------------------------------------------------------ 6


def test_criterion_06_strategy_comparison_at_walking_speed():
    t0 = time.perf_counter()
    seeds = range(20)
    ch = make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0)
    ee = {s: [] for s in (FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL)}
    rc = {s: [] for s in (FIXED_BASELINE, SEMI_STATIC, PER_TTI_OPTIMAL)}
    for seed in seeds:
        for strat in ee:
            m = run(reference_point(channel=ch, strategy=strat, seed=seed))[0]
            ee[strat].append(m.avg_ee_bits_per_joule)
            rc[strat].append(m.reconfig_count)
    base = np.array(ee[FIXED_BASELINE])
    semi = np.array(ee[SEMI_STATIC])
    pertti = np.array(ee[PER_TTI_OPTIMAL])
    elapsed = time.perf_counter() - t0

    p_value = stats.ttest_rel(semi, base, alternative="greater").pvalue
    gain = semi.mean() / base.mean() - 1.0
    report(6, "semi-static beats fixed baseline", p_value < 0.05 and gain >= 0.05,
           f"gain {gain:+.1%}, paired t-test p={p_value:.2e}, n={len(base)}")

    ratio = semi.mean() / pertti.mean()
    report(6, "semi-static holds 90% of per-TTI EE", ratio >= 0.9,
           f"EE ratio {ratio:.3f}")

    rc_ratio = np.mean(rc[SEMI_STATIC]) / np.mean(rc[PER_TTI_OPTIMAL])
    report(6, "reconfiguration frequency reduced", rc_ratio <= 0.2,
           f"{np.mean(rc[SEMI_STATIC]):.0f} vs {np.mean(rc[PER_TTI_OPTIMAL]):.0f} "
           f"reconfigs, ratio {rc_ratio:.3f}")
    budget(6, "strategy comparison", elapsed, 120.0)


# ------------------------------------------------------------------ 7


def test_criterion_07_gain_trend_over_speed():
    t0 = time.perf_counter()
    seeds = range(12)
    gains = {v: gain_samples(seeds, speed_kmh=v) for v in (3.0, 30.0, 120.0)}
    elapsed = time.perf_counter() - t0

    inversions = []
    for lo, hi in ((3.0, 30.0), (30.0, 120.0)):
        d = gains[hi] - gains[lo]  # paired per-seed difference
        if d.mean() > 0.0:
            inversions.append(d.mean() - ci95(d) <= 0.0)  # covered by its CI?
    ok_trend = len(inversions) <= 1 and all(inversions)
    detail = " ".join(
        f"g({v:.0f} km/h)={gains[v].mean():+.1%}" for v in (3.0, 30.0, 120.0)
    )
    report(7, "gain non-increasing with speed", ok_trend,
           f"{detail}, {len(inversions)} inversion(s)")

    g120 = gains[120.0]
    report(7, "gain still positive at 120 km/h",
           g120.mean() - ci95(g120) > 0.0,
           f"g(120) = {g120.mean():+.1%} +- {ci95(g120):.1%}")
    budget(7, "speed trend", elapsed, 180.0)


# ------------------------------------------------------------------ 8


def test_criterion_08_gain_trend_over_mcs_floor():
    t0 = time.perf_counter()
    seeds = range(10)
    ch = make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0)
    base = np.array([
        run(reference_point(channel=ch, strategy=FIXED_BASELINE, seed=s))[0]
        .avg_ee_bits_per_joule
        for s in seeds
    ])
    gains = []
    levels = (1, 26, 28, 30)
    for theta in levels:
        cfg = ControllerConfig(ee_smoothing=0.01, min_mcs=theta)
        semi = np.array([
            run(reference_point(channel=ch, seed=s, controller=cfg))[0]
            .avg_ee_bits_per_joule
            for s in seeds
        ])
        gains.append(semi.mean() / base.mean() - 1.0)
    elapsed = time.perf_counter() - t0
    ok = all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))
    report(8, "gain non-increasing with MCS floor", ok,
           ", ".join(f"floor {t}: {g:+.1%}" for t, g in zip(levels, gains)))
    budget(8, "MCS floor trend", elapsed, 120.0)


# ------------------------------------------------------------------ 9


def test_criterion_09_simo_mimo_static_power_crossover():
    t0 = time.perf_counter()
    template = reference_point(
        channel=make_channel(430.0, -72.5, geometry_db=23.0, alpha=0.995,
                             speed_kmh=3.0),
        strategy=FIXED_BASELINE,
        duration_ttis=3000,
        seed=11,
    )
    powers = [float(p) for p in range(21, 45, 2)]
    pts = sweep(template, "fixed_power", powers, repetitions=8,
                strategies=[FIXED_BASELINE], antenna_modes=[SIMO, MIMO])
    curve = {}
    for p in pts:
        curve.setdefault(p.strategy, {})[p.value] = p.mean_ee
    simo = np.array([curve[f"{FIXED_BASELINE}/SIMO"][p] for p in powers])
    mimo = np.array([curve[f"{FIXED_BASELINE}/MIMO"][p] for p in powers])
    elapsed = time.perf_counter() - t0

    k_s, k_m = int(np.argmax(simo)), int(np.argmax(mimo))
    report(9, "both EE curves have interior maxima",
           0 < k_s < len(powers) - 1 and 0 < k_m < len(powers) - 1,
           f"SIMO peak {powers[k_s]:.0f} dBm, MIMO peak {powers[k_m]:.0f} dBm")

    diff = mimo - simo
    above = np.flatnonzero(diff >= 0.0)
    ok_cross = (
        len(above) > 0
        and above[0] > 0
        and np.all(diff[:above[0]] < 0.0)
        and np.all(diff[above[0]:] >= 0.0)
    )
    report(9, "single SIMO/MIMO crossover", ok_cross,
           f"MIMO overtakes at {powers[above[0]] if len(above) else float('nan'):.0f} dBm")
    budget(9, "static power crossover", elapsed, 180.0)


# ----------------------------------------------------------------- 10


def test_criterion_10_mode_choice_ee_equals_sum_tbs():
    t0 = time.perf_counter()
    table = reference_table()
    params = make_channel(500.0, -72.5, geometry_db=23.0, alpha=0.995)
    pm2 = PowerModelParams(m_a=2)
    rng = np.random.default_rng(10)
    agree = 0
    for _ in range(1000):
        taps = int(rng.integers(1, 4))
        g = (rng.normal(size=(taps, 2, 2)) + 1j * rng.normal(size=(taps, 2, 2)))
        g *= rng.uniform(0.3, 1.5)
        p_w = float(rng.uniform(0.5, 19.95))

        fb = select_mode_and_feedback(g, params, table, p_w)  # sum-TBS winner

        # independent EE winner over the same eight hypotheses, same
        # preference order; EE = sum TBS over the shared power cost
        cost = p_w / pm2.eta + pm2.overhead_w
        best = None
        best_ee = -1.0
        for pci, w in enumerate(pci_codebook()):
            e1, e2, combined = stream_gains(g, w)
            c_s = cqi_from_sinr(table, hs_sinr_db(p_w, params.path_gain_lin * combined, params))
            tbs_s = table.tbs(c_s) if c_s >= 1 else 0
            if tbs_s / cost > best_ee:
                best, best_ee = (SINGLE, pci, c_s, None), tbs_s / cost
            c1 = cqi_from_sinr(table, hs_sinr_db(0.5 * p_w, params.path_gain_lin * e1, params))
            c2 = cqi_from_sinr(table, hs_sinr_db(0.5 * p_w, params.path_gain_lin * e2, params))
            if c1 >= 1 and c2 >= 1:
                tbs_d = table.tbs(c1) + table.tbs(c2)
                if tbs_d / cost > best_ee:
                    best, best_ee = (DUAL, pci, c1, c2), tbs_d / cost
        want = (fb.mode, fb.pci, fb.cqi_primary, fb.cqi_secondary)
        if want == best:
            agree += 1
    elapsed = time.perf_counter() - t0
    report(10, "EE mode choice equals sum-TBS mode choice", agree == 1000,
           f"{agree}/1000 draws identical")
    budget(10, "mode-choice equivalence", elapsed, 5.0)


# ----------------------------------------------------------------- 11


def test_criterion_11_codebook_invariants():
    worst = 0.0
    for w in pci_codebook():
        worst = max(worst, abs(abs(w.w1) ** 2 + abs(w.w2) ** 2 - 1.0))
        worst = max(worst, abs(abs(w.w3) ** 2 + abs(w.w4) ** 2 - 1.0))
        worst = max(worst, abs(w.w1 * np.conj(w.w3) + w.w2 * np.conj(w.w4)))
        worst = max(worst, abs(w.w1 - w.w3))
        worst = max(worst, abs(w.w4 + w.w2))
    report(11, "precoder codebook identities", worst <= 1e-15,
           f"worst residual {worst:.1e}")


# ----------------------------------------------------------------- 12


def test_criterion_12_outer_loop_convergence():
    t0 = time.perf_counter()
    ch = make_channel(1000.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0)
    sc = reference_point(channel=ch, antenna_mode=SISO, strategy=FIXED_BASELINE,
                         duration_ttis=100_000, seed=1,
                         power_model=power_model_for_mode(SISO, PowerModelParams()))
    m = run(sc)[0]
    elapsed = time.perf_counter() - t0
    report(12, "outer loop holds the 10% error target",
           abs(m.nack_rate - 0.10) <= 0.03,
           f"NACK rate {m.nack_rate:.4f} over {m.duration_ttis} TTIs")
    budget(12, "outer-loop convergence", elapsed, 30.0)
