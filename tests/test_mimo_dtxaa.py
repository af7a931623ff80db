"""Dual-stream oracles: codebook identities, receiver behavior on
constructed channels, exhaustive hypothesis/pair comparisons, and the
fixed-power mode-selection equivalence.
"""

import numpy as np
import pytest

from hsdpa_ee.ee_controller import (
    KEEP,
    RECONFIGURE,
    ControllerConfig,
    ControllerState,
    TtiFeedback,
    estimate_ee,
    new_controller_state,
    on_tti,
)
from hsdpa_ee.link_channel import hs_sinr_db, make_channel
from hsdpa_ee.mcs_table import cqi_from_sinr, default_table, make_uniform_table
from hsdpa_ee.mimo_dtxaa import (
    DUAL,
    SINGLE,
    MimoFeedback,
    enumerate_equal_delta_pairs,
    estimate_dual_power,
    pci_codebook,
    select_mode_and_feedback,
    select_optimal_dual,
    stream_gain_series,
    stream_gains,
)
from hsdpa_ee.power_model import PowerModelParams

PM2 = PowerModelParams(eta=0.38, p_cir_w=6.0, p_sta_w=6.0, m_a=2)


def mimo_channel_params():
    return make_channel(500.0, -72.5, geometry_db=23.0, alpha=0.995)


def state_with(gains: np.ndarray) -> np.ndarray:
    """A (n_taps, 2, 2) gain stack from one or more 2x2 matrices."""
    g = np.asarray(gains, dtype=complex)
    if g.ndim == 2:
        g = g[None, :, :]
    return g


def stream_sinrs(state, weights, p_per_stream_w, params):
    """dB SINR of both nulled streams at equal per-stream power."""
    e1, e2, _ = stream_gains(state, weights)
    return hs_sinr_db(p_per_stream_w, params.path_gain_lin * np.array([e1, e2]), params)


# ------------------------------------------------------------- codebook


def test_codebook_entry_zero():
    cb = pci_codebook()
    assert len(cb) == 4
    assert cb[0].w2 == 0.5 * (1 + 1j)
    assert cb[0].w1 == pytest.approx(1 / np.sqrt(2), abs=1e-15)


def test_codebook_invariants_exact():
    for w in pci_codebook():
        assert abs(abs(w.w1) ** 2 + abs(w.w2) ** 2 - 1.0) <= 1e-15
        assert abs(abs(w.w3) ** 2 + abs(w.w4) ** 2 - 1.0) <= 1e-15
        assert abs(w.w1 * np.conj(w.w3) + w.w2 * np.conj(w.w4)) <= 1e-15
        assert w.w1 == w.w3
        assert w.w4 == -w.w2


def test_codebook_w2_options_distinct():
    seen = {w.w2 for w in pci_codebook()}
    assert seen == {0.5 * (1 + 1j), 0.5 * (1 - 1j), 0.5 * (-1 + 1j), 0.5 * (-1 - 1j)}


# ------------------------------------------------------- per-stream SINR


def test_identity_channel_gives_equal_streams():
    ch = mimo_channel_params()
    st = state_with(np.eye(2))
    for w in pci_codebook():
        s1, s2 = stream_sinrs(st, w, 1.0, ch)
        assert s1 == pytest.approx(s2, abs=1e-9)


def test_power_doubling_adds_3db_to_both_streams():
    rng = np.random.default_rng(8)
    taps = rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2))
    st = state_with(taps)
    w = pci_codebook()[2]
    ch = mimo_channel_params()
    for p in (0.05, 1.0, 7.0):
        a1, a2 = stream_sinrs(st, w, p, ch)
        b1, b2 = stream_sinrs(st, w, 2 * p, ch)
        assert b1 - a1 == pytest.approx(10 * np.log10(2.0), abs=1e-12)
        assert b2 - a2 == pytest.approx(10 * np.log10(2.0), abs=1e-12)


def test_rank_one_channel_kills_secondary_stream():
    # rank-1 matrix whose row space matches the primary precoder: the
    # secondary stream sees a null channel, the primary keeps its gain
    w = pci_codebook()[0]
    u = np.array([1.0, 0.6 - 0.3j])
    h = np.outer(u, np.conj(w.primary))
    st = state_with(h)
    s1, s2 = stream_sinrs(st, w, 2.0, mimo_channel_params())
    assert np.isfinite(s1)
    assert s1 - s2 >= 20.0


def test_stream_gain_series_matches_scalar_path():
    # per tap, the zero-forcing gain of stream i is 1 / [(A^H A)^-1]_ii
    # with A = [H w_primary, H w_secondary]; the combined gain is |H w_primary|^2
    rng = np.random.default_rng(12)
    block = rng.standard_normal((4, 2, 2, 50)) + 1j * rng.standard_normal((4, 2, 2, 50))
    w = pci_codebook()[1]
    e1, e2, comb = stream_gain_series(block, w)
    for t in (0, 17, 49):
        want = np.zeros(3)
        for h in block[:, :, :, t]:
            a = np.column_stack([h @ w.primary, h @ w.secondary])
            inv = np.linalg.inv(a.conj().T @ a)
            want += [1.0 / inv[0, 0].real, 1.0 / inv[1, 1].real,
                     np.linalg.norm(a[:, 0]) ** 2]
        assert e1[t] == pytest.approx(want[0], rel=1e-9)
        assert e2[t] == pytest.approx(want[1], rel=1e-9)
        assert comb[t] == pytest.approx(want[2], rel=1e-9)
        assert stream_gains(block[:, :, :, t], w) == (e1[t], e2[t], comb[t])


def test_mode_selection_rejects_negative_power():
    st = state_with(np.eye(2))
    with pytest.raises(ValueError):
        select_mode_and_feedback(st, mimo_channel_params(), default_table(), -1.0)


# ------------------------------------------------------- mode selection


def all_hypotheses(state, table, p_hs_w):
    """Ordered hypothesis list: single mode first, then dual, each by
    ascending PCI; mirrors the documented tie-break preference."""
    params = mimo_channel_params()
    out = []
    for pci, w in enumerate(pci_codebook()):
        _, _, comb = stream_gains(state, w)
        num = params.sf * p_hs_w * params.path_gain_lin * comb
        sinr = 10 * np.log10(num / params.denominator_w) if num > 0 else -np.inf
        c = cqi_from_sinr(table, sinr)
        out.append((SINGLE, pci, c, None, table.tbs(c) if c >= 1 else 0))
    for pci, w in enumerate(pci_codebook()):
        e1, e2, _ = stream_gains(state, w)
        tbs = 0
        cqis = []
        for e in (e1, e2):
            num = params.sf * 0.5 * p_hs_w * params.path_gain_lin * e
            sinr = 10 * np.log10(num / params.denominator_w) if num > 0 else -np.inf
            c = cqi_from_sinr(table, sinr)
            cqis.append(c)
            tbs += table.tbs(c) if c >= 1 else 0
        if min(cqis) < 1:
            tbs = -1  # dual needs two live streams
        out.append((DUAL, pci, cqis[0], cqis[1], tbs))
    return out


def test_mode_selection_matches_exhaustive_oracle():
    table = default_table()
    rng = np.random.default_rng(314)
    modes = {SINGLE: 0, DUAL: 0}
    for _ in range(300):
        n_taps = int(rng.integers(1, 5))
        taps = (
            rng.standard_normal((n_taps, 2, 2)) + 1j * rng.standard_normal((n_taps, 2, 2))
        ) * float(rng.uniform(0.2, 1.5))
        st = state_with(taps)
        p = float(10 ** rng.uniform(-2.0, 1.3))
        fb = select_mode_and_feedback(st, mimo_channel_params(), table, p)
        hyps = all_hypotheses(st, table, p)
        best = max(h[4] for h in hyps)
        chosen = next(h for h in hyps if h[4] == best)  # first max = tie-break
        assert (fb.mode, fb.pci) == (chosen[0], chosen[1])
        assert fb.cqi_primary == chosen[2]
        if fb.mode == DUAL:
            assert fb.cqi_secondary == chosen[3]
        modes[fb.mode] += 1
    assert modes[SINGLE] >= 30 and modes[DUAL] >= 30


def test_faded_second_eigenmode_selects_single():
    w = pci_codebook()[0]
    h = np.outer(np.array([1.0, 0.4 + 0.1j]), np.conj(w.primary))
    st = state_with(h)
    fb = select_mode_and_feedback(st, mimo_channel_params(), default_table(), 5.0)
    assert fb.mode == SINGLE
    assert fb.cqi_primary >= 1 and fb.cqi_secondary is None


def test_strong_well_conditioned_channel_selects_dual():
    st = state_with(np.eye(2))
    fb = select_mode_and_feedback(st, mimo_channel_params(), default_table(), 10.0)
    assert fb.mode == DUAL
    assert fb.cqi_primary == 30 and fb.cqi_secondary == 30


def test_mode_by_tbs_equals_mode_by_ee_at_fixed_power():
    # both estimates share the denominator at fixed power, so ranking by
    # efficiency must equal ranking by total TBS, exactly
    table = default_table()
    rng = np.random.default_rng(2718)
    p_dbm = 38.0
    p_w = 10 ** ((p_dbm - 30) / 10)
    agree = 0
    for _ in range(1000):
        taps = (
            rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        ) * float(rng.uniform(0.1, 2.0))
        st = state_with(taps)
        hyps = all_hypotheses(st, table, p_w)
        tbs_single = max(h[4] for h in hyps if h[0] == SINGLE)
        tbs_dual = max(h[4] for h in hyps if h[0] == DUAL)
        if tbs_single <= 0 and tbs_dual <= 0:
            continue
        ee_single = estimate_ee(p_dbm, tbs_single, PM2) if tbs_single > 0 else 0.0
        ee_dual = estimate_ee(p_dbm, tbs_dual, PM2) if tbs_dual > 0 else 0.0
        assert (ee_dual > ee_single) == (tbs_dual > tbs_single)
        fb = select_mode_and_feedback(st, mimo_channel_params(), table, p_w)
        want = DUAL if tbs_dual > tbs_single else SINGLE
        assert fb.mode == want
        agree += 1
    assert agree >= 900


def test_feedback_validation():
    with pytest.raises(ValueError):
        MimoFeedback(mode="triple", pci=0, cqi_primary=5)
    with pytest.raises(ValueError):
        MimoFeedback(mode=DUAL, pci=0, cqi_primary=5)
    MimoFeedback(mode=DUAL, pci=0, cqi_primary=5, cqi_secondary=3)


@pytest.mark.parametrize("mode, cqis", [
    (DUAL, (2.0, 3)), (DUAL, (2, 3.0)), (DUAL, (True, 3)), (DUAL, (2, np.True_)),
    (SINGLE, (2.0,)), (SINGLE, (False,)),
])
def test_feedback_rejects_a_cqi_that_is_not_an_integer_index(mode, cqis):
    # a float CQI used to reach select_optimal_dual and fail as a numpy
    # IndexError there
    with pytest.raises(ValueError, match="integer indices"):
        MimoFeedback(mode, 0, *cqis)
    ints = MimoFeedback(mode, 0, *(np.int64(3) for _ in cqis))
    assert ints == MimoFeedback(mode, 0, *(3 for _ in cqis))


# ------------------------------------------------------ equal-delta pairs


def test_pair_list_includes_reference():
    t = default_table()
    assert (7, 19) in enumerate_equal_delta_pairs(7, 19, t)


def test_pair_list_on_uniform_table_is_diagonal():
    t = default_table()
    i1, i2 = 12, 7
    got = set(enumerate_equal_delta_pairs(i1, i2, t))
    lo = max(1 - i1, 1 - i2)
    hi = min(30 - i1, 30 - i2)
    want = {(i1 + k, i2 + k) for k in range(lo, hi + 1)}
    assert got == want


def test_pair_list_validates_inputs():
    t = default_table()
    with pytest.raises(ValueError):
        enumerate_equal_delta_pairs(0, 5, t)


# ------------------------------------------------------ dual power shift


def test_dual_power_identity():
    t = default_table()
    assert estimate_dual_power(40.0, 10, 10, t) == 40.0


def test_dual_power_double_shift():
    t = default_table()  # 1 dB per level
    assert estimate_dual_power(40.0, 10, 7, t) == pytest.approx(34.0, abs=1e-12)


def test_dual_power_stream_symmetric():
    t = default_table()
    for k in (-4, -1, 0, 2, 6):
        via_1 = estimate_dual_power(40.0, 10, 10 + k, t)
        via_2 = estimate_dual_power(40.0, 17, 17 + k, t)
        assert via_1 == pytest.approx(via_2, abs=1e-12)


def test_dual_power_validates_index():
    t = default_table()
    with pytest.raises(ValueError):
        estimate_dual_power(40.0, 0, 5, t)
    with pytest.raises(ValueError):
        estimate_dual_power(40.0, 5, 31, t)


# -------------------------------------------------- dual-pair optimizer


def brute_force_dual(p_dbm, i1, i2, delta, table, cfg, pm):
    thr = [table.threshold(j) for j in range(1, len(table.entries) + 1)]
    pairs = []
    for a in range(1, len(thr) + 1):
        for b in range(1, len(thr) + 1):
            d1 = thr[a - 1] - thr[i1 - 1]
            d2 = thr[b - 1] - thr[i2 - 1]
            if d1 == d2:
                pairs.append((a, b))
    rows = []
    for j1, j2 in pairs:
        p = p_dbm + 2.0 * (thr[j1 - 1] - thr[i1 - 1]) + delta
        w = 10.0 ** ((p - 30.0) / 10.0)
        ee = (table.tbs(j1) + table.tbs(j2)) / (
            (cfg.tti_ms * 1e-3) * (w / pm.eta + pm.overhead_w)
        )
        rows.append((p, j1, j2, ee))
    rows.sort(key=lambda r: r[0])  # stable, enumeration order on ties
    pos_min = next(
        (k for k, r in enumerate(rows) if min(r[1], r[2]) >= cfg.min_mcs), None
    )
    n_afford = sum(1 for r in rows if r[0] <= cfg.p_max_dbm)
    if pos_min is None or rows[pos_min][0] > cfg.p_max_dbm:
        pos = n_afford - 1 if n_afford >= 1 else 0
        r = rows[pos]
        return (r[1], r[2]), cfg.p_max_dbm, r[3], True
    pos_star = max(range(len(rows)), key=lambda k: (rows[k][3], -k))
    pos = min(max(pos_star, pos_min), n_afford - 1)
    r = rows[pos]
    return (r[1], r[2]), r[0], r[3], False


def test_dual_optimizer_matches_brute_force():
    t = default_table()
    rng = np.random.default_rng(5150)
    n_infeasible = n_clamped = 0
    for _ in range(400):
        i1 = int(rng.integers(1, 31))
        i2 = int(rng.integers(1, 31))
        p = float(rng.uniform(20.0, 45.0))
        delta = float(rng.uniform(-3.0, 3.0))
        cfg = ControllerConfig(
            p_max_dbm=float(rng.uniform(30.0, 50.0)),
            min_mcs=int(rng.integers(1, 26)),
        )
        fb = MimoFeedback(DUAL, 0, i1, i2)
        got = select_optimal_dual(p, fb, delta, t, cfg, PM2)
        want = brute_force_dual(p, i1, i2, delta, t, cfg, PM2)
        assert got.pair == want[0]
        assert got.power_dbm == pytest.approx(want[1], abs=1e-9)
        assert got.ee == pytest.approx(want[2], rel=1e-9)
        assert got.infeasible == want[3]
        if want[3]:
            n_infeasible += 1
        elif got.pair != (i1, i2):
            n_clamped += 1
    assert n_infeasible >= 10


def test_dual_optimizer_swap_symmetric():
    t = default_table()
    cfg = ControllerConfig()
    a = select_optimal_dual(40.0, MimoFeedback(DUAL, 0, 14, 9), 0.0, t, cfg, PM2)
    b = select_optimal_dual(40.0, MimoFeedback(DUAL, 0, 9, 14), 0.0, t, cfg, PM2)
    assert a.power_dbm == pytest.approx(b.power_dbm, abs=1e-12)
    assert a.ee == pytest.approx(b.ee, rel=1e-12)
    assert a.pair == (b.pair[1], b.pair[0])


def test_dual_optimizer_infeasible_mirrors_siso():
    t = default_table()
    cfg = ControllerConfig(p_max_dbm=30.0, min_mcs=25)
    got = select_optimal_dual(40.0, MimoFeedback(DUAL, 0, 10, 10), 0.0, t, cfg, PM2)
    assert got.infeasible
    assert got.power_dbm == 30.0
    assert min(got.pair) < 25


def test_dual_optimizer_requires_dual_feedback():
    t = default_table()
    with pytest.raises(ValueError):
        select_optimal_dual(
            40.0, MimoFeedback(SINGLE, 0, 10), 0.0, t, ControllerConfig(), PM2
        )


def test_dual_optimizer_rejects_min_mcs_beyond_table():
    # as select_optimal does, not an infeasible full-power fallback
    t = default_table()
    assert len(t) == 30
    with pytest.raises(ValueError, match="min_mcs"):
        select_optimal_dual(
            40.0, MimoFeedback(DUAL, 0, 11, 13), 0.0, t, ControllerConfig(min_mcs=31), PM2
        )


def test_zero_second_stream_never_beats_single_at_same_power():
    # with equal denominators the comparison reduces to total bits
    for tbs1, tbs2 in ((1000.0, 500.0), (5000.0, 137.0)):
        only_first = estimate_ee(40.0, tbs1, PM2)
        both = estimate_ee(40.0, tbs1 + tbs2, PM2)
        assert both > only_first


# ------------------------------------------------- controller step, 2x2


def test_on_tti_dual_report_configures_both_streams():
    t = default_table()
    cfg = ControllerConfig()
    report = MimoFeedback(DUAL, 2, 14, 9)
    st = new_controller_state(cfg, power_dbm=40.0)
    st, dec = on_tti(st, TtiFeedback(report, measured_power_dbm=40.0), t, cfg, PM2,
                     select_optimal_dual)
    want = select_optimal_dual(40.0, report, 0.0, t, cfg, PM2)
    assert dec.action == RECONFIGURE
    assert (dec.levels, dec.power_dbm) == (want.pair, want.power_dbm)
    assert st.power_dbm == want.power_dbm and st.timer_ms == 0.0


def test_on_tti_dual_report_amc_shifts_both_levels():
    t = default_table()  # thresholds -4.5 + (cqi-1)
    cfg = ControllerConfig()
    st = ControllerState(power_dbm=41.0, offset_db=-1.5, ee_smoothed=1e12)
    fb = TtiFeedback(MimoFeedback(DUAL, 0, 14, 9), acks=(True, False),
                     measured_power_dbm=40.0)
    st, dec = on_tti(st, fb, t, cfg, PM2, select_optimal_dual)
    assert dec.action == KEEP
    # one offset step per stream outcome, in stream order
    assert st.offset_db == pytest.approx(-1.5 - cfg.offset_step_down_db + cfg.offset_step_up_db)
    # 1 dB more power than at the measurement plus ~1.06 dB of negative
    # offset: both reported levels move up by two 1 dB steps
    assert dec.levels == (16, 11)

