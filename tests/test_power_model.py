"""Power model oracles: hand-derived constants and grid-scan checks."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsdpa_ee.power_model import (
    PowerModelParams,
    dbm_to_watt,
    watt_to_dbm,
    total_power,
    shannon_se,
    shannon_ee,
    optimal_shannon_power,
)
from hsdpa_ee.sim_engine import MIMO, _with_chain_count, power_model_for_mode

P5 = PowerModelParams(eta=0.38, p_cir_w=6.0, p_sta_w=6.0, m_a=1)


def test_dbm_to_watt_anchors():
    assert dbm_to_watt(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watt(0.0) == pytest.approx(1e-3, rel=1e-12)
    # 43 dBm = 10^1.3 W
    assert dbm_to_watt(43.0) == pytest.approx(19.952623149688797, rel=1e-12)


def test_dbm_watt_round_trip():
    rng = np.random.default_rng(7)
    p = rng.uniform(-40.0, 50.0, size=200)
    assert np.allclose(watt_to_dbm(dbm_to_watt(p)), p, atol=1e-10)


def test_dbm_rejects_non_finite():
    with pytest.raises(ValueError):
        dbm_to_watt(np.inf)
    with pytest.raises(ValueError):
        watt_to_dbm(0.0)
    with pytest.raises(ValueError):
        watt_to_dbm(-1.0)


def test_total_power_hand_values():
    # 19.9526 / 0.38 + 1*6 + 6, evaluated by hand
    assert total_power(19.9526, P5) == pytest.approx(64.50684210526316, abs=1e-6)
    # 10 / 0.38 + 2*6 + 6 with both antennas active
    p2 = PowerModelParams(m_a=2)
    assert total_power(10.0, p2) == pytest.approx(44.31578947368421, abs=1e-6)
    # zero radiated power still burns the overhead
    assert total_power(0.0, p2) == pytest.approx(18.0, abs=1e-12)


def test_total_power_rejects_negative():
    with pytest.raises(ValueError):
        total_power(-0.1, P5)
    with pytest.raises(ValueError):
        PowerModelParams(eta=0.0)
    with pytest.raises(ValueError):
        PowerModelParams(m_a=0)


def test_shannon_se_anchor_and_monotone():
    # P = N0*W gives exactly 1 bit/s/Hz
    assert shannon_se(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)
    p = np.linspace(0.0, 30.0, 1000)
    se = shannon_se(p, 0.5)
    assert np.all(np.diff(se) > 0.0)
    with pytest.raises(ValueError):
        shannon_se(1.0, 0.0)


def test_shannon_ee_hand_value():
    # 5e6 * log2(2) / (1/0.38 + 12)
    expect = 5e6 / (1.0 / 0.38 + 12.0)
    assert shannon_ee(1.0, P5, 1.0) == pytest.approx(expect, rel=1e-12)
    with pytest.raises(ValueError):
        shannon_ee(1.0, P5, 0.0)


def _grid_argmax(params, n0w, p_max, n=100_000):
    grid = np.linspace(0.0, p_max, n)
    ee = shannon_ee(grid, params, n0w)
    return grid, ee, grid[int(np.argmax(ee))]


def test_ee_unimodal_on_grid():
    grid, ee, _ = _grid_argmax(P5, 1.0, 20.0)
    d = np.diff(ee)
    # strictly rising then strictly falling: at most one sign change
    sign_changes = int(np.sum(np.diff(np.sign(d[np.abs(d) > 0.0])) != 0))
    assert sign_changes <= 1
    assert ee[0] == 0.0 and ee[-1] < np.max(ee)


def test_golden_section_matches_grid_scan():
    grid, ee, p_grid = _grid_argmax(P5, 1.0, 20.0)
    p_opt = optimal_shannon_power(P5, 1.0, p_max_w=20.0, tol_w=1e-6)
    spacing = grid[1] - grid[0]
    assert abs(p_opt - p_grid) <= max(1e-3 * p_grid, spacing)
    # the search output is at least as good as the best grid point
    assert shannon_ee(p_opt, P5, 1.0) >= np.max(ee) - 1e-6


def test_more_static_power_pushes_optimum_up():
    base = PowerModelParams(eta=0.38, p_cir_w=6.0, p_sta_w=6.0, m_a=1)
    heavy = PowerModelParams(eta=0.38, p_cir_w=6.0, p_sta_w=12.0, m_a=1)
    p_base = optimal_shannon_power(base, 1.0, p_max_w=50.0)
    p_heavy = optimal_shannon_power(heavy, 1.0, p_max_w=50.0)
    assert p_heavy > p_base
    # grid scan agrees on the ordering
    _, _, g_base = _grid_argmax(base, 1.0, 50.0)
    _, _, g_heavy = _grid_argmax(heavy, 1.0, 50.0)
    assert g_heavy > g_base


def test_zero_overhead_drives_optimum_to_zero():
    # without circuit/static power EE decreases in P, optimum at the origin
    free = PowerModelParams(eta=0.38, p_cir_w=0.0, p_sta_w=0.0, m_a=1)
    p_opt = optimal_shannon_power(free, 1.0, p_max_w=20.0, tol_w=1e-6)
    assert p_opt < 1e-4


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(0.05, 1.0),
    st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
    st.one_of(st.just(0.0), st.floats(0.0, 600.0)),
    st.integers(1, 4),
)
def test_overhead_w_is_read_once_and_is_not_a_field(eta, p_cir_w, p_sta_w, m_a):
    # the selectors read overhead_w on every call, so it is computed on
    # the first read and kept; the kept value must not make equal
    # parameters differ, since _with_chain_count's lru_cache and the
    # selectors' searches rely on their equality and hash
    pm = PowerModelParams(eta=eta, p_cir_w=p_cir_w, p_sta_w=p_sta_w, m_a=m_a)
    twin = PowerModelParams(eta=eta, p_cir_w=p_cir_w, p_sta_w=p_sta_w, m_a=m_a)
    first = pm.overhead_w
    assert first.hex() == (m_a * p_cir_w + p_sta_w).hex()
    assert pm.overhead_w is first
    assert "overhead_w" not in {f.name for f in dataclasses.fields(pm)}
    assert "overhead_w" not in repr(pm) and repr(pm) == repr(twin)
    assert pm == twin and hash(pm) == hash(twin)
    assert _with_chain_count(pm, m_a + 1) is _with_chain_count(twin, m_a + 1)
    assert dataclasses.replace(pm) == twin


def test_the_mimo_power_model_keeps_every_other_field_of_its_base():
    # the 2x2 model is its base with two chains, whatever the base's
    # amplifier and overhead figures are
    base = PowerModelParams(eta=0.25, p_cir_w=7.5, p_sta_w=11.0, m_a=1)
    default = PowerModelParams()
    assert all(getattr(base, f) != getattr(default, f) for f in ("eta", "p_cir_w", "p_sta_w"))
    mimo = power_model_for_mode(MIMO, base)
    assert mimo == dataclasses.replace(base, m_a=2)
    assert power_model_for_mode(MIMO, base) is mimo
