"""Channel model oracles.

Statistical checks run on frozen seeds so they are deterministic; the
distributional oracles (Rayleigh envelope, Jakes autocorrelation, tap
power split) were sized so the frozen draws sit well inside tolerance.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from hsdpa_ee.link_channel import (
    ChannelParams,
    _jakes_bin_energies,
    doppler_hz,
    hs_sinr_db,
    make_channel,
    pa3_profile,
    path_gain_db,
    synth_fading,
)
from hsdpa_ee.mcs_table import cqi_from_sinr, default_table
from hsdpa_ee.power_model import watt_to_dbm
from hsdpa_ee.sim_engine import fading_block

TTI_S = 2e-3


# ---------------------------------------------------------------- geometry


def test_path_gain_anchors():
    assert path_gain_db(1000.0) == pytest.approx(-128.1, abs=1e-12)
    assert path_gain_db(100.0) == pytest.approx(-90.5, abs=1e-12)


def test_path_gain_monotone_decreasing():
    d = np.linspace(50.0, 3000.0, 200)
    g = np.array([path_gain_db(x) for x in d])
    assert np.all(np.diff(g) < 0.0)


def test_path_gain_rejects_nonpositive_distance():
    for bad in (0.0, -5.0):
        with pytest.raises(ValueError):
            path_gain_db(bad)


def test_pa3_profile_normalized():
    weights = pa3_profile()
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    # frozen hand values: linear powers of (0, -9.7, -19.2, -22.8) dB, normalized
    expected = (0.8893453013, 0.0952950659, 0.0106922823, 0.0046673505)
    assert weights == pytest.approx(expected, abs=1e-9)


def test_channel_params_validation():
    good = dict(i_or_w=1e-10, i_oc_w=1e-13)
    ChannelParams(**good)
    with pytest.raises(ValueError):
        ChannelParams(alpha=1.5, **good)
    with pytest.raises(ValueError):
        ChannelParams(i_or_w=-1e-10, i_oc_w=0.0)
    with pytest.raises(ValueError):
        ChannelParams(distance_m=0.0, **good)


def test_make_channel_geometry_split():
    # G = I_or / (I_oc + N0 W): back out I_oc and check the pieces
    ch = make_channel(500.0, -72.5, geometry_db=23.0, alpha=0.995)
    assert ch.i_or_w == pytest.approx(10 ** (-10.25), rel=1e-12)
    g_lin = ch.i_or_w / (ch.i_oc_w + ch.noise_w)
    assert 10 * np.log10(g_lin) == pytest.approx(23.0, abs=1e-9)
    assert ch.i_oc_w == pytest.approx(1.2372e-13, rel=1e-3)
    assert ch.alpha == 0.995


def test_make_channel_noise_limited_clips_interference():
    # geometry better than the noise floor allows -> i_oc pinned at 0
    ch = make_channel(200.0, -100.0, geometry_db=60.0)
    assert ch.i_oc_w == 0.0
    assert ch.denominator_w >= ch.noise_w


# ---------------------------------------------------------------- fading


def test_doppler_value():
    assert doppler_hz(3.0, 2e9) == pytest.approx(5.559401586635867, rel=1e-12)
    assert doppler_hz(0.0, 2e9) == 0.0


def test_fading_mean_power_per_tap_within_2pct():
    weights = pa3_profile()
    fd = doppler_hz(3.0, 2e9)
    rng = np.random.default_rng(42)
    x = synth_fading(4, 1_000_000, TTI_S, fd, rng)
    x *= np.sqrt(np.array(weights))[:, None]
    emp = np.mean(np.abs(x) ** 2, axis=1)
    assert np.all(np.abs(emp / np.array(weights) - 1.0) < 0.02)


def test_fading_envelope_rayleigh_gof():
    # KS significance assumes independent samples, so the envelope of the
    # 1e6-step trajectory is tested on a lag-decimated subsequence (the
    # Doppler coherence at 3 km/h spans tens of TTIs).
    fd = doppler_hz(3.0, 2e9)
    rng = np.random.default_rng(2024)
    x = synth_fading(1, 1_000_000, TTI_S, fd, rng)[0]
    env = np.abs(x[::101])
    res = stats.kstest(env, "rayleigh", args=(0.0, np.sqrt(0.5)))
    assert res.pvalue > 0.01


def test_fading_marginals_rayleigh_across_processes():
    # independent processes sampled at one instant are iid by construction
    fd = doppler_hz(3.0, 2e9)
    rng = np.random.default_rng(7)
    cols = synth_fading(4096, 8, TTI_S, fd, rng)[:, 0]
    res = stats.kstest(np.abs(cols), "rayleigh", args=(0.0, np.sqrt(0.5)))
    assert res.pvalue > 0.01


def test_fading_autocorrelation_tracks_jakes():
    fd = doppler_hz(3.0, 2e9)
    rng = np.random.default_rng(11)
    y = synth_fading(64, 65536, TTI_S, fd, rng)
    den = np.mean(np.abs(y) ** 2)
    for lag in (1, 5, 20):
        emp = np.mean(np.real(y[:, :-lag] * np.conj(y[:, lag:]))) / den
        ref = special.j0(2 * np.pi * fd * lag * TTI_S)
        assert emp == pytest.approx(ref, abs=0.05)


def one_shot_synth(n_procs, n_steps, dt_s, f_d, rng):
    """synth_fading as one (n_procs, n_fft) spectrum and one batched
    inverse FFT: the form the per-process synthesis must reproduce."""
    if f_d * dt_s < 1e-12:
        g = (rng.standard_normal((n_procs, 1)) + 1j * rng.standard_normal((n_procs, 1)))
        g *= np.sqrt(0.5)
        return np.broadcast_to(g, (n_procs, n_steps)).copy()
    n_fft = 4096
    while n_fft < n_steps:
        n_fft *= 2
    energies = _jakes_bin_energies(n_fft, dt_s, f_d)
    z = rng.standard_normal((n_procs, n_fft)) + 1j * rng.standard_normal((n_procs, n_fft))
    z *= np.sqrt(0.5)
    spectrum = z * (n_fft * np.sqrt(energies))[None, :]
    x = np.fft.ifft(spectrum, axis=1)
    return np.ascontiguousarray(x[:, :n_steps])


def rows_of(n_procs, n_steps, dt_s, f_d, rng):
    """The rows synth_fading hands to a row function, copied: it may
    reuse a row's buffer once the call returns."""
    rows = []
    assert synth_fading(n_procs, n_steps, dt_s, f_d, rng, lambda h: rows.append(h.copy())) is None
    return rows


BIT_GENERATORS = (np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64)


def assert_same_state(a, b):
    # field by field: MT19937's state holds an array
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], dict):
            assert_same_state(a[key], b[key])
        else:
            assert np.array_equal(a[key], b[key]), key


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_procs=st.integers(1, 16),
    n_steps=st.one_of(st.integers(1, 4095), st.integers(4096, 20_000),
                      st.sampled_from([4096, 4097, 8191, 8192, 8193, 70_000])),
    dt_s=st.sampled_from([TTI_S, 1.0 / 1500.0]),
    f_d=st.one_of(st.just(0.0), st.floats(0.0, 4.9e-10), st.floats(1.0, 300.0)),
    seed=st.integers(0, 2**64 - 1),
    bit_gen=st.sampled_from(BIT_GENERATORS),
)
@example(n_procs=8, n_steps=70_000, dt_s=TTI_S, f_d=5.56, seed=0, bit_gen=np.random.PCG64)
@example(n_procs=16, n_steps=4097, dt_s=TTI_S, f_d=300.0, seed=1, bit_gen=np.random.PCG64)
@example(n_procs=3, n_steps=5000, dt_s=TTI_S, f_d=5.56, seed=2, bit_gen=np.random.MT19937)
@example(n_procs=3, n_steps=5000, dt_s=TTI_S, f_d=5.56, seed=3, bit_gen=np.random.Philox)
@example(n_procs=3, n_steps=5000, dt_s=TTI_S, f_d=5.56, seed=4, bit_gen=np.random.SFC64)
def test_synthesis_bit_equals_the_one_shot_block(n_procs, n_steps, dt_s, f_d, seed, bit_gen):
    # the generator is left where the block form leaves it, so whatever
    # draws next (the next chunk of a run) sees the same stream; the rows
    # handed to a row function are the block's rows, in order
    rng, row_rng, ref_rng = (np.random.Generator(bit_gen(seed)) for _ in range(3))
    got = synth_fading(n_procs, n_steps, dt_s, f_d, rng)
    want = one_shot_synth(n_procs, n_steps, dt_s, f_d, ref_rng)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert_same_state(rng.bit_generator.state, ref_rng.bit_generator.state)
    rows = rows_of(n_procs, n_steps, dt_s, f_d, row_rng)
    assert len(rows) == n_procs
    for row, h in zip(want, rows):
        # a static row is one value that stands for every step
        assert h.dtype == row.dtype and h.shape in ((n_steps,), (1,))
        assert np.broadcast_to(h, row.shape).tobytes() == row.tobytes()
    assert_same_state(row_rng.bit_generator.state, ref_rng.bit_generator.state)


def test_synthesis_peak_is_output_plus_a_few_rows():
    n_procs, n_steps, n_fft = 8, 70_000, 131_072
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        out = synth_fading(n_procs, n_steps, TTI_S, 5.56, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output and a few complex rows of n_fft, no real-part block:
    # holding that block took 6.6 rows beyond the output, the whole
    # (n_procs, n_fft) spectrum and its temporaries 58 MB
    assert peak <= out.nbytes + 4 * n_fft * 16


@pytest.mark.parametrize("n_procs, n_steps, name", [
    (2, 100.0, "n_steps"), (2.0, 100, "n_procs"), (True, 100, "n_procs"),
])
@pytest.mark.parametrize("f_d", [0.0, 5.56])
def test_synthesis_rejects_a_non_int_count_before_any_draw(n_procs, n_steps, name, f_d):
    rng = np.random.default_rng(8)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"{name} must be an int"):
        synth_fading(n_procs, n_steps, TTI_S, f_d, rng)
    assert rng.bit_generator.state == before


def reduced_synth(n_procs, n_steps, dt_s, f_d, rng, amps):
    """sum_p |amps[p] * h_p|^2 over the rows synth_fading hands to a row
    function, each scaled in place, squared and added as it is made, as
    a single-stream link build adds them: no block is held."""
    scale = iter(amps)
    gain = np.zeros(n_steps)
    power = np.empty(n_steps)

    def add_power(h):
        h *= next(scale)
        np.abs(h, out=power)
        np.square(power, out=power)
        np.add(gain, power, out=gain)

    assert synth_fading(n_procs, n_steps, dt_s, f_d, rng, add_power) is None
    return gain


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_procs=st.integers(1, 16),
    n_steps=st.one_of(st.integers(1, 4095), st.integers(4096, 20_000),
                      st.sampled_from([4096, 4097, 8191, 8192, 8193, 70_000])),
    f_d=st.one_of(st.just(0.0), st.floats(0.0, 4.9e-10), st.floats(1.0, 300.0)),
    amps=st.lists(st.floats(1e-3, 10.0), min_size=16, max_size=16),
    seed=st.integers(0, 2**64 - 1),
)
@example(n_procs=8, n_steps=70_000, f_d=5.56, amps=list(np.repeat(np.sqrt(pa3_profile()), 4)),
         seed=0)
@example(n_procs=4, n_steps=1, f_d=0.0, amps=[1.0] * 16, seed=1)
def test_reduced_synthesis_bit_equals_the_summed_block(n_procs, n_steps, f_d, amps, seed):
    # each row is scaled in place, squared and added in process order, as
    # the sum over the block's first axis adds them; scaling a row in
    # place changes no later row
    amps = np.array(amps[:n_procs])
    rng, ref_rng = (np.random.default_rng(seed) for _ in range(2))
    got = reduced_synth(n_procs, n_steps, TTI_S, f_d, rng, amps)
    block = synth_fading(n_procs, n_steps, TTI_S, f_d, ref_rng)
    want = np.sum(np.abs(block * amps[:, None]) ** 2, axis=0)
    assert got.shape == want.shape == (n_steps,) and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()
    assert_same_state(rng.bit_generator.state, ref_rng.bit_generator.state)


@pytest.mark.parametrize("f_d", [0.0, 5.56])
def test_reduced_synthesis_peak_is_two_output_rows_plus_a_few_rows(f_d):
    n_procs, n_steps, n_fft = 8, 70_000, 131_072
    rng = np.random.default_rng(5)
    tracemalloc.start()
    try:
        reduced_synth(n_procs, n_steps, TTI_S, f_d, rng, np.ones(n_procs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the gain, one float temporary and a few complex rows of n_fft: the
    # (n_procs, n_steps) block is never held
    assert peak <= 2 * n_steps * 8 + 4 * n_fft * 16


# amps None is the block form; with amps the rows go to a row function
@pytest.mark.parametrize("amps", [None, np.ones(3)])
def test_synthesis_needs_only_the_oldest_supported_ifft(monkeypatch, amps):
    # numpy < 2 has no out= on np.fft.ifft, and pyproject declares
    # numpy >= 1.24: the synthesis must work with that signature alone
    def synth(rng):
        if amps is None:
            return synth_fading(3, 5000, TTI_S, 5.56, rng)
        return reduced_synth(3, 5000, TTI_S, 5.56, rng, amps)

    full_ifft = np.fft.ifft
    want = synth(np.random.default_rng(4))

    def ifft(a, n=None, axis=-1, norm=None):
        return full_ifft(a, n, axis, norm)

    monkeypatch.setattr(np.fft, "ifft", ifft)
    got = synth(np.random.default_rng(4))
    assert got.tobytes() == want.tobytes()


def test_fading_zero_speed_is_constant():
    ch = make_channel(500.0, -72.5, speed_kmh=0.0)
    block = fading_block(ch, 1, 1, 50, np.random.default_rng(3))
    assert np.all(block == block[..., :1])
    assert np.all(block[..., 0] != 0.0)


def test_fading_reproducible_given_seed():
    ch = make_channel(500.0, -72.5, speed_kmh=3.0)
    a, b = (fading_block(ch, 1, 1, 5000, np.random.default_rng(5)) for _ in range(2))
    assert np.array_equal(a, b)
    c = fading_block(ch, 1, 1, 5000, np.random.default_rng(6))
    assert not np.array_equal(a, c)


def test_fading_block_correlation_holds_past_4096():
    # one synthesis spans the whole run: the lag-1 correlation across
    # samples 4095 -> 4096 is the Jakes value, as anywhere else; the
    # estimate pools 64 independent unit-power processes (16 per tap)
    ch = make_channel(500.0, -72.5, speed_kmh=3.0)
    block = fading_block(ch, 4, 4, 8192, np.random.default_rng(19))
    x = (block / np.sqrt(np.asarray(ch.pdp_weights))[:, None, None, None]).reshape(-1, 8192)
    a, b = x[:, 4095], x[:, 4096]
    rho = np.real(np.vdot(b, a)) / np.sqrt(np.vdot(a, a).real * np.vdot(b, b).real)
    ref = special.j0(2 * np.pi * doppler_hz(ch.speed_kmh, ch.carrier_hz) * TTI_S)
    assert rho == pytest.approx(ref, abs=0.05)


def test_state_shapes_for_antenna_layouts():
    ch = make_channel(500.0, -72.5)
    rng = np.random.default_rng(1)
    assert fading_block(ch, 2, 2, 7, rng).shape == (4, 2, 2, 7)
    assert fading_block(ch, 2, 1, 7, rng).shape == (4, 2, 1, 7)
    assert fading_block(ch, 1, 1, 1, rng).shape == (4, 1, 1, 1)


def test_simo_aggregate_power_mean_near_two():
    ch = make_channel(500.0, -72.5, speed_kmh=3.0)
    block = fading_block(ch, 2, 1, 20000, np.random.default_rng(23))
    acc = np.sum(np.abs(block) ** 2, axis=(0, 1, 2))
    assert np.mean(acc) == pytest.approx(2.0, rel=0.1)


# ---------------------------------------------------------------- SINR


def unit_denominator_params() -> ChannelParams:
    # alpha=1 and i_oc=0 leave exactly the 1 W noise term
    return ChannelParams(i_or_w=10.0, i_oc_w=0.0, alpha=1.0, n0_w_per_hz=2e-7)


def test_hs_sinr_hand_anchor():
    ch = unit_denominator_params()
    assert ch.denominator_w == pytest.approx(1.0, rel=1e-12)
    assert hs_sinr_db(1.0, 1.0, ch) == pytest.approx(10 * np.log10(16), abs=1e-12)


def test_hs_sinr_power_doubling_adds_3db():
    ch = make_channel(500.0, -72.5, speed_kmh=3.0)
    block = fading_block(ch, 1, 1, 1, np.random.default_rng(9))
    g = ch.path_gain_lin * np.sum(np.abs(block) ** 2)
    for p in (0.01, 0.5, 3.0):
        delta = hs_sinr_db(2 * p, g, ch) - hs_sinr_db(p, g, ch)
        assert delta == pytest.approx(10 * np.log10(2.0), abs=1e-12)


def test_hs_sinr_interference_limited_regime():
    ch = ChannelParams(i_or_w=1.0, i_oc_w=1e-9, alpha=0.0, n0_w_per_hz=1e-17)
    p, g = 0.25, 0.8
    approx = 10 * np.log10(16 * p * g / 1.0)
    assert hs_sinr_db(p, g, ch) == pytest.approx(approx, abs=1e-6)


def test_hs_sinr_edge_cases():
    ch = unit_denominator_params()
    assert hs_sinr_db(0.0, 1.0, ch) == -np.inf
    with pytest.raises(ValueError):
        hs_sinr_db(-1.0, 1.0, ch)
    with pytest.raises(ValueError):
        hs_sinr_db(1.0, -0.5, ch)


def test_hs_sinr_array_is_the_scalar_form_elementwise():
    # the engine's per-TTI constants come from one array call
    ch = make_channel(500.0, -72.5, speed_kmh=3.0)
    g = ch.path_gain_lin * np.array([0.0, 1e-3, 0.7, 2.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # zero gain is -inf, not a warning
        got = hs_sinr_db(1.0, g, ch)
    assert isinstance(got, np.ndarray) and got[0] == -np.inf
    assert [x.hex() for x in got] == [hs_sinr_db(1.0, float(x), ch).hex() for x in g]
    assert type(hs_sinr_db(1.0, g[2], ch)) is float
    with pytest.raises(ValueError):
        hs_sinr_db(1.0, np.array([1.0, -1e-30]), ch)


def test_power_shift_equals_sinr_shift_exactly():
    # foundation of the controller's power arithmetic: dB-for-dB, to 1e-9
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        ch = ChannelParams(
            i_or_w=float(rng.uniform(1e-12, 1e-9)),
            i_oc_w=float(rng.uniform(0.0, 1e-11)),
            alpha=float(rng.uniform(0.0, 1.0)),
            distance_m=float(rng.uniform(100.0, 2000.0)),
        )
        g = ch.path_gain_lin * float(rng.uniform(0.01, 5.0))
        p1 = float(rng.uniform(1e-3, 20.0))
        p2 = float(rng.uniform(1e-3, 20.0))
        lhs = hs_sinr_db(p1, g, ch) - hs_sinr_db(p2, g, ch)
        rhs = watt_to_dbm(p1) - watt_to_dbm(p2)
        assert abs(lhs - rhs) < 1e-9


# ------------------------------------------------------------- ACK test


def test_ack_threshold_behavior():
    # a block at MCS m decodes iff the SINR meets its threshold, which is
    # the engine's sinr >= thr[m - 1] and the same predicate as
    # cqi_from_sinr(table, sinr) >= m
    table = default_table()
    for m in range(1, len(table) + 1):
        beta = table.threshold(m)
        assert cqi_from_sinr(table, beta) >= m  # boundary counts as met
        assert cqi_from_sinr(table, np.nextafter(beta, -np.inf)) < m
