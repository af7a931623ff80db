"""Configs, MCS tables, the channel constructor and the fading
synthesis reject NaN and infinite numbers, a run length, a seed and an
MCS floor must be ints, and the HSDPA standard's constants (the TTI,
spreading factor, bandwidth, carrier and tap powers), the outer loop's
steps and clamp and the UE noise figure and density cannot be set. The
SINR and CQI maps refuse a NaN SINR, power or gain, the selectors a
non-finite power or offset, plain AMC a non-finite shift, a fresh
controller state a non-finite power, and the table's lookups a CQI
index that is not an integer (or is a bool).

Without these checks a NaN slips through every range comparison (they
are all false) and a run finishes with NaN energy, while the selectors'
cached interval searches would silently be built from NaN; a NaN time
step or Doppler would give an all-NaN fading block, and a float run
length, seed or MCS floor would fail deep inside the synthesis or the TTI
loop instead of at construction.
"""

import dataclasses
import math
import warnings
from typing import get_type_hints

import numpy as np
import pytest

from hsdpa_ee.ee_controller import (
    ControllerConfig,
    ControllerState,
    TtiFeedback,
    amc_level,
    estimate_power_for_mcs,
    new_controller_state,
    on_tti,
    select_optimal,
)
from hsdpa_ee.link_channel import (
    UE_NOISE_W_PER_HZ,
    ChannelParams,
    hs_sinr_db,
    make_channel,
    pa3_profile,
    synth_fading,
)
from hsdpa_ee.mcs_table import McsEntry, McsTable, cqi_from_sinr, load_table, reference_table
from hsdpa_ee.mimo_dtxaa import DUAL, MimoFeedback, estimate_dual_power, select_optimal_dual
from hsdpa_ee.power_model import PowerModelParams
from hsdpa_ee.sim_engine import ScenarioConfig, run


def scenario(**kw):
    return ScenarioConfig(channel=make_channel(435.0, -72.5), **kw)


def table_with(**entry):
    """A three-level table whose second entry takes the given fields."""
    rows = [McsEntry(k, k - 2.0, 100 * k, 2, 1) for k in (1, 2, 3)]
    rows[1] = dataclasses.replace(rows[1], **entry)
    return McsTable(entries=tuple(rows))


def select(selector, report, p_dbm=36.0, delta_db=0.0):
    """selector on report at the reference table and default settings."""
    return selector(p_dbm, report, delta_db, reference_table(), ControllerConfig(),
                    PowerModelParams())


def float_fields(cls):
    """The float-typed fields of a config dataclass, so that a new float
    field is checked here without being listed."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in dataclasses.fields(cls) if hints[f.name] is float)


CONTROLLER_FIELDS = float_fields(ControllerConfig)
CHANNEL_FIELDS = float_fields(ChannelParams)
SCENARIO_FIELDS = float_fields(ScenarioConfig)

CASES = (
    [(f"ControllerConfig.{f}", lambda v, f=f: ControllerConfig(**{f: v}))
     for f in CONTROLLER_FIELDS]
    + [(f"PowerModelParams.{f}", lambda v, f=f: PowerModelParams(**{f: v}))
       for f in float_fields(PowerModelParams)]
    + [(f"ChannelParams.{f}",
        lambda v, f=f: ChannelParams(**{"i_or_w": 1e-10, "i_oc_w": 1e-11, f: v}))
       for f in CHANNEL_FIELDS]
    + [(f"make_channel.{f}", lambda v, f=f: make_channel(435.0, -72.5, **{f: v}))
       for f in ("geometry_db", "speed_kmh", "alpha")]
    + [("make_channel.distance_m", lambda v: make_channel(v, -72.5)),
       ("make_channel.i_or_dbm", lambda v: make_channel(435.0, v))]
    + [(f"ScenarioConfig.{f}", lambda v, f=f: scenario(**{f: v})) for f in SCENARIO_FIELDS]
    + [(f"McsEntry.{f}", lambda v, f=f: table_with(**{f: v}))
       for f in ("sinr_threshold_db", "tbs_bits")]
    + [("synth_fading.dt_s", lambda v: synth_fading(2, 100, v, 5.56, np.random.default_rng(0))),
       ("synth_fading.f_d", lambda v: synth_fading(2, 100, 2e-3, v, np.random.default_rng(0)))]
    + [(f"{f.__name__}.{key}", lambda v, f=f, r=r, key=key: select(f, r, **{key: v}))
       for f, r in ((select_optimal, 5), (select_optimal_dual, MimoFeedback(DUAL, 0, 5, 7)))
       for key in ("p_dbm", "delta_db")]
    + [("amc_level.shift_db", lambda v: amc_level(reference_table(), 5, v, 1)),
       ("new_controller_state.power_dbm", lambda v: new_controller_state(ControllerConfig(), v))]
)

# the standard's constants, the outer loop's steps and clamp and the
# noise figure and density used to be float settings checked here; they
# are constants now, so a non-finite value for one is refused as an
# unknown keyword, a TypeError that names it
PINNED_CASES = (
    [(f"ControllerConfig.{f}", lambda v, f=f: ControllerConfig(**{f: v}))
     for f in ("tti_ms", "tti_s", "offset_step_up_db", "offset_step_down_db",
               "offset_clamp_db")]
    + [(f"ChannelParams.{f}",
        lambda v, f=f: ChannelParams(**{"i_or_w": 1e-10, "i_oc_w": 1e-11, f: v}))
       for f in ("bandwidth_hz", "carrier_hz", "pdp_weights", "n0_w_per_hz")]
    + [("make_channel.noise_figure_db", lambda v: make_channel(435.0, -72.5, noise_figure_db=v))]
)

REJECTIONS = ([(key, build, ValueError, None) for key, build in CASES]
              + [(key, build, TypeError, key.split(".")[1]) for key, build in PINNED_CASES])


@pytest.mark.parametrize("build, error, match", [r[1:] for r in REJECTIONS],
                         ids=[r[0] for r in REJECTIONS])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_input_is_rejected(build, error, match, value):
    with pytest.raises(error, match=match):
        build(value)


def power_build(key):
    """Build what takes the config power key: make_channel's two dB
    values, or a scenario's baseline power or power budget."""
    if key == "baseline_power_dbm":
        return lambda v: scenario(baseline_power_dbm=v)
    if key == "p_max_dbm":
        return lambda v: scenario(controller=ControllerConfig(p_max_dbm=v))
    return lambda v: make_channel(**{"distance_m": 435.0, "i_or_dbm": -72.5, key: v})


POWER_KEYS = ("i_or_dbm", "geometry_db", "baseline_power_dbm", "p_max_dbm")


@pytest.mark.parametrize("value", [4000.0, -4000.0])
@pytest.mark.parametrize("key", POWER_KEYS)
def test_power_past_1000_db_is_rejected_naming_it(key, value):
    # 4000 dB overflowed a float (OverflowError), -4000 dB of geometry
    # divided by zero, and a 4000 dBm budget let a selection's power
    # overflow np.power to an ee of 0
    with pytest.raises(ValueError, match=f"^{key} must be finite, within \\+-1000 dB"):
        power_build(key)(value)


@pytest.mark.parametrize("value", [1000.0, -1000.0])
@pytest.mark.parametrize("key", POWER_KEYS)
def test_power_at_1000_db_runs_without_overflow(key, value):
    # the bound is inclusive, and every power a run derives from a value
    # on it still fits a float: no warning, no inf, no nan
    sc = scenario(duration_ttis=50)
    if key in ("baseline_power_dbm", "p_max_dbm"):
        sc = power_build(key)(value)
    else:
        sc = dataclasses.replace(sc, channel=power_build(key)(value))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for strategy in ("FixedBaseline", "SemiStatic", "PerTtiOptimal"):
            metrics, _ = run(dataclasses.replace(sc, strategy=strategy))
            assert math.isfinite(metrics.consumed_energy_j) and metrics.consumed_energy_j > 0
            assert math.isfinite(metrics.avg_ee_bits_per_joule)


# the HSDPA standard's figures, the outer loop's and the terminal's noise
# density are class constants, not fields, so no value of theirs, finite
# or not, can be passed
PINNED = (
    (ControllerConfig, "tti_ms", 2.0, 1.0),
    (ControllerConfig, "tti_s", 2e-3, 1e-3),
    (ControllerConfig, "offset_step_up_db", 0.5, 0.3),
    (ControllerConfig, "offset_step_down_db", 0.5 / 9.0, 0.3),
    (ControllerConfig, "offset_clamp_db", 6.0, 3.0),
    (ChannelParams, "sf", 16, 8),
    (ChannelParams, "bandwidth_hz", 5e6, 10e6),
    (ChannelParams, "carrier_hz", 2e9, 9e8),
    (ChannelParams, "pdp_weights", pa3_profile(), (1.0,)),
    (ChannelParams, "n0_w_per_hz", UE_NOISE_W_PER_HZ, 1e-17),
)


@pytest.mark.parametrize("cls, name, standard, other", PINNED,
                         ids=[f"{c.__name__}.{n}" for c, n, *_ in PINNED])
def test_pinned_constant_is_not_settable(cls, name, standard, other):
    args = {"i_or_w": 1e-10, "i_oc_w": 1e-11} if cls is ChannelParams else {}
    assert getattr(cls(**args), name) == standard
    with pytest.raises(TypeError, match=name):
        cls(**args, **{name: other})


def test_make_channel_uses_the_default_noise_density():
    # the UE noise density is stated once, as ChannelParams' constant
    default = ChannelParams.n0_w_per_hz
    assert default == UE_NOISE_W_PER_HZ == 3.9811e-21 * 10.0 ** (9.0 / 10.0)
    assert make_channel(435.0, -72.5).n0_w_per_hz == default


@pytest.mark.parametrize("report", [5, MimoFeedback(DUAL, 0, 5, 7)], ids=["single", "dual"])
def test_on_tti_on_a_nan_power_state_raises_and_keeps_its_state(report):
    # the held power's shift was NaN, and plain AMC served the top level
    # at power_dbm=nan
    st = ControllerState(power_dbm=math.nan, timer_ms=0.0, ee_smoothed=1e12)
    before = repr(st)
    selector = select_optimal_dual if isinstance(report, MimoFeedback) else select_optimal
    with pytest.raises(ValueError, match="^shift_db must be finite, got nan"):
        on_tti(st, TtiFeedback(report, (False,), 40.0, 2e6), reference_table(),
               ControllerConfig(), PowerModelParams(), selector)
    assert repr(st) == before


@pytest.mark.parametrize("sinr_db", [math.nan, np.array([1.0, math.nan]), [math.nan]],
                         ids=["scalar", "array", "list"])
def test_nan_sinr_has_no_cqi(sinr_db):
    # bisect and searchsorted both rank NaN above every threshold, so
    # unchecked it would map to the top CQI
    with pytest.raises(ValueError, match="^sinr_db must not be NaN"):
        cqi_from_sinr(reference_table(), sinr_db)


@pytest.mark.parametrize("gain", [math.nan, np.array([1.0, math.nan])], ids=["scalar", "array"])
def test_nan_link_gain_is_rejected(gain):
    # g < 0 is false for NaN: a check of that form lets it through to a
    # NaN SINR
    with pytest.raises(ValueError, match="^link_gain must be >= 0"):
        hs_sinr_db(1.0, gain, make_channel(435.0, -72.5))


def test_nan_transmit_power_is_rejected():
    with pytest.raises(ValueError, match="^transmit power p_hs_w must be >= 0, got nan"):
        hs_sinr_db(math.nan, 1.0, make_channel(435.0, -72.5))


@pytest.mark.parametrize("field", ["sinr_threshold_db", "tbs_bits"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_table_value_names_its_cqi(field, value):
    with pytest.raises(ValueError, match="^cqi 2: "):
        table_with(**{field: value})


def test_table_file_with_non_finite_thresholds_is_rejected():
    text = "cqi,sinr_db,tbs_bits,mod_order,codes\n1,-2.0,100,2,1\n2,nan,200,2,1\n3,inf,300,2,1\n"
    with pytest.raises(ValueError, match="^cqi 2: "):
        load_table(text)


INDEX_CASES = (
    ("threshold", lambda v: reference_table().threshold(v)),
    ("tbs", lambda v: reference_table().tbs(v)),
    ("estimate_power_for_mcs.feedback_cqi",
     lambda v: estimate_power_for_mcs(40.0, v, 3, reference_table())),
    ("estimate_power_for_mcs.target_cqi",
     lambda v: estimate_power_for_mcs(40.0, 3, v, reference_table())),
    ("estimate_dual_power.i1", lambda v: estimate_dual_power(40.0, v, 3, reference_table())),
    ("estimate_dual_power.j1", lambda v: estimate_dual_power(40.0, 3, v, reference_table())),
    ("amc_level.cqi", lambda v: amc_level(reference_table(), v, 0.0, 1)),
)


@pytest.mark.parametrize("value", [True, 2.5, np.float64(2.0)], ids=["True", "2.5", "float64"])
@pytest.mark.parametrize("build", [c[1] for c in INDEX_CASES], ids=[c[0] for c in INDEX_CASES])
def test_cqi_index_that_is_not_an_integer_is_rejected(build, value):
    # True served as CQI 1 (estimate_power_for_mcs(40.0, True, 3, t) was
    # 42.0), and a float index failed as a bare TypeError of list indexing
    with pytest.raises(ValueError, match="^cqi index must be an integer, got "):
        build(value)


@pytest.mark.parametrize("value", [2000.0, True, "2000", None])
def test_run_length_that_is_not_an_int_is_rejected(value):
    with pytest.raises(ValueError, match="duration_ttis must be an int"):
        scenario(duration_ttis=value)


@pytest.mark.parametrize("value, message", [
    (1.5, "seed must be an int"),
    ("3", "seed must be an int"),
    (True, "seed must be an int"),  # ran as seed 1
    (None, "seed must be an int"),
    (-1, "seed must be >= 0"),
])
def test_seed_that_is_not_a_non_negative_int_is_rejected(value, message):
    # these used to pass construction and fail inside numpy once the run
    # started, and True ran as seed 1
    with pytest.raises(ValueError, match=message):
        scenario(seed=value)


@pytest.mark.parametrize("value", [25.5, 2.0, True, "2", None])
def test_min_mcs_that_is_not_an_int_is_rejected(value):
    # a float floor would index the table deep inside a run's loop
    with pytest.raises(ValueError, match="min_mcs must be an int"):
        ControllerConfig(min_mcs=value)


@pytest.mark.parametrize("value", [math.nan, 1.5, 2.0, True, "2", None])
def test_chain_count_that_is_not_an_int_is_rejected(value):
    # a nan chain count made every EE estimate nan
    with pytest.raises(ValueError, match="m_a must be an int"):
        PowerModelParams(m_a=value)


def test_min_mcs_beyond_the_table_is_rejected():
    with pytest.raises(ValueError):
        scenario(controller=ControllerConfig(min_mcs=31))


def test_finite_defaults_still_build():
    ControllerConfig()
    PowerModelParams()
    scenario()
