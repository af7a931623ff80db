"""Energy-efficiency oriented link adaptation and power control for HSDPA.

Subpackage tour:

* power_model   -- consumed-power model, dBm helpers, AWGN SE/EE curves
* mcs_table     -- CQI/MCS tables, SINR quantiser, synthetic table maker
* link_channel  -- path loss, Jakes fading synthesis, HS-PDSCH SINR
* ee_controller -- per-MCS power/EE estimates, optimiser, dual trigger
* mimo_dtxaa    -- 2x2 precoding codebook, per-stream gains, mode selection
* sim_engine    -- PDP-weighted fading blocks, TTI-level Monte-Carlo runs,
                   parameter sweeps
* cli_report    -- `hsdpa-ee` command line front end and preset scenarios

The library favours explicit dataclass configs over global state; every
simulation is a pure function of its scenario config and seed.
"""

from hsdpa_ee.power_model import (
    PowerModelParams,
    dbm_to_watt,
    watt_to_dbm,
    total_power,
    shannon_se,
    shannon_ee,
    optimal_shannon_power,
)
from hsdpa_ee.mcs_table import (
    McsEntry,
    McsTable,
    cqi_from_sinr,
    threshold_delta,
    load_table,
    load_table_file,
    default_table,
    reference_table,
    make_uniform_table,
    table_to_csv,
)
from hsdpa_ee.link_channel import (
    ChannelParams,
    make_channel,
    path_gain_db,
    doppler_hz,
    bessel_j0,
    pa3_profile,
    synth_fading,
    hs_sinr_db,
)
from hsdpa_ee.ee_controller import (
    ControllerConfig,
    ControllerState,
    ControllerDecision,
    TtiFeedback,
    OptimalSelection,
    new_controller_state,
    estimate_power_for_mcs,
    estimate_ee,
    select_optimal,
    relative_ee_difference,
    should_trigger,
    update_offset,
    on_tti,
)
from hsdpa_ee.mimo_dtxaa import (
    SINGLE,
    DUAL,
    PrecodingWeights,
    MimoFeedback,
    DualSelection,
    pci_codebook,
    stream_gains,
    stream_gain_series,
    select_mode_and_feedback,
    enumerate_equal_delta_pairs,
    estimate_dual_power,
    select_optimal_dual,
)
from hsdpa_ee.sim_engine import (
    SISO,
    SIMO,
    MIMO,
    FIXED_BASELINE,
    PER_TTI_OPTIMAL,
    SEMI_STATIC,
    ScenarioConfig,
    TtiRecord,
    RunMetrics,
    SweepPoint,
    estimation_loss_db,
    fading_block,
    power_model_for_mode,
    run,
    sweep,
)

__version__ = "0.1.0"
