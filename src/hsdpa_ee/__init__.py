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

The package re-exports the __all__ of every module but cli_report.
The library favours explicit dataclass configs over global state; every
simulation is a pure function of its scenario config and seed.
"""

from hsdpa_ee.power_model import *  # noqa: F403
from hsdpa_ee.mcs_table import *  # noqa: F403
from hsdpa_ee.link_channel import *  # noqa: F403
from hsdpa_ee.ee_controller import *  # noqa: F403
from hsdpa_ee.mimo_dtxaa import *  # noqa: F403
from hsdpa_ee.sim_engine import *  # noqa: F403

__version__ = "0.1.0"
