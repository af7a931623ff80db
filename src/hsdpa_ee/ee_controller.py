"""Energy-efficiency driven power and MCS selection.

The controller works purely on CQI feedback. Because the link SINR is
linear in transmit power in dB, the power needed to serve any MCS level
j given feedback index i is

    P_j = P + beta_j - beta_i + delta          (dBm)

where P is the power the reported CQI was measured against and delta is
an outer-loop correction driven by ACK/NACK. Each level's energy
efficiency estimate is TBS_j divided by the energy one TTI at P_j
costs, and the controller picks the constrained argmax.

Reconfiguration is rate-limited by a dual trigger: an event branch
fires when the relative gap between the estimated optimum and the
smoothed realized efficiency exceeds a threshold (but no sooner than
the minimum interval), and a periodic branch fires unconditionally
after the maximum interval. In between, the link falls back to plain
AMC at the held power: the served level follows the fed-back CQI,
shifted by any power difference since the measurement and backed off
by delta.

The same step drives the 2x2 mode: a dual-stream report goes through
select_optimal_dual instead of select_optimal and yields two levels.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple

from .mcs_table import McsTable
from .power_model import PowerModelParams, dbm_to_watt

if TYPE_CHECKING:
    from .mimo_dtxaa import MimoFeedback

__all__ = [
    "ControllerConfig",
    "ControllerState",
    "ControllerDecision",
    "TtiFeedback",
    "OptimalSelection",
    "new_controller_state",
    "estimate_power_for_mcs",
    "estimate_ee",
    "select_optimal",
    "relative_ee_difference",
    "should_trigger",
    "update_offset",
    "amc_level",
    "on_tti",
]

KEEP = "keep"
RECONFIGURE = "reconfigure"


@dataclass(frozen=True)
class ControllerConfig:
    """Tuning knobs of the semi-static controller.

    The default offset steps implement the jump algorithm at a 10%
    error target: step_up/step_down = (1 - target)/target, so the
    stationary NACK rate settles at the target.
    """

    p_max_dbm: float = 43.0
    min_mcs: int = 1
    ee_gap_threshold: float = 0.2
    min_reconfig_interval_ms: float = 20.0
    max_reconfig_interval_ms: float = 200.0
    tti_ms: float = 2.0
    offset_step_up_db: float = 0.5
    offset_step_down_db: float = 0.5 / 9.0
    offset_clamp_db: float = 6.0
    bler_target: float = 0.1
    ee_smoothing: float = 0.05

    def __post_init__(self):
        if self.tti_ms <= 0.0:
            raise ValueError("tti_ms must be > 0")
        if not 0.0 < self.ee_gap_threshold < 1.0:
            raise ValueError("ee_gap_threshold must be in (0, 1)")
        if self.min_reconfig_interval_ms < 0.0:
            raise ValueError("min interval must be >= 0")
        if self.max_reconfig_interval_ms < 5.0 * self.min_reconfig_interval_ms:
            raise ValueError("max interval must be at least 5x the min interval")
        if self.min_mcs < 1:
            raise ValueError("min_mcs must be >= 1")
        if self.offset_step_up_db < 0.0 or self.offset_step_down_db < 0.0:
            raise ValueError("offset steps must be >= 0")
        if self.offset_clamp_db <= 0.0:
            raise ValueError("offset clamp must be > 0")
        if not 0.0 < self.bler_target < 1.0:
            raise ValueError("bler_target must be in (0, 1)")
        if not 0.0 < self.ee_smoothing <= 1.0:
            raise ValueError("ee_smoothing must be in (0, 1]")


@dataclass
class ControllerState:
    """Live controller memory for one user."""

    power_dbm: float
    mcs: int
    offset_db: float = 0.0
    timer_ms: float = 0.0
    ee_smoothed: float = 0.0


class ControllerDecision(NamedTuple):
    """What the link should do this TTI.

    levels holds the level to serve now on each stream, one entry for
    a single-stream report and two for a dual-stream one (empty =
    transmit nothing); power_dbm the transmit power. estimated_ee
    carries the optimizer's view for tracing, infeasible flags
    configurations where even the lowest allowed level exceeds the
    power budget.
    """

    action: str
    power_dbm: float
    levels: tuple[int, ...]
    estimated_ee: float = 0.0
    infeasible: bool = False


class TtiFeedback(NamedTuple):
    """Per-TTI uplink report as the controller sees it (already delayed).

    cqi: the report in the form the selector takes: a CQI index (0 = out
    of range) for select_optimal, a dual-mode MimoFeedback for
    select_optimal_dual.
    acks: ACK/NACK outcomes arriving this TTI for earlier transmissions,
    one per stream in stream order; empty if none is due.
    measured_power_dbm: transmit power in force when cqi was measured;
    defaults to the current power when omitted.
    realized_ee: delivered-bits-per-joule sample for the smoothed
    realized-efficiency tracker, None to leave the tracker untouched.
    """

    cqi: int | MimoFeedback
    acks: tuple[bool, ...] = ()
    measured_power_dbm: float | None = None
    realized_ee: float | None = None


class OptimalSelection(NamedTuple):
    mcs: int
    power_dbm: float
    ee: float
    infeasible: bool

    @property
    def levels(self) -> tuple[int]:
        return (self.mcs,)


def new_controller_state(
    cfg: ControllerConfig, power_dbm: float, mcs: int | None = None
) -> ControllerState:
    """Fresh state; the timer starts expired so the first valid feedback
    configures the link immediately through the periodic branch."""
    return ControllerState(
        power_dbm=power_dbm,
        mcs=cfg.min_mcs if mcs is None else mcs,
        timer_ms=cfg.max_reconfig_interval_ms,
    )


def estimate_power_for_mcs(
    p_dbm: float, feedback_cqi: int, target_cqi: int, table: McsTable, delta_db: float = 0.0
) -> float:
    """Power in dBm needed to serve target_cqi, from one CQI report.

    Relies on the dB-for-dB SINR/power relationship, so the answer is
    exact for a frozen channel.
    """
    if feedback_cqi < 1:
        raise ValueError("no power estimate possible from an out-of-range CQI")
    return p_dbm + table.threshold(target_cqi) - table.threshold(feedback_cqi) + delta_db


def estimate_ee(
    p_dbm: float, tbs_bits: float, pm: PowerModelParams, tti_ms: float = 2.0
) -> float:
    """Estimated efficiency in bits/J of serving tbs_bits at p_dbm."""
    if tbs_bits <= 0.0:
        raise ValueError("tbs_bits must be > 0")
    if tti_ms <= 0.0:
        raise ValueError("tti_ms must be > 0")
    energy_j = (tti_ms * 1e-3) * (dbm_to_watt(p_dbm) / pm.eta + pm.overhead_w)
    return tbs_bits / energy_j


def select_optimal(
    p_dbm: float,
    feedback_cqi: int,
    delta_db: float,
    table: McsTable,
    cfg: ControllerConfig,
    pm: PowerModelParams,
) -> OptimalSelection:
    """Constrained EE argmax over every table level.

    Evaluates the power estimate and efficiency of each level, picks
    the best, then applies the index clamp [min_mcs, theta_max] where
    theta_max is the highest level affordable within p_max. Ties go to
    the lower level (lower power). When even min_mcs does not fit in
    the power budget the selection is flagged infeasible and falls
    back to the best affordable level at full power.
    """
    if feedback_cqi < 1 or feedback_cqi > len(table.entries):
        raise ValueError("feedback_cqi must be a valid table index")
    thr = table.thresholds_db
    p_each = p_dbm + thr - thr[feedback_cqi - 1] + delta_db
    p_w = 10.0 ** ((p_each - 30.0) / 10.0)
    ee_each = table.tbs_bits / ((cfg.tti_ms * 1e-3) * (p_w / pm.eta + pm.overhead_w))

    n = len(thr)
    # ndarray methods, not the np.* wrappers: this runs once per TTI
    affordable = int(p_each.searchsorted(cfg.p_max_dbm, side="right"))
    p_min_est = float(p_each[cfg.min_mcs - 1])
    if p_min_est > cfg.p_max_dbm:
        theta = max(affordable, 1)
        return OptimalSelection(theta, cfg.p_max_dbm, float(ee_each[theta - 1]), True)

    theta_max = min(affordable, n)
    j_star = int(ee_each.argmax()) + 1
    theta = min(max(j_star, cfg.min_mcs), theta_max)
    return OptimalSelection(theta, float(p_each[theta - 1]), float(ee_each[theta - 1]), False)


def relative_ee_difference(xi_opt: float, xi: float) -> float:
    """Relative gap between the estimated optimum and realized EE."""
    if xi_opt <= 0.0:
        raise ValueError("xi_opt must be > 0")
    return (xi_opt - xi) / xi_opt


def should_trigger(gap: float, timer_ms: float, cfg: ControllerConfig) -> bool:
    """Dual trigger: event branch gated by the minimum interval, plus an
    unconditional periodic branch. Both comparisons are strict."""
    if timer_ms < 0.0:
        raise ValueError("timer must be >= 0")
    if gap >= cfg.ee_gap_threshold and timer_ms > cfg.min_reconfig_interval_ms:
        return True
    return timer_ms > cfg.max_reconfig_interval_ms


def update_offset(state: ControllerState, ack: bool, cfg: ControllerConfig) -> ControllerState:
    """Jump-algorithm offset adaptation, clamped to +-offset_clamp_db."""
    if ack:
        state.offset_db -= cfg.offset_step_down_db
    else:
        state.offset_db += cfg.offset_step_up_db
    clamp = cfg.offset_clamp_db
    if state.offset_db > clamp:
        state.offset_db = clamp
    elif state.offset_db < -clamp:
        state.offset_db = -clamp
    return state


def amc_level(table: McsTable, cqi: int, shift_db: float, min_mcs: int) -> int:
    """Plain AMC: the highest level supportable once the reported
    level's threshold moves by shift_db, clamped to [min_mcs, N]."""
    thr = table._thr_list
    return min(max(bisect_right(thr, thr[cqi - 1] + shift_db), min_mcs), len(thr))


def on_tti(
    state: ControllerState,
    feedback: TtiFeedback,
    table: McsTable,
    cfg: ControllerConfig,
    pm: PowerModelParams,
    select=select_optimal,
    always_fire: bool = False,
) -> tuple[ControllerState, ControllerDecision]:
    """One controller step: adapt the offset, re-estimate the optimum,
    and either reconfigure (trigger fired) or keep serving via AMC.

    select is called as select(measured_power, feedback.cqi, offset,
    table, cfg, pm): select_optimal for a CQI index, select_optimal_dual
    (pairing options bound) for a dual-mode MimoFeedback. The per-TTI
    optimum is this step with always_fire set.

    Out-of-range CQI serves nothing and skips trigger evaluation; the
    timer still runs and late ACK/NACK outcomes still adapt the offset.
    """
    state.timer_ms += cfg.tti_ms
    for ack in feedback.acks:
        update_offset(state, ack, cfg)
    if feedback.realized_ee is not None:
        state.ee_smoothed += cfg.ee_smoothing * (feedback.realized_ee - state.ee_smoothed)

    report = feedback.cqi
    if isinstance(report, int):
        reported = (report,)
    else:
        reported = (report.cqi_primary, report.cqi_secondary)
    if reported[0] < 1:
        return state, ControllerDecision(KEEP, state.power_dbm, ())

    measured_p = (
        state.power_dbm
        if feedback.measured_power_dbm is None
        else feedback.measured_power_dbm
    )
    best = select(measured_p, report, state.offset_db, table, cfg, pm)

    if always_fire or should_trigger(
        relative_ee_difference(best.ee, state.ee_smoothed), state.timer_ms, cfg
    ):
        levels = best.levels
        state.power_dbm = best.power_dbm
        state.mcs = levels[0]
        state.timer_ms = 0.0
        return state, ControllerDecision(
            RECONFIGURE, best.power_dbm, levels, best.ee, best.infeasible
        )

    # plain AMC at held power: follow the report, compensated for any
    # power change since the measurement, backed off by the offset
    shift = (state.power_dbm - measured_p) - state.offset_db
    levels = tuple(amc_level(table, c, shift, cfg.min_mcs) for c in reported)
    return state, ControllerDecision(KEEP, state.power_dbm, levels, best.ee, best.infeasible)
