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

The argmax is not searched candidate by candidate. Write x = P -
beta_i + delta, so level j costs x + beta_j. Its efficiency is TBS_j /
(a 10^((x + beta_j)/10) + c), and the log ratio of any two levels'
efficiencies is monotone in x: two levels cross at most once and the
optimum is a step function of x (the ratio structure of
Dinkelbach-style fractional programming). One search serves both
selectors: its candidates are the levels at offsets beta_j for a
single stream, and for 2x2 the equal-shift MCS pairs of a report at
the offsets of their shared power (mimo_dtxaa), in non-decreasing
offset order. Once per (table, power model, and for 2x2 the reported
pair) the search is built and cached, with the x intervals on which
one candidate beats every other by a relative margin of at least
_TIE_MARGIN, derived in closed form. A call bisects those intervals
for the optimum. Outside every interval, within the margin of a
crossing where rounding could decide the order (or where two
candidates tie at one offset), it evaluates every candidate instead,
so the result is always the first maximum of the per-candidate
efficiencies as evaluated below. Powers never decrease along the
candidates, so the ones within the power budget are a prefix of them:
a call raises the optimum to the minimum level and walks down from it
to the prefix's last candidate, flagged infeasible where that lies
below the minimum level.

An efficiency is a candidate's bits over _tti_energy_j, the energy one
TTI at its power consumes; the engine charges each TTI it serves, and
each idle one, that same function's energy. Its exact flag chooses how
the power in watts is taken. Every efficiency a result or a decision
depends on is evaluated exactly, with numpy's power ufunc, not Python's
** or math.pow. numpy dispatches its own SIMD kernel (on AVX-512 hosts
a vector pow that differs from libm's in the last bit for a few percent
of arguments) and applies the same kernel to a scalar as to every
element of a wide array, so the figures match the ones a whole-table
evaluation gives, bit for bit. One np.power call costs about as much as
the rest of a selection, though, and the engine reads the chosen
candidate's efficiency at most to compare a gap with ee_gap_threshold.
So the selectors and on_tti take exact_ee=False: the chosen candidate's
efficiency then takes its power from **, within an ulp of np.power's,
and may differ in its last few bits (at most 5 * 2^-52 relative), while
the every-candidate evaluation that decides the argmax stays exact, so
the item, power and infeasible flag are the same. on_tti decides its
trigger from np.power's efficiency by construction: where the fast gap
lies within _TIE_MARGIN of the threshold, it selects again exactly.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .mcs_table import McsTable, _is_cqi_index
from .power_model import PowerModelParams

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
    """Tuning knobs of the semi-static controller: its dual trigger, MCS
    floor and power budget.

    tti_ms, the HSDPA transmission time interval of 2 ms (3GPP TS
    25.308), is a class constant, not a field: it sets each TTI's
    energy, the trigger timers and the span of a run, and the fading
    is sampled at it. tti_s is the same interval in seconds, the one
    place it is converted.

    The ACK/NACK outer loop's steps and clamp are class constants too:
    it is ordinary HSDPA link adaptation at the 10% block error rate of
    the CQI definition (3GPP TS 25.214 6A.2), which no experiment varies.
    The steps implement the jump algorithm at that target: step_up /
    step_down = (1 - target)/target, so the NACK rate settles there.
    """

    tti_ms = 2.0
    tti_s = tti_ms * 1e-3
    offset_step_up_db = 0.5
    offset_step_down_db = 0.5 / 9.0
    offset_clamp_db = 6.0

    p_max_dbm: float = 43.0
    min_mcs: int = 1
    ee_gap_threshold: float = 0.2
    min_reconfig_interval_ms: float = 20.0
    max_reconfig_interval_ms: float = 200.0
    ee_smoothing: float = 0.05

    def __post_init__(self):
        if not isinstance(self.min_mcs, int) or isinstance(self.min_mcs, bool):
            raise ValueError(f"min_mcs must be an int, got {self.min_mcs!r}")
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if abs(self.p_max_dbm) > 1000.0:  # as baseline_power_dbm, so its watts fit a float
            raise ValueError(f"p_max_dbm must be finite, within +-1000 dB, got {self.p_max_dbm}")
        if not 0.0 < self.ee_gap_threshold < 1.0:
            raise ValueError("ee_gap_threshold must be in (0, 1)")
        if self.min_reconfig_interval_ms < 0.0:
            raise ValueError("min interval must be >= 0")
        if self.max_reconfig_interval_ms < 5.0 * self.min_reconfig_interval_ms:
            raise ValueError("max interval must be at least 5x the min interval")
        if self.min_mcs < 1:
            raise ValueError("min_mcs must be >= 1")
        if not 0.0 < self.ee_smoothing <= 1.0:
            raise ValueError("ee_smoothing must be in (0, 1]")


@dataclass
class ControllerState:
    """Live controller memory for one user."""

    power_dbm: float
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

    cqi: the report in the form the selector takes: a CQI index (a
    Python or numpy integer, 0 = out of range) for select_optimal, a
    dual-mode MimoFeedback for select_optimal_dual.
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


def new_controller_state(cfg: ControllerConfig, power_dbm: float) -> ControllerState:
    """Fresh state; the timer starts expired so the first valid feedback
    configures the link immediately through the periodic branch."""
    if not math.isfinite(power_dbm):
        raise ValueError(f"power_dbm must be finite, got {power_dbm}")
    return ControllerState(power_dbm=power_dbm, timer_ms=cfg.max_reconfig_interval_ms)


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


def estimate_ee(p_dbm: float, tbs_bits: float, pm: PowerModelParams) -> float:
    """Estimated efficiency in bits/J of serving tbs_bits at p_dbm for
    one TTI: tbs_bits over the TTI's energy, exactly as the selectors
    evaluate a candidate."""
    if tbs_bits <= 0.0:
        raise ValueError("tbs_bits must be > 0")
    if not math.isfinite(p_dbm):
        raise ValueError("power in dBm must be finite")
    return tbs_bits / _tti_energy_j(p_dbm, pm)


_TTI_S = ControllerConfig.tti_s  # a global: _tti_energy_j runs on every selection


def _tti_energy_j(p_dbm: float, pm: PowerModelParams, exact=True) -> float:
    """The energy in J one TTI at p_dbm consumes: the one energy formula
    of the selectors' EE and the engine's served and idle TTIs. The
    power is np.power's when exact, else that of **, within an ulp of it
    (see the module docstring)."""
    y = (p_dbm - 30.0) / 10.0
    # ** serves only normal powers: it raises OverflowError past 1e308 W,
    # where np.power gives inf, and an ulp of a subnormal power is no
    # longer a rounding-sized part of it
    if exact or not -300.0 < y < 300.0:
        p_w = float(np.power(10.0, y))
    else:
        p_w = 10.0 ** y
    return _TTI_S * (p_w / pm.eta + pm.overhead_w)


# Relative EE lead (as a natural log) a candidate needs for the interval
# search to name it without evaluating the others. Rounding moves the
# evaluated efficiencies by ~1e-15 relative, so nothing short of this
# margin is left to the closed form.
_TIE_MARGIN = 1e-9
_LN10_DB = math.log(10.0) / 10.0


def _argmax_intervals(offsets_db, bits, pm: PowerModelParams) -> tuple[list, list, list]:
    """Closed-form argmax map of candidates that cost x + offsets_db[j]
    dBm (offsets non-decreasing) and carry bits[j], as (starts, ends,
    winners): disjoint x intervals [starts[k], ends[k]], ascending, on
    each of which candidate winners[k] is the EE argmax by at least
    _TIE_MARGIN.

    With c = overhead and y = x + offset, EE ~ bits / (1 + 10^((y + K)/10))
    where 10^(K/10) = 1e-3 / (eta c). For candidates L and m the log
    ratio f(x) = ln(bits_L/bits_m) - ln(D_L/D_m) runs monotonically from
    ln(bits_L/bits_m) at x = -inf to that plus (offset_m - offset_L)
    ln(10)/10 at +inf, so {f >= margin} is a half-line whose edge solves
    1 + w = R (1 + w s) with R = (bits_L/bits_m) e^-margin, s =
    10^((offset_m - offset_L)/10) and w = 10^((x + offset_L + K)/10).
    Without overhead f is constant and a candidate wins everywhere or
    nowhere. L's interval is the intersection of its half-lines over m.
    """
    off = np.asarray(offsets_db, dtype=float)
    log_bits = np.log(np.asarray(bits, dtype=float))
    a = log_bits[:, None] - log_bits[None, :] - _TIE_MARGIN  # ln R; f(-inf) - margin
    b = a + (off[None, :] - off[:, None]) * _LN10_DB  # f(+inf) - margin
    overhead = pm.overhead_w
    if overhead > 0.0:
        k_db = -30.0 - 10.0 * math.log10(pm.eta * overhead)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            # b capped below expm1's overflow: w is then ~0 either way
            w = np.expm1(a) / -np.expm1(np.minimum(b, 700.0))
            edge = 10.0 * np.log10(w) - off[:, None] - k_db
        never = (a < 0.0) & (b < 0.0)
        lower = (a < 0.0) & (b >= 0.0)  # f rises through the margin at edge
        upper = (a >= 0.0) & (b < 0.0)  # f falls through it
    else:
        never = b < 0.0
        lower = upper = np.zeros_like(never)
        edge = np.zeros_like(b)
    np.fill_diagonal(never, False)
    lo = np.where(lower, edge, -np.inf).max(axis=1)
    hi = np.where(upper, edge, np.inf).min(axis=1)
    items = np.flatnonzero(~never.any(axis=1) & (lo < hi))
    items = items[np.argsort(lo[items], kind="stable")]
    return lo[items].tolist(), hi[items].tolist(), items.tolist()


class _Search(NamedTuple):
    """One selector's candidates, per position k in non-decreasing power
    order, and the argmax intervals of _argmax_intervals over them."""

    items: list  # what a selection returns, a level or a pair
    bits: list[float]  # block size, or block-size sum
    floor: list[int]  # max over positions <= k of the candidate's lowest level
    offsets: list[float]  # power above the reported level's
    starts: list[float]  # x where each interval starts, ascending
    ends: list[float]  # x where it ends
    winners: list[int]  # the position that wins on it
    owners: tuple  # the table and power model, keeping their ids unique


# Searches keyed on the ids of the table and power model they were built
# for (plus the reported pair, for two streams). Each entry holds both
# objects, so an id cannot be reused by another object while its entry
# exists; hashing the frozen table's rows on every call would cost more
# than the search saves. Cleared when full: a run uses one table and
# power model, so the limit holds one 30-level table's level search and
# all 900 of its pair searches (about 4.2 MB).
_CACHE_LIMIT = 1024
_searches: dict = {}


def _build_search(key, table, pm, items, bits, offsets, lowest) -> _Search:
    """The search over candidates items at non-decreasing power offsets,
    with block sizes bits and lowest levels lowest (for the min_mcs
    floor), cached under key."""
    floor = list(accumulate(lowest, max))
    intervals = _argmax_intervals(offsets, bits, pm)
    search = _Search(items, bits, floor, offsets, *intervals, (table, pm))
    if len(_searches) >= _CACHE_LIMIT:
        _searches.clear()
    _searches[key] = search
    return search


def _level_search(table: McsTable, pm: PowerModelParams) -> _Search:
    """The levels 1..N at the thresholds."""
    levels = list(range(1, len(table) + 1))
    bits = [float(v) for v in table.tbs_bits]
    return _build_search((id(table), id(pm)), table, pm, levels, bits, table._thr_list, levels)


def _select(search: _Search, p_dbm, ref, delta_db, cfg: ControllerConfig, pm, result, exact):
    """The constrained EE argmax of search's candidates, candidate k at
    p_dbm + offsets[k] - ref + delta_db, as result(item, power, ee,
    infeasible). Each EE is bits[k] over _tti_energy_j at that power:
    exact for every candidate where they decide the argmax, and for the
    result's ee as exact says.

    The offsets never decrease and rounding is monotone, so neither do
    the powers: the candidates within the budget are a prefix. The
    argmax, raised to the lowest admissible candidate pos_min (or the
    last, where none is admissible), walks down while its power exceeds
    the budget. Where the walk stops within the budget at or past
    pos_min, that candidate is the result; otherwise it is the
    infeasible fallback, returned at p_max_dbm with the ee of its own
    power."""
    items, bits, floor, offsets, starts, ends, winners, _ = search
    x = p_dbm - ref + delta_db
    if not math.isfinite(x):
        raise ValueError(f"power {p_dbm} dBm and offset {delta_db} dB must be finite")

    # the candidate whose interval holds x wins with room to spare;
    # outside every interval, evaluate every candidate, exactly, since
    # the evaluated figures decide the argmax
    i = bisect_right(starts, x) - 1
    if i >= 0 and x <= ends[i]:
        pos = winners[i]
    else:
        ees = [bits[k] / _tti_energy_j(p_dbm + offsets[k] - ref + delta_db, pm)
               for k in range(len(offsets))]
        pos = ees.index(max(ees))
    pos_min = bisect_left(floor, cfg.min_mcs)
    if pos < pos_min:
        pos = min(pos_min, len(offsets) - 1)
    p_max = cfg.p_max_dbm
    p_pos = p_dbm + offsets[pos] - ref + delta_db
    while p_pos > p_max and pos > 0:
        pos -= 1
        p_pos = p_dbm + offsets[pos] - ref + delta_db
    ee = bits[pos] / _tti_energy_j(p_pos, pm, exact)
    if pos >= pos_min and p_pos <= p_max:
        return tuple.__new__(result, (items[pos], p_pos, ee, False))
    return tuple.__new__(result, (items[pos], p_max, ee, True))


def select_optimal(
    p_dbm: float,
    feedback_cqi: int,
    delta_db: float,
    table: McsTable,
    cfg: ControllerConfig,
    pm: PowerModelParams,
    *,
    exact_ee: bool = True,
) -> OptimalSelection:
    """Constrained EE argmax over every table level.

    Picks the level whose efficiency at its power estimate is highest
    (found by the search of the module docstring), then applies the
    index clamp [min_mcs, theta_max] where theta_max is the highest
    level affordable within p_max. Ties go to the lower level (lower
    power). When even min_mcs does not fit in the power budget the
    selection is flagged infeasible and falls back to the best
    affordable level (level 1 where none is) at full power; its ee is
    that level's at the level's own power, not at the p_max returned.
    Level j's power is p_dbm + beta_j - beta_feedback + delta_db, the
    expression of estimate_power_for_mcs.

    The result's ee is evaluated with np.power. With exact_ee=False it
    takes its power from ** instead and may differ in its last bits; the
    level, power and infeasible flag are the same either way.
    """
    if not (type(feedback_cqi) is int or _is_cqi_index(feedback_cqi)):
        raise ValueError(f"feedback_cqi must be an integer CQI index, got {feedback_cqi!r}")
    thr = table._thr_list
    n = len(thr)
    if not 1 <= feedback_cqi <= n:
        raise ValueError("feedback_cqi must be a valid table index")
    if cfg.min_mcs > n:
        raise ValueError("min_mcs must be a valid table index")
    search = _searches.get((id(table), id(pm))) or _level_search(table, pm)
    ref = thr[feedback_cqi - 1]
    return _select(search, p_dbm, ref, delta_db, cfg, pm, OptimalSelection, exact_ee)


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
    # bisect ranks NaN above every threshold: it would serve level N
    if not math.isfinite(shift_db):
        raise ValueError(f"shift_db must be finite, got {shift_db}")
    thr = table._thr_list
    return min(max(bisect_right(thr, table.threshold(cqi) + shift_db), min_mcs), len(thr))


def on_tti(
    state: ControllerState,
    feedback: TtiFeedback,
    table: McsTable,
    cfg: ControllerConfig,
    pm: PowerModelParams,
    select=select_optimal,
    *,
    exact_ee: bool = True,
) -> tuple[ControllerState, ControllerDecision]:
    """One SemiStatic step: adapt the offset, re-estimate the optimum,
    and either reconfigure (trigger fired) or keep serving via AMC.

    select is called as select(measured_power, feedback.cqi, offset,
    table, cfg, pm): select_optimal for a CQI index, select_optimal_dual
    for a dual-mode MimoFeedback.

    With exact_ee=False, select is called with exact_ee=False as well,
    and again as above where the gap it gives lies within _TIE_MARGIN of
    ee_gap_threshold, so the trigger is decided on np.power's efficiency
    either way. The state and the decision are the same as with the
    default, except that estimated_ee may differ in its last bits.

    The engine (sim_engine._run_link) calls this step only where the
    trigger is evaluated: a report in range once the timer has passed
    the minimum interval. It steps every other TTI itself with the same
    arithmetic. The per-TTI optimum is not this step: the engine runs it
    by calling select on every report in range.

    Out-of-range CQI serves nothing and skips trigger evaluation; the
    timer still runs and late ACK/NACK outcomes still adapt the offset.
    Every report in range is selected on. Within the minimum interval
    the trigger cannot fire, so the step keeps its power and serves
    plain AMC.

    A call that raises leaves state as it found it.
    """
    kept = state.timer_ms, state.offset_db, state.ee_smoothed
    try:
        state.timer_ms += cfg.tti_ms
        for ack in feedback.acks:
            update_offset(state, ack, cfg)
        if feedback.realized_ee is not None:
            state.ee_smoothed += cfg.ee_smoothing * (feedback.realized_ee - state.ee_smoothed)

        report = feedback.cqi
        if type(report) is int or _is_cqi_index(report):
            reported = (report,)
        else:
            try:
                reported = (report.cqi_primary, report.cqi_secondary)
            except AttributeError:
                raise ValueError(
                    f"feedback.cqi must be an integer CQI index or a MimoFeedback, got {report!r}"
                ) from None
        if reported[0] < 1:
            return state, ControllerDecision(KEEP, state.power_dbm, ())

        measured_p = (
            state.power_dbm
            if feedback.measured_power_dbm is None
            else feedback.measured_power_dbm
        )
        offset = state.offset_db
        if exact_ee:
            best = select(measured_p, report, offset, table, cfg, pm)
        else:
            best = select(measured_p, report, offset, table, cfg, pm, exact_ee=False)
        gap = relative_ee_difference(best.ee, state.ee_smoothed)
        if not exact_ee and abs(gap - cfg.ee_gap_threshold) <= _TIE_MARGIN:
            # np.power's gap may lie on the other side: decide on it
            best = select(measured_p, report, offset, table, cfg, pm)
            gap = relative_ee_difference(best.ee, state.ee_smoothed)
        if should_trigger(gap, state.timer_ms, cfg):
            state.power_dbm = best.power_dbm
            state.timer_ms = 0.0
            return state, ControllerDecision(
                RECONFIGURE, best.power_dbm, best.levels, best.ee, best.infeasible
            )

        # plain AMC at held power: follow the report, compensated for any
        # power change since the measurement, backed off by the offset
        shift = (state.power_dbm - measured_p) - offset
        first = amc_level(table, reported[0], shift, cfg.min_mcs)
        if len(reported) == 1:
            levels = (first,)
        else:
            levels = (first, amc_level(table, reported[1], shift, cfg.min_mcs))
        return state, ControllerDecision(KEEP, state.power_dbm, levels, best.ee, best.infeasible)
    except BaseException:
        state.timer_ms, state.offset_db, state.ee_smoothed = kept
        raise
