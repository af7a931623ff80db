"""TTI-driven link simulation binding channel, table, and controller.

One run is a strict per-TTI loop. The expensive parts are hoisted out:
fading trajectories are synthesized for the whole run up front, and the
power-independent part of the SINR is reduced to one dB constant per
TTI (per precoder and stream for the 2x2 mode), so the loop only adds
the current transmit power in dB and compares against thresholds.

Feedback is delayed: the report the transmitter acts on at TTI t was
measured at t - feedback_delay_ttis against the power configured then,
and decode outcomes come back on the same lag. Reports are always
measured at the configured power even on TTIs that carried no data,
mirroring pilot-based measurement; otherwise an out-of-range report
would lock the link idle forever.

Failed blocks are retransmitted at the same MCS and the then-current
power, up to max_retransmissions, and count their payload once, at the
attempt that decodes. A pending block goes out before any new data on
its stream at the next TTI that serves that stream. When the failure
is queued differs by antenna mode:

* SISO/SIMO queue the NACK arriving at TTI t before t transmits, so the
  block can go out at t itself; a newer failure replaces a block still
  pending, and the replaced block is dropped.
* 2x2 transmits at TTI t first and queues the failures arriving at t
  afterwards, so a block goes out at t + 1 at the earliest, on its own
  stream (the second stream only on dual-stream TTIs); a failure that
  finds its stream's block still pending is dropped.

Out-of-range report TTIs send nothing but still burn the circuit
overhead.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from typing import Callable, NamedTuple

import numpy as np

from .ee_controller import (
    RECONFIGURE,
    ControllerConfig,
    TtiFeedback,
    amc_level,
    new_controller_state,
    on_tti,
    select_optimal,
    update_offset,
)
from .link_channel import ChannelParams, bessel_j0, doppler_hz, synth_fading
from .mcs_table import McsTable, default_table
from .mimo_dtxaa import DUAL, SINGLE, MimoFeedback, pci_codebook, select_optimal_dual, stream_gain_series
from .power_model import PowerModelParams

__all__ = [
    "SISO",
    "SIMO",
    "MIMO",
    "FIXED_BASELINE",
    "PER_TTI_OPTIMAL",
    "SEMI_STATIC",
    "OUTCOME_ACK",
    "OUTCOME_NACK",
    "OUTCOME_MIXED",
    "OUTCOME_IDLE",
    "ScenarioConfig",
    "TtiRecord",
    "RunMetrics",
    "SweepPoint",
    "estimation_loss_db",
    "fading_block",
    "power_model_for_mode",
    "run",
    "sweep",
]

SISO = "SISO"
SIMO = "SIMO"
MIMO = "MIMO"
_MODES = (SISO, SIMO, MIMO)

FIXED_BASELINE = "FixedBaseline"
PER_TTI_OPTIMAL = "PerTtiOptimal"
SEMI_STATIC = "SemiStatic"
_STRATEGIES = (FIXED_BASELINE, PER_TTI_OPTIMAL, SEMI_STATIC)

OUTCOME_ACK = "ack"
OUTCOME_NACK = "nack"
OUTCOME_MIXED = "mixed"
OUTCOME_IDLE = "idle"


def power_model_for_mode(mode: str, base: PowerModelParams) -> PowerModelParams:
    """Same amplifier/overhead figures with the chain count the antenna
    mode implies: both RF chains stay powered in the 2x2 mode."""
    m_a = 2 if mode == MIMO else 1
    if base.m_a == m_a:
        return base
    return _with_chain_count(base, m_a)


@lru_cache(maxsize=16)
def _with_chain_count(base: PowerModelParams, m_a: int) -> PowerModelParams:
    # memoised, so the runs of a sweep share one object per mode and
    # with it the selectors' searches, which are cached per object
    return PowerModelParams(eta=base.eta, p_cir_w=base.p_cir_w, p_sta_w=base.p_sta_w, m_a=m_a)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs. power_model.m_a must match the antenna
    mode (2 for MIMO, 1 otherwise); power_model_for_mode builds it.

    pilot_window_s models pilot-aided channel estimation: the effective
    SINR (for decode and for the reported CQI alike) is degraded by the
    estimator decorrelation over one averaging window, a loss that grows
    with Doppler and is negligible at walking speed.
    """

    channel: ChannelParams
    antenna_mode: str = SISO
    strategy: str = SEMI_STATIC
    duration_ttis: int = 10_000
    seed: int = 1
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    power_model: PowerModelParams = field(default_factory=PowerModelParams)
    table: McsTable = field(default_factory=default_table)
    feedback_delay_ttis: int = 3
    baseline_power_dbm: float = 40.5
    max_retransmissions: int = 3
    dual_shift_factor: float = 2.0
    pair_tol_db: float = 0.0
    pilot_window_s: float = 1.0 / 1500.0
    collect_trace: bool = True

    def __post_init__(self):
        if self.antenna_mode not in _MODES:
            raise ValueError(f"antenna_mode must be one of {_MODES}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if self.duration_ttis < 1:
            raise ValueError("duration_ttis must be > 0")
        if self.feedback_delay_ttis < 1:
            raise ValueError("feedback_delay_ttis must be >= 1")
        if self.max_retransmissions < 0:
            raise ValueError("max_retransmissions must be >= 0")
        for name in ("baseline_power_dbm", "dual_shift_factor", "pair_tol_db", "pilot_window_s"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.pilot_window_s < 0.0:
            raise ValueError("pilot_window_s must be >= 0")
        if self.dual_shift_factor < 0.0 or self.pair_tol_db < 0.0:
            raise ValueError("dual_shift_factor and pair_tol_db must be >= 0")
        if self.controller.min_mcs > len(self.table):
            raise ValueError(
                f"controller.min_mcs {self.controller.min_mcs} exceeds the "
                f"{len(self.table)}-level table"
            )
        want_ma = 2 if self.antenna_mode == MIMO else 1
        if self.power_model.m_a != want_ma:
            raise ValueError(
                f"{self.antenna_mode} needs power_model.m_a == {want_ma}; "
                "use power_model_for_mode"
            )


@dataclass(slots=True)
class TtiRecord:
    tti_index: int
    p_tx_dbm: float
    mcs_index: int
    mcs_secondary: int
    outcome: str
    delivered_bits: int
    consumed_energy_j: float
    reconfigured: bool


@dataclass(frozen=True)
class RunMetrics:
    avg_ee_bits_per_joule: float
    throughput_bps: float
    reconfig_count: int
    nack_rate: float
    delivered_bits: int
    consumed_energy_j: float
    duration_ttis: int
    strategy: str
    antenna_mode: str


def fading_block(
    ch: ChannelParams, n_rx: int, n_tx: int, n_steps: int, rng: np.random.Generator
) -> np.ndarray:
    """Fading trajectories (n_taps, n_rx, n_tx, n_steps) with PDP weights
    folded in, sampled at the TTI rate: every per-TTI link gain of a run
    comes from one such block. synth_fading is called through this
    module's name so the benchmark tracer's patch on it takes effect."""
    n_taps = len(ch.pdp_weights)
    f_d = doppler_hz(ch.speed_kmh, ch.carrier_hz)
    block = synth_fading(n_taps * n_rx * n_tx, n_steps, 2e-3, f_d, rng)
    block = block.reshape(n_taps, n_rx, n_tx, n_steps)
    block *= np.sqrt(np.asarray(ch.pdp_weights))[:, None, None, None]
    return block


def _gain_to_db_const(gain: np.ndarray, ch: ChannelParams) -> np.ndarray:
    """dB SINR at 0 dBm for a per-TTI link gain array: the power term is
    added later as plain dB."""
    scale = ch.sf * ch.path_gain_lin / ch.denominator_w
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(gain * scale)


def estimation_loss_db(f_d_hz: float, window_s: float) -> float:
    """Effective-SINR penalty of pilot-aided channel estimation.

    The estimate taken over one averaging window decorrelates from the
    instantaneous channel by rho = J0(2 pi f_d w); the matched-filter
    mismatch costs about rho^2 in post-combining SINR. Clipped so a deep
    null in J0 cannot produce an unbounded penalty."""
    rho = abs(bessel_j0(2.0 * np.pi * f_d_hz * window_s))
    return -20.0 * np.log10(max(rho, 0.05))


def run(sc: ScenarioConfig) -> tuple[RunMetrics, list[TtiRecord]]:
    """Simulate one scenario; deterministic for a fixed seed."""
    rng = np.random.default_rng(sc.seed)
    link = _mimo_link(sc, rng) if sc.antenna_mode == MIMO else _single_stream_link(sc, rng)
    return _run_link(sc, link)


# ------------------------------------------------------------ link views


class _Link(NamedTuple):
    """What the TTI loop needs to know about one antenna mode.

    report(t, p_dbm) is the (mode, pci, cqi1, cqi2, p_dbm) report measured
    at TTI t with p_dbm configured; cqi2 is 0 for a single-stream mode.
    sinr_db[mode][slot][pci][t] is the dB SINR at 0 dBm of stream slot
    under a report of that mode, and share_db[mode] how far each stream's
    power lies below the total. resolve_first selects the retransmission
    timing (see the module docstring).
    """

    report: Callable[[int, float], tuple]
    sinr_db: dict
    share_db: dict
    resolve_first: bool


def _pilot_loss_db(sc: ScenarioConfig) -> float:
    ch = sc.channel
    return estimation_loss_db(doppler_hz(ch.speed_kmh, ch.carrier_hz), sc.pilot_window_s)


def _single_stream_link(sc: ScenarioConfig, rng) -> _Link:
    """SISO/SIMO: one receive-combined stream, reported by a scalar bisect."""
    ch = sc.channel
    n_rx = 2 if sc.antenna_mode == SIMO else 1
    block = fading_block(ch, n_rx, 1, sc.duration_ttis, rng)
    gain = np.sum(np.abs(block) ** 2, axis=(0, 1, 2))
    c_db = (_gain_to_db_const(gain, ch) - _pilot_loss_db(sc)).tolist()
    thr = sc.table._thr_list

    def report(t, p_dbm):
        return SINGLE, 0, bisect_right(thr, (p_dbm - 30.0) + c_db[t]), 0, p_dbm

    return _Link(report, {SINGLE: ((c_db,),)}, {SINGLE: 0.0}, resolve_first=True)


def _mimo_constants(sc: ScenarioConfig, rng):
    """Per-PCI dB constants: nulled stream 1/2 and combined single-stream,
    each shaped (4, T)."""
    ch = sc.channel
    T = sc.duration_ttis
    block = fading_block(ch, 2, 2, T, rng)
    loss = _pilot_loss_db(sc)
    a1 = np.empty((4, T))
    a2 = np.empty((4, T))
    a_single = np.empty((4, T))
    for pci, w in enumerate(pci_codebook()):
        e1, e2, comb = stream_gain_series(block, w)
        a1[pci] = _gain_to_db_const(e1, ch) - loss
        a2[pci] = _gain_to_db_const(e2, ch) - loss
        a_single[pci] = _gain_to_db_const(comb, ch) - loss
    return a1, a2, a_single


_HALF_DB = float(10.0 * np.log10(2.0))


def _mimo_hypothesis(thr, tbs, a1, a2, a_single, t, p_dbm):
    """Best of the eight mode/PCI hypotheses at power p_dbm for TTI t;
    ties prefer single mode, then the lower PCI. thr and tbs are the
    table's thresholds and block sizes, a1/a2/a_single[pci][t] the dB
    constants of _mimo_constants; a dual hypothesis needs both streams
    in range."""
    off = p_dbm - 30.0
    best = None
    best_bits = -2
    for pci in range(4):
        c = bisect_right(thr, a_single[pci][t] + off)
        bits = tbs[c - 1] if c > 0 else 0
        if bits > best_bits:
            best, best_bits = (SINGLE, pci, c, 0), bits
    off -= _HALF_DB
    for pci in range(4):
        c1 = bisect_right(thr, a1[pci][t] + off)
        c2 = bisect_right(thr, a2[pci][t] + off)
        bits = tbs[c1 - 1] + tbs[c2 - 1] if c1 > 0 and c2 > 0 else -1
        if bits > best_bits:
            best, best_bits = (DUAL, pci, c1, c2), bits
    return best


def _mimo_link(sc: ScenarioConfig, rng) -> _Link:
    """2x2: the terminal reports its best mode/PCI hypothesis, and a
    dual-stream TTI splits the power equally over the two streams."""
    a1, a2, a_single = (a.tolist() for a in _mimo_constants(sc, rng))
    thr, tbs = sc.table._thr_list, sc.table._tbs_list

    def report(t, p_dbm):
        return _mimo_hypothesis(thr, tbs, a1, a2, a_single, t, p_dbm) + (p_dbm,)

    sinr_db = {SINGLE: (a_single,), DUAL: (a1, a2)}
    return _Link(report, sinr_db, {SINGLE: 0.0, DUAL: _HALF_DB}, resolve_first=False)


# -------------------------------------------------------------- TTI loop


def _queue_retx(failed, retx, max_retx: int, replace: bool) -> None:
    """Queue the failed (slot, mcs, tbs, count) blocks for resending;
    replace decides whether a newer failure displaces a pending one."""
    for slot, m, b, cnt in failed:
        if cnt < max_retx and (replace or retx[slot] is None):
            retx[slot] = (m, b, cnt + 1)


def _run_link(sc: ScenarioConfig, link: _Link) -> tuple[RunMetrics, list[TtiRecord]]:
    cfg, pm, table = sc.controller, sc.power_model, sc.table
    T = sc.duration_ttis
    delay = sc.feedback_delay_ttis
    ts = cfg.tti_ms * 1e-3
    thr = table._thr_list
    tbs = table._tbs_list
    overhead = pm.overhead_w
    eta = pm.eta
    max_retx = sc.max_retransmissions
    strategy = sc.strategy
    always_fire = strategy == PER_TTI_OPTIMAL
    select_dual = partial(
        select_optimal_dual, tol_db=sc.pair_tol_db, shift_factor=sc.dual_shift_factor
    )
    report, sinr_db, share_db, resolve_first = link
    collect = sc.collect_trace

    trace: list[TtiRecord] = []
    delivered_bits = attempts = nacks = reconfigs = 0
    energy_j = 0.0
    # reports and decode outcomes in flight, indexed by TTI modulo the
    # delay: what TTI t reads was written at t - delay, and t writes its
    # own in the same place. Outcomes are the per-stream ACK flags and
    # the failed (slot, mcs, tbs, count) blocks.
    reports: list[tuple | None] = [None] * delay
    acks_due: list[tuple[bool, ...]] = [()] * delay
    failed_due: list[tuple] = [()] * delay
    retx: list[tuple[int, int, int] | None] = [None, None]  # per stream slot

    st = new_controller_state(cfg, sc.baseline_power_dbm)
    p_cfg = sc.baseline_power_dbm
    p_energy = served_energy = None  # energy of a served TTI, cached per power
    last_sample_ee = 0.0

    for t in range(T):
        k = t % delay
        fb = reports[k]
        arriving_acks = acks_due[k]
        arriving_failed = failed_due[k]

        # every applied trigger decision counts as a reconfiguration,
        # even one that lands on the values already in force: it is the
        # signaling event that costs, not the numeric delta
        reconfigured = False
        if strategy == FIXED_BASELINE:
            # hold power, conventional link adaptation with the same
            # ACK/NACK outer loop backing off the served levels
            for ack in arriving_acks:
                update_offset(st, ack, cfg)
            levels = ()
            if fb is not None and (fb[0] == DUAL or fb[2] >= 1):
                back = -st.offset_db
                levels = (amc_level(table, fb[2], back, 1),)
                if fb[0] == DUAL:
                    levels += (amc_level(table, fb[3], back, 1),)
        else:
            if fb is None:
                cqi, p_meas, select = 0, None, select_optimal
            elif fb[0] == SINGLE:
                cqi, p_meas, select = fb[2], fb[4], select_optimal
            else:
                cqi, p_meas, select = MimoFeedback(DUAL, fb[1], fb[2], fb[3]), fb[4], select_dual
            st, dec = on_tti(
                st,
                TtiFeedback(cqi, arriving_acks, p_meas, last_sample_ee),
                table,
                cfg,
                pm,
                select,
                always_fire,
            )
            if dec.action == RECONFIGURE:
                reconfigured = True
                reconfigs += 1
            p_cfg = st.power_dbm
            levels = dec.levels

        if resolve_first and arriving_failed:
            _queue_retx(arriving_failed, retx, max_retx, True)

        # transmit: each served stream resends its pending block if it
        # has one, otherwise sends a new block at the decided level
        if levels:
            pci = fb[1]
            rows = sinr_db[fb[0]]
            off = (p_cfg - 30.0) - share_db[fb[0]]
            if p_cfg != p_energy:
                p_energy = p_cfg
                p_w = 10.0 ** ((p_cfg - 30.0) / 10.0)
                served_energy = ts * (p_w / eta + overhead)
            energy = served_energy
            delivered = 0
            acks = failed = ()
            m1 = m2 = 0
            for slot, m in enumerate(levels):
                pending = retx[slot]
                if pending is None:
                    b = tbs[m - 1]
                    cnt = 0
                else:
                    m, b, cnt = pending
                    retx[slot] = None
                if rows[slot][pci][t] + off >= thr[m - 1]:
                    acks += (True,)
                    delivered += b
                else:
                    acks += (False,)
                    failed += ((slot, m, b, cnt),)
                if slot == 0:
                    m1 = m
                else:
                    m2 = m
            acks_due[k] = acks
            failed_due[k] = failed
            attempts += len(acks)
            nacks += len(failed)
            delivered_bits += delivered
            energy_j += energy
            last_sample_ee = delivered / energy
            if collect:
                if not failed:
                    outcome = OUTCOME_ACK
                elif len(failed) == len(acks):
                    outcome = OUTCOME_NACK
                else:
                    outcome = OUTCOME_MIXED
                trace.append(
                    TtiRecord(t, p_cfg, m1, m2, outcome, delivered, energy, reconfigured)
                )
        else:
            energy = ts * overhead
            energy_j += energy
            last_sample_ee = 0.0
            acks_due[k] = failed_due[k] = ()
            if collect:
                trace.append(
                    TtiRecord(t, float("-inf"), 0, 0, OUTCOME_IDLE, 0, energy, reconfigured)
                )

        if not resolve_first and arriving_failed:
            _queue_retx(arriving_failed, retx, max_retx, False)

        # measurement for the report that arrives delay TTIs from now,
        # taken at the configured power regardless of what was sent
        reports[k] = report(t, p_cfg)

    span_s = T * cfg.tti_ms * 1e-3
    metrics = RunMetrics(
        avg_ee_bits_per_joule=delivered_bits / energy_j if energy_j > 0 else 0.0,
        throughput_bps=delivered_bits / span_s,
        reconfig_count=reconfigs,
        nack_rate=nacks / attempts if attempts else 0.0,
        delivered_bits=delivered_bits,
        consumed_energy_j=energy_j,
        duration_ttis=T,
        strategy=strategy,
        antenna_mode=sc.antenna_mode,
    )
    return metrics, trace


# ------------------------------------------------------------------ sweep


@dataclass(frozen=True)
class SweepPoint:
    """Aggregated metrics of one (value, strategy-label) cell."""

    variable: str
    value: float | str
    strategy: str
    mean_ee: float
    std_ee: float
    mean_reconfigs: float
    mean_throughput: float
    repetitions: int
    ee_samples: tuple[float, ...]


_SWEEP_VARS = ("speed", "distance", "theta_min", "fixed_power", "antenna_mode")


def _derive(template: ScenarioConfig, variable, value, strategy, mode, seed):
    ch = template.channel
    cfg = template.controller
    baseline = template.baseline_power_dbm
    if variable == "speed":
        ch = replace(ch, speed_kmh=float(value))
    elif variable == "distance":
        ch = replace(ch, distance_m=float(value))
    elif variable == "theta_min":
        cfg = replace(cfg, min_mcs=int(value))
    elif variable == "fixed_power":
        baseline = float(value)
    elif variable == "antenna_mode":
        mode = str(value)
    return replace(
        template,
        channel=ch,
        controller=cfg,
        baseline_power_dbm=baseline,
        strategy=strategy,
        antenna_mode=mode,
        power_model=power_model_for_mode(mode, template.power_model),
        seed=seed,
        collect_trace=False,
    )


def sweep(
    template: ScenarioConfig,
    variable: str,
    values,
    repetitions: int = 1,
    strategies: tuple[str, ...] | None = None,
    antenna_modes: tuple[str, ...] | None = None,
) -> list[SweepPoint]:
    """Run value x strategy x antenna-mode x repetition and aggregate.

    Repetition r uses the same derived seed in every cell, so curves
    share their channel realizations and differences are paired. The
    strategy label carries the antenna mode when more than one is swept
    (e.g. "FixedBaseline/MIMO").
    """
    if variable not in _SWEEP_VARS:
        raise ValueError(f"variable must be one of {_SWEEP_VARS}")
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    strategies = strategies or (template.strategy,)
    antenna_modes = antenna_modes or (template.antenna_mode,)
    seeds = [int(s) for s in np.random.SeedSequence(template.seed).generate_state(repetitions)]

    jobs = []
    for value in values:
        for mode in antenna_modes:
            for strat in strategies:
                label = strat if len(antenna_modes) == 1 else f"{strat}/{mode}"
                for rep in range(repetitions):
                    sc = _derive(template, variable, value, strat, mode, seeds[rep])
                    jobs.append((value, label, sc))

    by_cell: dict[tuple, list[RunMetrics]] = {}
    for value, label, sc in jobs:
        by_cell.setdefault((value, label), []).append(run(sc)[0])

    points: list[SweepPoint] = []
    for (value, label), ms in by_cell.items():
        ees = np.array([m.avg_ee_bits_per_joule for m in ms])
        points.append(
            SweepPoint(
                variable=variable,
                value=value,
                strategy=label,
                mean_ee=float(ees.mean()),
                std_ee=float(ees.std(ddof=1)) if len(ees) > 1 else 0.0,
                mean_reconfigs=float(np.mean([m.reconfig_count for m in ms])),
                mean_throughput=float(np.mean([m.throughput_bps for m in ms])),
                repetitions=len(ms),
                ee_samples=tuple(float(x) for x in ees),
            )
        )
    return points
