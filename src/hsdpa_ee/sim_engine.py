"""TTI-driven link simulation binding channel, table, and controller.

One run is a strict per-TTI loop. The expensive parts are hoisted out
of it, chunk by chunk: a run is cut into chunks of at most CHUNK_TTIS
TTIs, drawn in order from the run's one generator, and before the loop
enters a chunk the chunk's fading trajectories are synthesized and its
SINR reduced to one dB constant per TTI (per precoder and stream for
the 2x2 mode): link_channel.hs_sinr_db at 1 W less the pilot loss. The
constants are kept as packed doubles (a memoryview of each float64
row, 8 B a value), which the loop reads as Python floats. The
loop only adds p_dbm - 30 and compares against thresholds, and carries
the controller state, the reports and ACKs in flight and the pending
retransmissions across chunk boundaries. One chunk is alive at a time,
so a run's memory is bounded whatever its length, unless its trace rows
are kept (run without a sink); a run of at most CHUNK_TTIS TTIs is one
chunk, synthesized in one pass. No chunk's fading is held as a block:
synth_fading hands each process to the chunk's link as it is made. A
SISO/SIMO link adds its power into one receive-combined row; a 2x2 link
gathers one tap's 4 processes and adds their stream gains, since
stream_gain_series nulls each stream within a tap and sums over taps.
Both turn their gain rows into the dB constants by one step.
The fading correlation restarts at each chunk boundary, every 262 s of
simulated time against a coherence time of about 0.1 s at 3 km/h.

Feedback is delayed: the report the transmitter acts on at TTI t was
measured at t - FEEDBACK_DELAY_TTIS against the power configured then,
and decode outcomes come back on the same lag. Reports are always
measured at the configured power even on TTIs that carried no data,
mirroring pilot-based measurement; otherwise an out-of-range report
would lock the link idle forever.

Failed blocks are retransmitted at the same MCS and the then-current
power, up to MAX_RETRANSMISSIONS, and count their payload once, at the
attempt that decodes. A pending block goes out before any new data on
its stream at the next TTI that serves that stream. When the failure
is queued differs by antenna mode, which sets it in _run_link:

* SISO/SIMO queue the NACK arriving at TTI t before t transmits, so the
  block can go out at t itself; a newer failure replaces a block still
  pending, and the replaced block is dropped.
* 2x2 transmits at TTI t first and queues the failures arriving at t
  afterwards, so a block goes out at t + 1 at the earliest, on its own
  stream (the second stream only on dual-stream TTIs); a failure that
  finds its stream's block still pending is dropped.

Out-of-range report TTIs send nothing but still burn the circuit
overhead.

What a run cannot change is computed once. A link (_build_link: the
chunks' per-TTI SINR constants, not their fading) depends only on the
channel, the antenna mode, the run length, the seed and the table
(_link_key). run keeps the link of the last run that fit in one chunk,
and a run of an equal key reuses it: strategies of one realization run
back to back, and the runs of a sweep, which lists them in realization
order (the powers of a fixed_power sweep, or FixedBaseline and
SemiStatic at one point). A run of another key drops the kept link
before it builds its own, so one link is alive at a time; between runs
the engine holds that link, up to about 12.6 MB for a full 2x2 chunk
(12 rows of 131072 doubles). A run longer than one chunk keeps none.
A FixedBaseline run never changes its power, so on every link its
reports are computed for every TTI of a chunk in one vectorised call
before the loop enters it (_Link.fixed_reports): the threshold bisect
of a single stream, and for 2x2 the first of the eight hypotheses with
the most bits, walked in report order. They equal the scalar report
that serves the controller strategies, one call per TTI.

The loop steps the controller itself, on locals, except where the
trigger is evaluated. Every strategy's ACK/NACK outer loop is
ee_controller.update_offset, written out once on a local offset, and
one test, cqi1 >= 1, takes a report as in range for every strategy (a
dual report has both streams in range). FixedBaseline serves amc_level
at min_mcs 1, written out. PerTtiOptimal is defined in the loop: it
selects on every report in range and applies the selection.
SemiStatic calls on_tti only where its dual trigger can fire, on a
report in range once the minimum interval has passed, with the
offset, the timer and the smoothed EE written into its ControllerState
around the call. On its other TTIs the loop advances the timer and the
smoothed EE as on_tti does, and inside the minimum interval serves
on_tti's plain AMC, amc_level at the controller's min_mcs, written out;
most TTIs are of this kind, which is what the dual trigger is for. Both
controller strategies pass exact_ee=False (to the selectors, and to
on_tti, which passes it on): PerTtiOptimal never reads a selection's
EE and SemiStatic compares it only with ee_gap_threshold, which on_tti
decides on np.power's EE regardless, so no output moves. The
loop calls on_tti and the selectors by this module's names, so the
benchmark tracer's patches on them take effect.

The feedback delay, the retransmission limit, the pilot averaging
window and the chunk length are module constants (FEEDBACK_DELAY_TTIS,
MAX_RETRANSMISSIONS, PILOT_WINDOW_S, CHUNK_TTIS), not scenario fields:
no experiment varies them. The HSDPA standard's own figures are fixed
too, as class constants of the configs that read them: the TTI
(ControllerConfig.tti_ms, 2 ms), at which the fading is also sampled,
and ChannelParams' spreading factor, bandwidth, carrier and Pedestrian
A tap powers. So are the outer loop's steps and clamp (class
constants of ControllerConfig) and the terminal's noise density
(ChannelParams.n0_w_per_hz).
"""

from __future__ import annotations

import operator
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from functools import lru_cache
from itertools import product
from numbers import Real
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .ee_controller import (
    RECONFIGURE,
    ControllerConfig,
    TtiFeedback,
    new_controller_state,
    on_tti,
    select_optimal,
)
from .link_channel import ChannelParams, bessel_j0, doppler_hz, hs_sinr_db, synth_fading
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

# TTIs between a measurement (CQI report, ACK/NACK) and the transmitter
# acting on it
FEEDBACK_DELAY_TTIS = 3
# resends of a failed block before it is dropped
MAX_RETRANSMISSIONS = 3
# Pilot-aided channel estimation: the effective SINR (for decode and for
# the reported CQI alike) is degraded by the estimator decorrelation over
# one averaging window of this length, a loss that grows with Doppler and
# is negligible at walking speed.
PILOT_WINDOW_S = 1.0 / 1500.0
# TTIs per chunk of a run (262 s of simulated time). A run holds one
# chunk's per-TTI constants at a time, so this bounds its memory; a run
# of at most this many TTIs is one chunk.
CHUNK_TTIS = 2**17


def power_model_for_mode(mode: str, base: PowerModelParams) -> PowerModelParams:
    """Same amplifier/overhead figures with the chain count the antenna
    mode implies: both RF chains stay powered in the 2x2 mode.
    ScenarioConfig applies it to its power_model; base itself comes back
    when its m_a already matches."""
    m_a = 2 if mode == MIMO else 1
    if base.m_a == m_a:
        return base
    return _with_chain_count(base, m_a)


@lru_cache(maxsize=16)
def _with_chain_count(base: PowerModelParams, m_a: int) -> PowerModelParams:
    # memoised, so the runs of a sweep share one object per mode and
    # with it the selectors' searches, which are cached per object
    return PowerModelParams(eta=base.eta, p_cir_w=base.p_cir_w, p_sta_w=base.p_sta_w, m_a=m_a)


def _check_count(name: str, value, least: int) -> None:
    """Reject a value that is not an int, is a bool or is below least."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an int, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one run needs. The antenna mode sets the chain count:
    power_model is stored as power_model_for_mode(antenna_mode,
    power_model), so its m_a is 2 for MIMO and 1 otherwise whatever the
    caller passed."""

    channel: ChannelParams
    antenna_mode: str = SISO
    strategy: str = SEMI_STATIC
    duration_ttis: int = 10_000
    seed: int = 1
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    power_model: PowerModelParams = field(default_factory=PowerModelParams)
    table: McsTable = field(default_factory=default_table)
    baseline_power_dbm: float = 40.5
    collect_trace: bool = True

    def __post_init__(self):
        for name, kind in (("channel", ChannelParams), ("controller", ControllerConfig),
                           ("power_model", PowerModelParams), ("table", McsTable),
                           ("collect_trace", bool)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, got {value!r}")
        if self.antenna_mode not in _MODES:
            raise ValueError(f"antenna_mode must be one of {_MODES}")
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        _check_count("duration_ttis", self.duration_ttis, 1)
        _check_count("seed", self.seed, 0)
        power = self.baseline_power_dbm
        if not isinstance(power, Real) or isinstance(power, bool):
            raise ValueError(f"baseline_power_dbm must be a real number, got {power!r}")
        if not abs(power) <= 1000.0:  # as make_channel's powers, so its watts fit a float
            raise ValueError(f"baseline_power_dbm must be finite, within +-1000 dB, got {power}")
        if self.controller.min_mcs > len(self.table):
            raise ValueError(
                f"controller.min_mcs {self.controller.min_mcs} exceeds the "
                f"{len(self.table)}-level table"
            )
        object.__setattr__(
            self, "power_model", power_model_for_mode(self.antenna_mode, self.power_model)
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
    folded in, sampled at the TTI rate. A link holds no such block: it
    reduces synth_fading's rows as they are made to the gains this block
    gives. synth_fading is called through this module's name so the
    benchmark tracer's patch on it takes effect."""
    n_taps = len(ch.pdp_weights)
    amps = _process_amps(ch, n_rx * n_tx)
    block = synth_fading(len(amps), n_steps, ControllerConfig.tti_ms * 1e-3, _doppler(ch), rng)
    block *= amps[:, None]
    return block.reshape(n_taps, n_rx, n_tx, n_steps)


def _process_amps(ch: ChannelParams, n_ant: int) -> np.ndarray:
    """The PDP amplitude of each fading process, tap-major: the
    processes of one tap, one per antenna pair, share its amplitude."""
    return np.repeat(np.sqrt(np.asarray(ch.pdp_weights)), n_ant)


def _doppler(ch: ChannelParams) -> float:
    return doppler_hz(ch.speed_kmh, ch.carrier_hz)


def estimation_loss_db(f_d_hz: float, window_s: float) -> float:
    """Effective-SINR penalty of pilot-aided channel estimation.

    The estimate taken over one averaging window decorrelates from the
    instantaneous channel by rho = J0(2 pi f_d w); the matched-filter
    mismatch costs about rho^2 in post-combining SINR. Clipped so a deep
    null in J0 cannot produce an unbounded penalty."""
    rho = abs(bessel_j0(2.0 * np.pi * f_d_hz * window_s))
    return -20.0 * np.log10(max(rho, 0.05))


# (_link_key, chunk list) of the last run that fit in one chunk, or None
_link_memo: tuple[tuple, list[_Link]] | None = None


def run(
    sc: ScenarioConfig, sink: Callable[[TtiRecord], object] | None = None
) -> tuple[RunMetrics, list[TtiRecord]]:
    """Simulate one scenario; deterministic for a fixed seed.

    With sc.collect_trace set, each TTI's TtiRecord goes to sink as the
    loop makes it, in TTI order, and the returned trace is empty; with
    no sink the records are collected into the returned trace.

    A run of at most CHUNK_TTIS TTIs reuses the link of the run before
    it when their _link_key values are equal, so the strategies of one
    realization, run back to back, synthesize it once. Otherwise it
    drops the kept link first, builds its own and keeps that one; after
    it returns the engine holds that one link, up to about 12.6 MB for a
    full 2x2 chunk. A longer run drops the kept link and synthesizes one
    chunk at a time, as the loop reaches it, keeping none, so a run's
    memory is bounded whatever its length, except for the returned
    trace, which grows by one TtiRecord per TTI when no sink is given."""
    global _link_memo
    if sc.duration_ttis > CHUNK_TTIS:
        _link_memo = None
        return _run_link(sc, _build_link(sc), sink)
    key = _link_key(sc)
    # one read of the entry, so a concurrent run cannot change it
    # between the check and the use
    memo = _link_memo
    if memo is not None and memo[0] == key:
        chunks = memo[1]
    else:
        # drop the kept link before building, so one is alive at a time
        memo = _link_memo = None
        chunks = list(_build_link(sc))
        _link_memo = key, chunks
    return _run_link(sc, chunks, sink)


def _build_link(sc: ScenarioConfig) -> Iterator[_Link]:
    """The link of sc's channel realization, as chunks of at most
    CHUNK_TTIS TTIs drawn in order from the run's one generator and
    built as they are asked for; runs whose _link_key is equal get
    equal chunks."""
    rng = np.random.default_rng(sc.seed)
    chunk_link = _mimo_link if sc.antenna_mode == MIMO else _single_stream_link
    for start in range(0, sc.duration_ttis, CHUNK_TTIS):
        yield chunk_link(sc, min(CHUNK_TTIS, sc.duration_ttis - start), rng)


def _link_key(sc: ScenarioConfig) -> tuple:
    """Everything _build_link reads from sc. Runs of equal keys,
    compared by value, have equal links: run reuses its kept link for
    them."""
    return sc.channel, sc.antenna_mode, sc.duration_ttis, sc.seed, sc.table


# ------------------------------------------------------------ link views


class _Link(NamedTuple):
    """What the TTI loop needs to know about one chunk of one antenna
    mode's link; t below counts the chunk's TTIs from 0.

    report(t, p_dbm) is the (mode, pci, cqi1, cqi2, p_dbm) report measured
    at TTI t with p_dbm configured; cqi2 is 0 for a single-stream mode.
    It serves the controller strategies, whose power moves. A
    FixedBaseline run reads fixed_reports(p_dbm) instead: the list of
    report(t, p_dbm) over every TTI of the chunk, computed in one
    vectorised pass.
    sinr_db[mode][slot][pci][t] is the dB SINR at 1 W (30 dBm), less the
    pilot loss, of stream slot under a report of that mode, a Python
    float read from a row of packed doubles (a memoryview of a float64
    array, 8 B a TTI; indexing the array itself would give np.float64,
    whose arithmetic could change the trace text); and ttis is the
    chunk's length. What the antenna mode fixes, each stream's power
    share and the retransmission timing, _run_link reads from the mode.
    """

    report: Callable[[int, float], tuple]
    fixed_reports: Callable[[float], list]
    sinr_db: dict
    ttis: int


def _pilot_loss_db(sc: ScenarioConfig) -> float:
    return estimation_loss_db(_doppler(sc.channel), PILOT_WINDOW_S)


def _single_stream_link(sc: ScenarioConfig, n: int, rng) -> _Link:
    """SISO/SIMO: one receive-combined stream, reported by a scalar
    bisect; the next n TTIs of rng's fading."""
    ch = sc.channel
    amps = _process_amps(ch, 2 if sc.antenna_mode == SIMO else 1)
    scale = iter(amps)
    gain = np.zeros(n)
    power = np.empty(n)

    def add_power(h):
        # fading_block's scale, then |.|^2 summed over its processes in
        # order (a static row's one value broadcasts over the TTIs)
        h *= next(scale)
        np.abs(h, out=power)
        np.square(power, out=power)
        np.add(gain, power, out=gain)

    synth_fading(len(amps), n, ControllerConfig.tti_ms * 1e-3, _doppler(ch), rng, add_power)
    _gains_to_db((gain,), ch, 1.0, _pilot_loss_db(sc))
    return _single_stream_view(sc.table, memoryview(gain))


def _gains_to_db(rows, ch: ChannelParams, p_w: float, loss_db: float) -> None:
    """Turn each row of link gains (fading power, or one 2x2 stream's
    spatial gain) in place into the dB SINR at p_w less loss_db, one
    row at a time: every link constant is this step's."""
    for row in rows:
        row[:] = hs_sinr_db(p_w, ch.path_gain_lin * row, ch) - loss_db


def _single_stream_view(table: McsTable, c_db) -> _Link:
    """The single-stream link over the per-TTI dB constants c_db, a
    sequence of Python floats (a memoryview of doubles in a run)."""
    thr = table._thr_list

    def report(t, p_dbm):
        return SINGLE, 0, bisect_right(thr, (p_dbm - 30.0) + c_db[t]), 0, p_dbm

    def fixed_reports(p_dbm):
        cqi = np.searchsorted(table.thresholds_db, (p_dbm - 30.0) + np.asarray(c_db), side="right")
        # one report per CQI, shared by its TTIs
        distinct = [(SINGLE, 0, c, 0, p_dbm) for c in range(len(thr) + 1)]
        return list(map(distinct.__getitem__, cqi.tolist()))

    return _Link(report, fixed_reports, {SINGLE: ((c_db,),)}, len(c_db))


def _add_stream_gains(gains: np.ndarray, taps: np.ndarray) -> None:
    """Add the stream gains of taps, (n_taps, 2, 2, T) fading, into
    gains, shaped (3, 4, T): nulled stream 1, nulled stream 2 and the
    combined single stream, each per PCI (stream_gain_series)."""
    for pci, w in enumerate(pci_codebook()):
        for row, gain in zip(gains[:, pci], stream_gain_series(taps, w)):
            row += gain


# how far each stream's power lies below the total, by report mode: a
# dual-stream TTI splits its power equally over the two streams
_HALF_DB = float(10.0 * np.log10(2.0))
_SHARE_DB = {SINGLE: 0.0, DUAL: _HALF_DB}


def _mimo_hypothesis(thr, tbs, a1, a2, a_single, t, p_dbm):
    """Best of the eight mode/PCI hypotheses at power p_dbm for TTI t;
    ties prefer single mode, then the lower PCI. thr and tbs are the
    table's thresholds and block sizes, a1/a2/a_single[pci][t] the dB
    constants of _mimo_link; a dual hypothesis needs both streams in
    range.

    The best single-stream hypothesis takes one bisect, on the largest
    of the four constants: its block size is the best single one, and
    the winner is the lowest PCI that reaches the lowest level with that
    block size (tbs may repeat), compared as bisect_right compares."""
    off = p_dbm - 30.0
    s0 = a_single[0][t]
    s1 = a_single[1][t]
    s2 = a_single[2][t]
    s3 = a_single[3][t]
    c = bisect_right(thr, max(s0, s1, s2, s3) + off)
    pci = best_bits = 0
    if c:
        best_bits = tbs[c - 1]
        low = c
        while low > 1 and tbs[low - 2] == best_bits:
            low -= 1
        need = thr[low - 1]
        if s0 + off >= need:
            s = s0
        elif s1 + off >= need:
            pci, s = 1, s1
        elif s2 + off >= need:
            pci, s = 2, s2
        else:
            pci, s = 3, s3
        if low < c:
            c = bisect_right(thr, s + off, low, c)
    # a dual hypothesis wins only with strictly more bits, so it needs
    # both streams in range; the PCIs are searched in order
    off -= _HALF_DB
    dual = -1
    c1 = bisect_right(thr, a1[0][t] + off)
    if c1:
        c2 = bisect_right(thr, a2[0][t] + off)
        if c2 and tbs[c1 - 1] + tbs[c2 - 1] > best_bits:
            dual, d1, d2, best_bits = 0, c1, c2, tbs[c1 - 1] + tbs[c2 - 1]
    c1 = bisect_right(thr, a1[1][t] + off)
    if c1:
        c2 = bisect_right(thr, a2[1][t] + off)
        if c2 and tbs[c1 - 1] + tbs[c2 - 1] > best_bits:
            dual, d1, d2, best_bits = 1, c1, c2, tbs[c1 - 1] + tbs[c2 - 1]
    c1 = bisect_right(thr, a1[2][t] + off)
    if c1:
        c2 = bisect_right(thr, a2[2][t] + off)
        if c2 and tbs[c1 - 1] + tbs[c2 - 1] > best_bits:
            dual, d1, d2, best_bits = 2, c1, c2, tbs[c1 - 1] + tbs[c2 - 1]
    c1 = bisect_right(thr, a1[3][t] + off)
    if c1:
        c2 = bisect_right(thr, a2[3][t] + off)
        if c2 and tbs[c1 - 1] + tbs[c2 - 1] > best_bits:
            dual, d1, d2 = 3, c1, c2
    if dual < 0:
        return SINGLE, pci, c, 0
    return DUAL, dual, d1, d2


def _mimo_hypotheses(thr, tbs, a1, a2, a_single, p_dbm):
    """The 2x2 report at power p_dbm for every TTI at once, as
    (hypothesis, c1, c2) arrays: hypothesis pci for a single-stream
    report and 4 + pci for a dual one. thr and tbs are the table's
    thresholds and (integer) block sizes as arrays, a1/a2/a_single the
    per-PCI rows of _mimo_hypothesis.

    The rule itself: walk the eight hypotheses in report order,
    single-stream PCI 0-3 then dual-stream PCI 0-3, count one only when
    every stream is in range, and keep the first with strictly more
    bits; with none, the report is single-stream PCI 0 at CQI 0."""
    T = len(a1[0])
    hyp, c1, c2, best_bits = (np.zeros(T, dtype=np.int64) for _ in range(4))
    bits_at = np.concatenate(([0], tbs))  # a level's block size, 0 out of range
    hypotheses = [(a_single[pci],) for pci in range(4)] + [(a1[pci], a2[pci]) for pci in range(4)]
    for h, streams in enumerate(hypotheses):
        off = p_dbm - 30.0 if h < 4 else p_dbm - 30.0 - _HALF_DB
        cqis = [np.searchsorted(thr, np.asarray(row) + off, side="right") for row in streams]
        bits = sum(bits_at[c] for c in cqis)
        better = bits > best_bits
        for c in cqis:
            better &= c > 0
        np.copyto(hyp, h, where=better)
        np.copyto(best_bits, bits, where=better)
        np.copyto(c1, cqis[0], where=better)
        if h >= 4:
            np.copyto(c2, cqis[1], where=better)
    return hyp, c1, c2


def _mimo_link(sc: ScenarioConfig, n: int, rng) -> _Link:
    """2x2: the terminal reports its best mode/PCI hypothesis, and a
    dual-stream TTI splits the power equally over the two streams; the
    next n TTIs of rng's fading."""
    ch = sc.channel
    amps = _process_amps(ch, 4)
    gains = np.zeros((3, 4, n))
    tap = np.empty((4, n), dtype=complex)
    made = 0

    def add_process(h):
        # fading_block's scale, one tap's 4 processes at a time; each
        # full tap adds its stream gains, in tap order
        nonlocal made
        np.multiply(h, amps[made], out=tap[made % 4])
        made += 1
        if made % 4 == 0:
            _add_stream_gains(gains, tap.reshape(1, 2, 2, n))

    synth_fading(len(amps), n, ControllerConfig.tti_ms * 1e-3, _doppler(ch), rng, add_process)
    _gains_to_db(gains.reshape(12, n), ch, 1.0, _pilot_loss_db(sc))
    # each of the 12 rows a zero-copy view of doubles, read as floats
    return _mimo_view(sc.table, [[memoryview(row) for row in rows] for rows in gains])


def _mimo_view(table: McsTable, consts) -> _Link:
    """The 2x2 link over the constants of _mimo_link, as three rows of
    per-PCI sequences of Python floats (memoryviews of doubles in a run)."""
    a1, a2, a_single = consts
    thr, tbs = table._thr_list, table._tbs_list

    def report(t, p_dbm):
        return _mimo_hypothesis(thr, tbs, a1, a2, a_single, t, p_dbm) + (p_dbm,)

    def fixed_reports(p_dbm):
        hyp, c1, c2 = _mimo_hypotheses(
            table.thresholds_db, np.array(tbs), a1, a2, a_single, p_dbm
        )
        # one report per distinct (hypothesis, c1, c2), shared by its TTIs
        k = len(thr) + 1
        _, first, idx = np.unique(
            (hyp * k + c1) * k + c2, return_index=True, return_inverse=True
        )
        distinct = [
            (DUAL if h >= 4 else SINGLE, h % 4, x1, x2, p_dbm)
            for h, x1, x2 in zip(hyp[first].tolist(), c1[first].tolist(), c2[first].tolist())
        ]
        return list(map(distinct.__getitem__, idx.tolist()))

    return _Link(report, fixed_reports, {SINGLE: (a_single,), DUAL: (a1, a2)}, len(a1[0]))


# -------------------------------------------------------------- TTI loop


class _DualReports(dict):
    """The MimoFeedback of each (pci, cqi1, cqi2) dual report, made on
    its first lookup: it is immutable, so a run's TTIs can share it."""

    def __missing__(self, key):
        fb = self[key] = MimoFeedback(DUAL, *key)
        return fb


def _queue_retx(failed, retx, replace: bool) -> None:
    """Queue the failed (slot, mcs, tbs, count) blocks for resending;
    replace decides whether a newer failure displaces a pending one."""
    for slot, m, b, cnt in failed:
        if cnt < MAX_RETRANSMISSIONS and (replace or retx[slot] is None):
            retx[slot] = (m, b, cnt + 1)


def _run_link(
    sc: ScenarioConfig, links: Iterable[_Link], sink: Callable[[TtiRecord], object] | None = None
) -> tuple[RunMetrics, list[TtiRecord]]:
    """Run sc over links, the chunks of its link in order, whose lengths
    sum to sc.duration_ttis; the trace rows go to sink as run's do."""
    cfg, pm, table = sc.controller, sc.power_model, sc.table
    T = sc.duration_ttis
    delay = FEEDBACK_DELAY_TTIS
    ts = cfg.tti_ms * 1e-3
    thr = table._thr_list
    tbs = table._tbs_list
    overhead = pm.overhead_w
    eta = pm.eta
    strategy = sc.strategy
    baseline = strategy == FIXED_BASELINE
    per_tti_optimal = strategy == PER_TTI_OPTIMAL
    semi_static = strategy == SEMI_STATIC
    collect = sc.collect_trace
    share_db = _SHARE_DB
    # the mode's retransmission timing, for the two _queue_retx calls:
    # SISO/SIMO queue a failure before the TTI transmits, 2x2 after it
    resolve_first = sc.antenna_mode != MIMO

    trace: list[TtiRecord] = []
    emit = trace.append if sink is None else sink
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
    # the controller state, kept in locals: the outer-loop offset and
    # SemiStatic's trigger timer and smoothed EE, written into st for each
    # on_tti call; then the constants of update_offset and on_tti
    offset, timer, ee_smoothed = st.offset_db, st.timer_ms, st.ee_smoothed
    step_up, step_down = cfg.offset_step_up_db, cfg.offset_step_down_db
    clamp = cfg.offset_clamp_db
    neg_clamp = -clamp
    tti_ms = cfg.tti_ms
    min_interval = cfg.min_reconfig_interval_ms
    smoothing = cfg.ee_smoothing
    min_mcs = cfg.min_mcs
    p_energy = served_energy = None  # energy of a served TTI, cached per power
    # an idle TTI's power and energy, one object each for the whole run
    idle_p = float("-inf")
    idle_energy = ts * overhead
    last_sample_ee = 0.0
    dual_reports = _DualReports()

    base = 0  # TTIs of the run before the current chunk
    for link in links:
        report, fixed_reports, sinr_db, n = link
        # the baseline's power never changes: every report of the chunk
        # is known before its first TTI
        fixed = fixed_reports(p_cfg) if baseline else None
        # t counts the run's TTIs and i the chunk's, which index its link
        for i in range(n):
            t = base + i
            k = t % delay
            fb = reports[k]
            arriving_acks = acks_due[k]
            arriving_failed = failed_due[k]

            # the ACK/NACK outer loop of every strategy: update_offset,
            # written out
            for ack in arriving_acks:
                if ack:
                    offset -= step_down
                else:
                    offset += step_up
                if offset > clamp:
                    offset = clamp
                elif offset < neg_clamp:
                    offset = neg_clamp

            # every applied trigger decision counts as a reconfiguration,
            # even one that lands on the values already in force: it is the
            # signaling event that costs, not the numeric delta
            reconfigured = False
            levels = ()
            if fb is None or fb[2] < 1:
                # no report in range: nothing is served, and SemiStatic's
                # timer and smoothed EE advance as in on_tti
                if semi_static:
                    timer += tti_ms
                    ee_smoothed += smoothing * (last_sample_ee - ee_smoothed)
            elif baseline:
                # hold power, conventional link adaptation backed off by the
                # outer loop: amc_level(table, cqi, -offset, 1), written out
                # (bisect_right never exceeds the table)
                levels = (bisect_right(thr, thr[fb[2] - 1] - offset) or 1,)
                if fb[0] == DUAL:
                    levels += (bisect_right(thr, thr[fb[3] - 1] - offset) or 1,)
            elif per_tti_optimal:
                # PerTtiOptimal: every report in range selects, and the
                # selection is applied
                if fb[0] == SINGLE:
                    sel = select_optimal(fb[4], fb[2], offset, table, cfg, pm, exact_ee=False)
                else:
                    sel = select_optimal_dual(
                        fb[4], dual_reports[fb[1:4]], offset, table, cfg, pm, exact_ee=False
                    )
                reconfigured = True
                reconfigs += 1
                p_cfg = sel.power_dbm
                levels = sel.levels
            elif timer + tti_ms > min_interval:
                # SemiStatic evaluates its dual trigger: on_tti steps st,
                # whose offset has taken this TTI's ACKs already
                if fb[0] == SINGLE:
                    cqi, select = fb[2], select_optimal
                else:
                    cqi, select = dual_reports[fb[1:4]], select_optimal_dual
                st.offset_db, st.timer_ms, st.ee_smoothed = offset, timer, ee_smoothed
                st, dec = on_tti(
                    st, TtiFeedback(cqi, (), fb[4], last_sample_ee), table, cfg, pm, select,
                    exact_ee=False,
                )
                timer, ee_smoothed = st.timer_ms, st.ee_smoothed
                if dec.action == RECONFIGURE:
                    reconfigured = True
                    reconfigs += 1
                    p_cfg = st.power_dbm
                levels = dec.levels
            else:
                # SemiStatic inside the minimum interval, where its trigger
                # cannot fire, so nothing is selected: the timer and the
                # smoothed EE advance, and plain AMC serves at the held
                # power, amc_level(table, cqi, (p_cfg - measured) - offset,
                # min_mcs), written out
                timer += tti_ms
                ee_smoothed += smoothing * (last_sample_ee - ee_smoothed)
                shift = (p_cfg - fb[4]) - offset
                m = bisect_right(thr, thr[fb[2] - 1] + shift)
                levels = (m if m > min_mcs else min_mcs,)
                if fb[0] == DUAL:
                    m = bisect_right(thr, thr[fb[3] - 1] + shift)
                    levels += (m if m > min_mcs else min_mcs,)

            if resolve_first and arriving_failed:
                _queue_retx(arriving_failed, retx, True)

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
                    if rows[slot][pci][i] + off >= thr[m - 1]:
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
                    emit(TtiRecord(t, p_cfg, m1, m2, outcome, delivered, energy, reconfigured))
            else:
                energy_j += idle_energy
                last_sample_ee = 0.0
                acks_due[k] = failed_due[k] = ()
                if collect:
                    emit(TtiRecord(t, idle_p, 0, 0, OUTCOME_IDLE, 0, idle_energy, reconfigured))

            if not resolve_first and arriving_failed:
                _queue_retx(arriving_failed, retx, False)

            # measurement for the report that arrives delay TTIs from now,
            # taken at the configured power regardless of what was sent
            reports[k] = fixed[i] if baseline else report(i, p_cfg)

        base += n
        # drop the chunk before the next one is built, so that one is
        # alive at a time
        link = report = fixed_reports = sinr_db = rows = fixed = None

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
    value: float
    strategy: str
    mean_ee: float
    std_ee: float
    mean_reconfigs: float
    mean_throughput: float
    repetitions: int
    ee_samples: tuple[float, ...]


# the variables a sweep can vary, each with its value type
_SWEEP_VARS = {"speed": float, "distance": float, "theta_min": int, "fixed_power": float}


def _derive(template: ScenarioConfig, variable, value, strategy, mode, seed):
    if _SWEEP_VARS[variable] is int:
        try:
            value = operator.index(value)
        except TypeError:
            raise ValueError(f"{variable} values must be integers, got {value!r}") from None
    else:
        value = float(value)
    ch, cfg, baseline = template.channel, template.controller, template.baseline_power_dbm
    if variable == "speed":
        ch = replace(ch, speed_kmh=value)
    elif variable == "distance":
        ch = replace(ch, distance_m=value)
    elif variable == "theta_min":
        cfg = replace(cfg, min_mcs=value)
    elif variable == "fixed_power":
        baseline = value
    return replace(
        template,
        channel=ch,
        controller=cfg,
        baseline_power_dbm=baseline,
        strategy=strategy,
        antenna_mode=mode,
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
    share their channel realizations and differences are paired. Every
    run is derived before the first one runs, so a bad value fails
    before any work. The runs go by repetition, then antenna mode, then
    value, then strategy: a fixed_power or theta_min value leaves the
    channel as it is, so the runs of one realization (channel, antenna
    mode, run length, seed and table) come back to back and run builds
    their link once when the run fits in one chunk of CHUNK_TTIS TTIs.
    A longer run rebuilds its chunks one at a time, so memory stays
    bounded. The points come in value, antenna mode, strategy order,
    each cell's samples in repetition order. The strategy label carries
    the antenna mode when more than one is swept (e.g.
    "FixedBaseline/MIMO").

    Antenna modes are swept through antenna_modes, not as a variable, and
    theta_min values must be integers. No entry of values, strategies or
    antenna_modes may repeat, since cells that collide would be merged.
    """
    if variable not in _SWEEP_VARS:
        raise ValueError(f"variable must be one of {tuple(_SWEEP_VARS)}")
    values = list(values)
    if not values:
        raise ValueError("values must be non-empty")
    _check_count("repetitions", repetitions, 1)
    strategies = strategies or (template.strategy,)
    antenna_modes = antenna_modes or (template.antenna_mode,)
    for name, entries in (("values", values), ("strategies", strategies),
                          ("antenna_modes", antenna_modes)):
        if len(set(entries)) < len(entries):
            raise ValueError(f"{name} has a repeated entry: {list(entries)}")
    seeds = [int(s) for s in np.random.SeedSequence(template.seed).generate_state(repetitions)]

    cells: dict[tuple, list] = {c: [] for c in product(values, antenna_modes, strategies)}
    # every run derived before the first one, in realization order
    runs = [
        (cells[value, mode, strat], _derive(template, variable, value, strat, mode, seed))
        for seed, mode, value, strat in product(seeds, antenna_modes, values, strategies)
    ]
    for ms, sc in runs:
        ms.append(run(sc)[0])

    points: list[SweepPoint] = []
    for (value, mode, strat), ms in cells.items():
        ees = np.array([m.avg_ee_bits_per_joule for m in ms])
        points.append(
            SweepPoint(
                variable=variable,
                value=value,
                strategy=strat if len(antenna_modes) == 1 else f"{strat}/{mode}",
                mean_ee=float(ees.mean()),
                std_ee=float(ees.std(ddof=1)) if len(ees) > 1 else 0.0,
                mean_reconfigs=float(np.mean([m.reconfig_count for m in ms])),
                mean_throughput=float(np.mean([m.throughput_bps for m in ms])),
                repetitions=len(ms),
                ee_samples=tuple(float(x) for x in ees),
            )
        )
    return points
