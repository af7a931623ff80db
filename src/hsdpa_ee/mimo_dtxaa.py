"""Dual-stream (2x2) support: precoding codebook, per-stream SINR,
user-side mode selection, and sum-efficiency power/MCS optimization.

The terminal evaluates eight hypotheses per TTI: each of the four
codebook entries in single-stream mode (all power on the primary
precoder) and in dual-stream mode (power split equally). It reports
the hypothesis with the largest total transport block size.

Per-stream SINR uses a linear spatially-nulling receiver: each stream
sees only the component of its effective channel column orthogonal to
the other stream's column, accumulated over the delay profile taps,
and is then scaled by the same spreading-gain/interference structure
as the single-antenna link. Nulling keeps every stream's SINR exactly
linear in transmit power in dB, which the power-shift arithmetic of
the controller requires; receivers that trade interference against
noise break that linearity.

The dual-stream optimizer walks MCS pairs that move both streams by
the same threshold shift, so one power value serves both; the total
power update applies that per-stream shift twice by default (a flag
selects the single-application convention instead).

The pair list, its block-size sums and the admissible floor depend only
on the table and the report, so they are built once per (table, power
model, reported pair, tol_db, shift_factor) and cached. The enumeration
is row-major in the stream-1 level, on which alone the power depends,
so for shift_factor >= 0 (enforced) the list is already in ascending
power order and needs no sort. Pairs at one power
form a group whose best is its first pair with the largest sum; the
groups are candidates at offsets shift_factor * (beta_j1 - beta_i1) for
the closed-form interval search of ee_controller, with the same
near-tie fallback to evaluating every pair and the same EE evaluation
(numpy's power ufunc, for bit-exact figures).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from .ee_controller import (
    _CACHE_LIMIT,
    ControllerConfig,
    _argmax_at,
    _argmax_intervals,
    _ArgmaxIntervals,
    _ee,
)
from .link_channel import ChannelParams, hs_sinr_db
from .mcs_table import McsTable, cqi_from_sinr
from .power_model import PowerModelParams

__all__ = [
    "PrecodingWeights",
    "MimoFeedback",
    "DualSelection",
    "SINGLE",
    "DUAL",
    "pci_codebook",
    "stream_gains",
    "stream_gain_series",
    "per_stream_sinr",
    "select_mode_and_feedback",
    "enumerate_equal_delta_pairs",
    "estimate_dual_power",
    "select_optimal_dual",
]

SINGLE = "single"
DUAL = "dual"

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


@dataclass(frozen=True)
class PrecodingWeights:
    """One codebook entry: (w1, w2) primary stream, (w3, w4) secondary."""

    w1: complex
    w2: complex
    w3: complex
    w4: complex

    @property
    def primary(self) -> np.ndarray:
        return np.array([self.w1, self.w2])

    @property
    def secondary(self) -> np.ndarray:
        return np.array([self.w3, self.w4])


@dataclass(frozen=True)
class MimoFeedback:
    """User report: chosen mode, codebook index, and per-stream CQIs."""

    mode: str
    pci: int
    cqi_primary: int
    cqi_secondary: int | None = None

    def __post_init__(self):
        if self.mode not in (SINGLE, DUAL):
            raise ValueError("mode must be single or dual")
        if self.mode == DUAL and (self.cqi_secondary is None or self.cqi_secondary < 1):
            raise ValueError("dual mode needs two valid CQIs")


def pci_codebook() -> tuple[PrecodingWeights, ...]:
    """The four 2x2 precoder pairs: w1 = w3 = 1/sqrt(2), w4 = -w2,
    w2 drawn from the QPSK quarter points."""
    w2_choices = (
        0.5 * (1 + 1j),
        0.5 * (1 - 1j),
        0.5 * (-1 + 1j),
        0.5 * (-1 - 1j),
    )
    return tuple(
        PrecodingWeights(w1=_INV_SQRT2, w2=w2, w3=_INV_SQRT2, w4=-w2)
        for w2 in w2_choices
    )


def _tap_stack(channel) -> np.ndarray:
    """Normalize channel input to a (n_taps, 2, 2) complex stack."""
    gains = np.asarray(channel, dtype=complex)
    if gains.ndim == 2:
        gains = gains[None, :, :]
    if gains.ndim != 3 or gains.shape[-2:] != (2, 2):
        raise ValueError("channel must be one or more 2x2 gain matrices")
    return gains


def stream_gains(channel, weights: PrecodingWeights) -> tuple[float, float, float]:
    """Spatial gain of each nulled stream plus the combined single-stream
    gain, summed over taps.

    Returns (nulled_primary, nulled_secondary, combined_primary) where
    combined_primary is the full receive-combined norm used when only
    the primary stream transmits.
    """
    e1, e2, combined = stream_gain_series(_tap_stack(channel)[..., None], weights)
    return float(e1[0]), float(e2[0]), float(combined[0])


def stream_gain_series(
    block: np.ndarray, weights: PrecodingWeights
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-TTI stream gains over a (n_taps, 2, 2, T) trajectory block.

    Each stream keeps the part of its effective channel column that is
    orthogonal to the other stream's column, summed over taps. Returns
    three length-T arrays: nulled primary, nulled secondary, combined
    single-stream gain.
    """
    if block.ndim != 4 or block.shape[1:3] != (2, 2):
        raise ValueError("block must have shape (n_taps, 2, 2, T)")
    a1 = np.einsum("krst,s->krt", block, weights.primary)
    a2 = np.einsum("krst,s->krt", block, weights.secondary)
    n1 = np.sum(np.abs(a1) ** 2, axis=1)
    n2 = np.sum(np.abs(a2) ** 2, axis=1)
    cross = np.abs(np.sum(np.conj(a2) * a1, axis=1)) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        e1 = n1 - np.where(n2 > 0.0, cross / n2, 0.0)
        e2 = n2 - np.where(n1 > 0.0, cross / n1, 0.0)
    e1 = np.maximum(e1, 0.0)  # clip float residue of colinear columns
    e2 = np.maximum(e2, 0.0)
    return e1.sum(axis=0), e2.sum(axis=0), n1.sum(axis=0)


def per_stream_sinr(
    channel, weights: PrecodingWeights, p_per_stream_w: float, params: ChannelParams
) -> tuple[float, float]:
    """Post-receiver SINR of both streams in dB at equal per-stream power."""
    if p_per_stream_w < 0.0:
        raise ValueError("per-stream power must be >= 0")
    e1, e2, _ = stream_gains(channel, weights)
    g = params.path_gain_lin
    return (hs_sinr_db(p_per_stream_w, g * e1, params),
            hs_sinr_db(p_per_stream_w, g * e2, params))


def select_mode_and_feedback(
    channel, params: ChannelParams, table: McsTable, p_hs_w: float
) -> MimoFeedback:
    """Pick the mode/PCI hypothesis with the largest total TBS for one
    (n_taps, 2, 2) gain stack.

    Single-stream hypotheses put all power on the primary precoder with
    receive combining; dual hypotheses split power equally and null.
    Ties prefer single mode, then the lower codebook index. The engine
    reaches the same answers per TTI through sim_engine._mimo_hypothesis;
    this is its slow per-step reference.
    """
    if p_hs_w < 0.0:
        raise ValueError("transmit power must be >= 0")
    g = params.path_gain_lin
    best = None
    best_tbs = -1
    for pci, weights in enumerate(pci_codebook()):
        e1, e2, combined = stream_gains(channel, weights)
        cqi_single = cqi_from_sinr(table, hs_sinr_db(p_hs_w, g * combined, params))
        tbs_single = table.tbs(cqi_single) if cqi_single >= 1 else 0
        if tbs_single > best_tbs:
            best = MimoFeedback(SINGLE, pci, cqi_single)
            best_tbs = tbs_single
        half = 0.5 * p_hs_w
        c1 = cqi_from_sinr(table, hs_sinr_db(half, g * e1, params))
        c2 = cqi_from_sinr(table, hs_sinr_db(half, g * e2, params))
        tbs_dual = (table.tbs(c1) if c1 >= 1 else 0) + (table.tbs(c2) if c2 >= 1 else 0)
        if tbs_dual > best_tbs and c1 >= 1 and c2 >= 1:
            best = MimoFeedback(DUAL, pci, c1, c2)
            best_tbs = tbs_dual
    return best


def enumerate_equal_delta_pairs(
    i1: int, i2: int, table: McsTable, tol_db: float = 0.0
) -> list[tuple[int, int]]:
    """All MCS pairs whose threshold shifts from (i1, i2) agree within
    tol_db, so a single power update serves both streams."""
    thr = table.thresholds_db
    n = len(thr)
    if not (1 <= i1 <= n and 1 <= i2 <= n):
        raise ValueError("reference indices must be valid table entries")
    if not 0.0 <= tol_db < np.inf:
        raise ValueError("tol_db must be finite and >= 0")
    d1 = thr - thr[i1 - 1]
    d2 = thr - thr[i2 - 1]
    mismatch = np.abs(d1[:, None] - d2[None, :])
    idx1, idx2 = np.nonzero(mismatch <= tol_db)
    return [(int(a) + 1, int(b) + 1) for a, b in zip(idx1, idx2)]


def estimate_dual_power(
    p_dbm: float,
    i1: int,
    j1: int,
    table: McsTable,
    delta_db: float = 0.0,
    shift_factor: float = 2.0,
) -> float:
    """Total-power estimate for moving stream 1 from level i1 to j1
    (stream 2 moves by the same threshold shift by construction).

    The default applies the per-stream shift twice to the total power;
    shift_factor=1.0 applies it once.
    """
    if i1 < 1:
        raise ValueError("no power estimate possible from an out-of-range CQI")
    shift = table.threshold(j1) - table.threshold(i1)
    return p_dbm + shift_factor * shift + delta_db


@dataclass(frozen=True)
class DualSelection:
    pair: tuple[int, int]
    power_dbm: float
    ee: float
    infeasible: bool

    @property
    def levels(self) -> tuple[int, int]:
        return self.pair


class _PairSearch(NamedTuple):
    """What select_optimal_dual needs of one reported pair, per pair
    position k in enumeration order and per equal-power group g."""

    pairs: list[tuple[int, int]]
    bits: list[float]  # k: block-size sum
    group: list[int]  # k: its group
    floor: list[int]  # k: max over positions <= k of min(pair)
    shifts: list[float]  # g: power above p_dbm + delta_db, ascending
    ends: list[int]  # g: one past its last position
    intervals: _ArgmaxIntervals  # over groups; items map to best[g]
    best: list[int]  # g: its first position with the largest sum
    owners: tuple  # the table and power model, keeping their ids unique


_pair_searches: dict = {}  # see ee_controller._level_searches


def _pair_search(table, pm, i1, i2, tol_db, shift_factor) -> _PairSearch:
    if not 0.0 <= shift_factor < np.inf:
        raise ValueError("shift_factor must be finite and >= 0")
    pairs = enumerate_equal_delta_pairs(i1, i2, table, tol_db)
    tbs = table._tbs_list
    bits = [float(tbs[a - 1] + tbs[b - 1]) for a, b in pairs]
    group, shifts, ends, best = [], [], [], []
    for k, (j1, _) in enumerate(pairs):
        # exactly the shift term: p_dbm + shift + delta_db rounds like
        # estimate_dual_power(p_dbm, ..., delta_db, shift_factor)
        shift = estimate_dual_power(0.0, i1, j1, table, 0.0, shift_factor)
        if not shifts or shift != shifts[-1]:
            shifts.append(shift)
            ends.append(k)
            best.append(k)
        elif bits[k] > bits[best[-1]]:
            best[-1] = k
        ends[-1] = k + 1
        group.append(len(shifts) - 1)
    floor = list(accumulate((min(pair) for pair in pairs), max))
    intervals = _argmax_intervals(shifts, [bits[k] for k in best], pm)
    search = _PairSearch(pairs, bits, group, floor, shifts, ends, intervals, best, (table, pm))
    if len(_pair_searches) >= _CACHE_LIMIT:
        _pair_searches.clear()
    _pair_searches[(id(table), id(pm), i1, i2, tol_db, shift_factor)] = search
    return search


def select_optimal_dual(
    p_dbm: float,
    feedback: MimoFeedback,
    delta_db: float,
    table: McsTable,
    cfg: ControllerConfig,
    pm: PowerModelParams,
    tol_db: float = 0.0,
    shift_factor: float = 2.0,
) -> DualSelection:
    """Sum-efficiency argmax over the equal-shift MCS pair list.

    Mirrors the single-stream clamp logic on the power-sorted pair
    list: the minimum-level constraint sets the floor (first pair with
    both streams admissible), the power budget the ceiling, and an
    empty admissible window is flagged infeasible with a full-power
    best-affordable fallback. pm should describe the dual-chain
    hardware state (m_a = 2).
    """
    if feedback.mode != DUAL:
        raise ValueError("dual-stream selection needs dual-mode feedback")
    i1, i2 = feedback.cqi_primary, feedback.cqi_secondary
    search = _pair_searches.get(
        (id(table), id(pm), i1, i2, tol_db, shift_factor)
    ) or _pair_search(table, pm, i1, i2, tol_db, shift_factor)
    pairs, bits, group, floor, shifts, ends, intervals, best, _ = search

    # affordable: the pairs whose power p_dbm + shift + delta_db (the
    # expression of estimate_dual_power) fits the budget, found on the
    # ascending group shifts and corrected for rounding
    p_max = cfg.p_max_dbm
    n_groups = len(shifts)
    g = bisect_right(shifts, p_max - p_dbm - delta_db)
    while g < n_groups and p_dbm + shifts[g] + delta_db <= p_max:
        g += 1
    while g > 0 and p_dbm + shifts[g - 1] + delta_db > p_max:
        g -= 1
    affordable = ends[g - 1] if g else 0

    tti_s = cfg.tti_ms * 1e-3
    pos_min = bisect_left(floor, cfg.min_mcs)
    if pos_min >= affordable:  # no admissible pair fits the budget
        pos = affordable - 1 if affordable >= 1 else 0
        p_pos = p_dbm + shifts[group[pos]] + delta_db
        return DualSelection(pairs[pos], p_max, _ee(p_pos, bits[pos], tti_s, pm), True)

    g_star = _argmax_at(intervals, p_dbm + delta_db)
    if g_star is None:
        ees = [
            _ee(p_dbm + shifts[group[k]] + delta_db, bits[k], tti_s, pm)
            for k in range(len(pairs))
        ]
        pos_star = ees.index(max(ees))
    else:
        pos_star = best[g_star]
    pos = min(max(pos_star, pos_min), affordable - 1)
    p_pos = p_dbm + shifts[group[pos]] + delta_db
    return DualSelection(pairs[pos], p_pos, _ee(p_pos, bits[pos], tti_s, pm), False)
