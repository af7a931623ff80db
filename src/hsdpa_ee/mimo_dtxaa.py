"""Dual-stream (2x2) support: precoding codebook, per-stream gains,
user-side mode selection, and sum-efficiency power/MCS optimization.

The terminal evaluates eight hypotheses per TTI: each of the four
codebook entries in single-stream mode (all power on the primary
precoder) and in dual-stream mode (power split equally). It reports
the hypothesis with the largest total transport block size. The engine
runs that search (sim_engine._mimo_hypothesis); select_mode_and_feedback
is the same search on one gain stack.

Per-stream SINR uses a linear spatially-nulling receiver: each stream
sees only the component of its effective channel column orthogonal to
the other stream's column, accumulated over the delay profile taps,
and its SINR is link_channel.hs_sinr_db of that gain, as for the
single-antenna link. Nulling keeps every stream's SINR exactly
linear in transmit power in dB, which the power-shift arithmetic of
the controller requires; receivers that trade interference against
noise break that linearity.

The dual-stream optimizer walks MCS pairs that move both streams by
exactly the same threshold shift, so one power value serves both; the
total power update applies that per-stream shift twice
(DUAL_SHIFT_FACTOR). It is select_optimal's rule over these pairs, run
by the one candidate search of ee_controller: the pairs of a report
are its candidates, at power DUAL_SHIFT_FACTOR * (beta_j1 - beta_i1)
above the reported pair's, with the lower level of a pair as its
level for the min_mcs floor. The enumeration is row-major in the
stream-1 level, on which alone the power depends, so with
DUAL_SHIFT_FACTOR positive the list is already in non-decreasing power
order and needs no sort; pairs whose shifts round equal share a power.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ee_controller import ControllerConfig, _build_search, _searches, _select
from .link_channel import ChannelParams
from .mcs_table import McsTable, _is_cqi_index
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
    "select_mode_and_feedback",
    "enumerate_equal_delta_pairs",
    "estimate_dual_power",
    "select_optimal_dual",
]

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# the report modes of MimoFeedback
SINGLE = "single"
DUAL = "dual"

# dB of total power per dB of per-stream threshold shift: the shift is
# applied to each of the two equal-power streams
DUAL_SHIFT_FACTOR = 2.0


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
    """User report: chosen mode, codebook index, and per-stream CQIs,
    each a Python or numpy integer (cqi_secondary None in single mode)."""

    mode: str
    pci: int
    cqi_primary: int
    cqi_secondary: int | None = None

    def __post_init__(self):
        if self.mode not in (SINGLE, DUAL):
            raise ValueError("mode must be single or dual")
        second = self.cqi_secondary
        if not (_is_cqi_index(self.cqi_primary) and (second is None or _is_cqi_index(second))):
            raise ValueError(f"a report's CQIs must be integer indices, got {self!r}")
        if self.mode == DUAL and (second is None or second < 1):
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


def select_mode_and_feedback(
    channel, params: ChannelParams, table: McsTable, p_hs_w: float
) -> MimoFeedback:
    """Pick the mode/PCI hypothesis with the largest total TBS for one
    (n_taps, 2, 2) gain stack at transmit power p_hs_w.

    This is the engine's 2x2 report on a one-TTI block without the pilot
    loss: sim_engine._mimo_link's gain and dB steps at p_hs_w, searched by
    sim_engine._mimo_hypothesis at 30 dBm, which adds no power offset.
    Ties prefer single mode, then the lower codebook index.
    """
    # imported here: sim_engine imports this module
    from .sim_engine import _add_stream_gains, _gains_to_db, _mimo_hypothesis

    gains = np.zeros((3, 4, 1))
    _add_stream_gains(gains, _tap_stack(channel)[..., None])
    _gains_to_db(gains.reshape(12, 1), params, p_hs_w, 0.0)
    a1, a2, a_single = gains.tolist()
    mode, pci, c1, c2 = _mimo_hypothesis(
        table._thr_list, table._tbs_list, a1, a2, a_single, 0, 30.0
    )
    return MimoFeedback(mode, pci, c1, c2 if mode == DUAL else None)


def enumerate_equal_delta_pairs(i1: int, i2: int, table: McsTable) -> list[tuple[int, int]]:
    """All MCS pairs whose threshold shifts from (i1, i2) are equal, so
    a single power update serves both streams."""
    thr = table.thresholds_db
    n = len(thr)
    if not (1 <= i1 <= n and 1 <= i2 <= n):
        raise ValueError("reference indices must be valid table entries")
    d1 = thr - thr[i1 - 1]
    d2 = thr - thr[i2 - 1]
    idx1, idx2 = np.nonzero(d1[:, None] - d2[None, :] == 0.0)
    return [(int(a) + 1, int(b) + 1) for a, b in zip(idx1, idx2)]


def estimate_dual_power(
    p_dbm: float, i1: int, j1: int, table: McsTable, delta_db: float = 0.0
) -> float:
    """Total-power estimate for moving stream 1 from level i1 to j1
    (stream 2 moves by the same threshold shift by construction): the
    per-stream shift applies to the total power DUAL_SHIFT_FACTOR times.
    """
    if i1 < 1:
        raise ValueError("no power estimate possible from an out-of-range CQI")
    shift = table.threshold(j1) - table.threshold(i1)
    return p_dbm + DUAL_SHIFT_FACTOR * shift + delta_db


class DualSelection(NamedTuple):
    pair: tuple[int, int]
    power_dbm: float
    ee: float
    infeasible: bool

    @property
    def levels(self) -> tuple[int, int]:
        return self.pair


def _pair_search(table, pm, i1, i2):
    """The equal-shift pairs of the report (i1, i2), at their power above
    the reported pair's: exactly the shift term, so that p_dbm + shift -
    0.0 + delta_db rounds like estimate_dual_power(p_dbm, ..., delta_db)."""
    pairs = enumerate_equal_delta_pairs(i1, i2, table)
    tbs = table._tbs_list
    bits = [float(tbs[a - 1] + tbs[b - 1]) for a, b in pairs]
    shifts = [estimate_dual_power(0.0, i1, j1, table) for j1, _ in pairs]
    lowest = [min(pair) for pair in pairs]
    return _build_search((id(table), id(pm), i1, i2), table, pm, pairs, bits, shifts, lowest)


def select_optimal_dual(
    p_dbm: float,
    feedback: MimoFeedback,
    delta_db: float,
    table: McsTable,
    cfg: ControllerConfig,
    pm: PowerModelParams,
    *,
    exact_ee: bool = True,
) -> DualSelection:
    """Sum-efficiency argmax over the equal-shift MCS pair list.

    The single-stream rule of select_optimal on the power-sorted pair
    list: the minimum-level constraint sets the floor (first pair with
    both streams admissible), the power budget the ceiling, and an
    empty admissible window is flagged infeasible with a full-power
    best-affordable fallback. pm should describe the dual-chain
    hardware state (m_a = 2). exact_ee is select_optimal's: with False,
    ee may differ in its last bits, and the pair, power and flag are the
    same.
    """
    if feedback.mode != DUAL:
        raise ValueError("dual-stream selection needs dual-mode feedback")
    i1, i2 = feedback.cqi_primary, feedback.cqi_secondary
    n = len(table._thr_list)
    if not (1 <= i1 <= n and 1 <= i2 <= n):
        raise ValueError("reference indices must be valid table entries")
    if cfg.min_mcs > n:
        raise ValueError("min_mcs must be a valid table index")
    search = _searches.get((id(table), id(pm), i1, i2)) or _pair_search(table, pm, i1, i2)
    return _select(search, p_dbm, 0.0, delta_db, cfg, pm, DualSelection, exact_ee)
