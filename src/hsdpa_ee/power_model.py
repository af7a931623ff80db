"""Transmitter power consumption model and AWGN SE/EE curves.

The consumed power at the base station is split into a load-dependent
part (PA drain, scaled by efficiency) and a load-independent part
(per-antenna circuit power plus site overhead):

    P_total = P_tx / eta + m_a * P_cir + P_sta    [watts]

Energy efficiency here is always delivered bits per joule, so the AWGN
helpers in this module express the classic bandwidth/power trade-off:
spectral efficiency grows like log2(1 + SNR) while the consumed power
grows linearly, which puts the EE optimum at a finite transmit power
whenever the circuit/overhead terms are nonzero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .link_channel import ChannelParams

__all__ = [
    "PowerModelParams",
    "dbm_to_watt",
    "watt_to_dbm",
    "total_power",
    "shannon_se",
    "shannon_ee",
    "optimal_shannon_power",
]


def dbm_to_watt(p_dbm):
    """Convert dBm to watts. Accepts scalars or arrays."""
    p_dbm = np.asarray(p_dbm, dtype=float)
    if not np.all(np.isfinite(p_dbm)):
        raise ValueError("power in dBm must be finite")
    out = 10.0 ** ((p_dbm - 30.0) / 10.0)
    return float(out) if out.ndim == 0 else out


def watt_to_dbm(p_w):
    """Convert watts to dBm. Requires strictly positive input."""
    p_w = np.asarray(p_w, dtype=float)
    if np.any(p_w <= 0.0) or not np.all(np.isfinite(p_w)):
        raise ValueError("power in watts must be finite and > 0")
    out = 10.0 * np.log10(p_w) + 30.0
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class PowerModelParams:
    """Static parameters of the consumption model.

    eta       -- PA drain efficiency, 0 < eta <= 1
    p_cir_w   -- circuit power per active transmit antenna, watts
    p_sta_w   -- static site power independent of antenna count, watts
    m_a       -- number of active transmit antennas (1 for SISO/SIMO,
                 2 for the dual-antenna modes)
    """

    eta: float = 0.38
    p_cir_w: float = 6.0
    p_sta_w: float = 6.0
    m_a: int = 1

    def __post_init__(self):
        for name in ("eta", "p_cir_w", "p_sta_w"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if self.p_cir_w < 0.0 or self.p_sta_w < 0.0:
            raise ValueError("circuit and static power must be >= 0")
        if not isinstance(self.m_a, int) or isinstance(self.m_a, bool):
            raise ValueError(f"m_a must be an int, got {self.m_a!r}")
        if self.m_a < 1:
            raise ValueError(f"m_a must be >= 1, got {self.m_a}")

    @cached_property
    def overhead_w(self) -> float:
        """Load-independent consumption m_a * P_cir + P_sta.

        Computed on the first read and kept in the instance's __dict__,
        so later reads, one per selection, are plain attribute lookups;
        it is not a field, so eq, hash and repr do not see it."""
        return self.m_a * self.p_cir_w + self.p_sta_w


def total_power(p_tx_w, params: PowerModelParams):
    """Consumed power in watts for a given radiated power.

    Broadcasts over array input so EE curves can be evaluated on a grid.
    """
    p_tx_w = np.asarray(p_tx_w, dtype=float)
    if np.any(p_tx_w < 0.0):
        raise ValueError("transmit power must be >= 0")
    out = p_tx_w / params.eta + params.overhead_w
    return float(out) if out.ndim == 0 else out


def shannon_se(p_tx_w, n0w_w):
    """AWGN spectral efficiency log2(1 + P / (N0 * W)) in bit/s/Hz.

    n0w_w is the total noise power N0 * W in watts.
    """
    if n0w_w <= 0.0:
        raise ValueError("noise power must be > 0")
    p_tx_w = np.asarray(p_tx_w, dtype=float)
    if np.any(p_tx_w < 0.0):
        raise ValueError("transmit power must be >= 0")
    out = np.log2(1.0 + p_tx_w / n0w_w)
    return float(out) if out.ndim == 0 else out


def shannon_ee(p_tx_w, params: PowerModelParams, n0w_w):
    """AWGN energy efficiency W * SE / P_total in bits per joule, over
    the HSDPA carrier's bandwidth W (ChannelParams.bandwidth_hz)."""
    rate = ChannelParams.bandwidth_hz * shannon_se(p_tx_w, n0w_w)
    out = rate / total_power(p_tx_w, params)
    return float(out) if np.ndim(out) == 0 else out


def optimal_shannon_power(
    params: PowerModelParams,
    n0w_w: float,
    p_max_w: float = 20.0,
    tol_w: float = 1e-6,
) -> float:
    """Transmit power maximising shannon_ee on [0, p_max_w].

    The EE curve is quasiconcave in P (rate is concave, consumed power
    affine), so golden-section search converges to the global optimum.
    tol_w is the bracket width at which the search stops.
    """
    if p_max_w <= 0.0:
        raise ValueError("p_max_w must be > 0")
    if tol_w <= 0.0:
        raise ValueError("tol_w must be > 0")

    def ee(p):
        return shannon_ee(p, params, n0w_w)

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    lo, hi = 0.0, float(p_max_w)
    a = hi - inv_phi * (hi - lo)
    b = lo + inv_phi * (hi - lo)
    fa, fb = ee(a), ee(b)
    while hi - lo > tol_w:
        if fa < fb:
            lo, a, fa = a, b, fb
            b = lo + inv_phi * (hi - lo)
            fb = ee(b)
        else:
            hi, b, fb = b, a, fa
            a = hi - inv_phi * (hi - lo)
            fa = ee(a)
    return 0.5 * (lo + hi)
