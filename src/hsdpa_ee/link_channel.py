"""Propagation, fading and SINR of the HS-PDSCH link.

The downlink SINR after despreading follows the usual single-cell-plus-
background form

    sinr = SF * P_hs * g / ((1 - alpha) * I_or + I_oc + N0 * W)

with g the instantaneous link gain (path gain times aggregate fading
power, receive-combined). The denominator is treated as constant over a
run, which makes the SINR exactly linear in transmit power in dB; the
controller's power-shift arithmetic relies on that.

Fading is per-tap Rayleigh with a Jakes Doppler spectrum. Trajectories
are synthesised in the frequency domain (white complex Gaussians shaped
by the per-bin Jakes energies, then an inverse FFT), so the marginals
are exactly complex Gaussian at any sample count, and tap energy across
the synthesis block matches the power-delay profile in expectation.
synth_fading draws unit-power processes, one inverse FFT per process,
one synthesis per chunk of a run (up to sim_engine.CHUNK_TTIS TTIs), so
the Doppler correlation holds across every TTI of a chunk. It returns
the block of processes, or hands each row to a function of the caller
as it is made, so that no block is held; how the rows combine into link
gains is sim_engine's business.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "SPEED_OF_LIGHT_M_S",
    "PA3_POWERS_DB",
    "pa3_profile",
    "path_gain_db",
    "UE_NOISE_W_PER_HZ",
    "ChannelParams",
    "make_channel",
    "doppler_hz",
    "bessel_j0",
    "synth_fading",
    "hs_sinr_db",
]

SPEED_OF_LIGHT_M_S = 299_792_458.0

# ITU Pedestrian A: relative tap powers
PA3_POWERS_DB = (0.0, -9.7, -19.2, -22.8)

# the terminal's noise density: thermal -174 dBm/Hz through a 9 dB noise
# figure, a fixed receiver assumption
UE_NOISE_W_PER_HZ = 3.9811e-21 * 10.0 ** (9.0 / 10.0)


def pa3_profile() -> tuple[float, ...]:
    """Pedestrian-A normalised linear tap weights."""
    lin = np.array([10.0 ** (p / 10.0) for p in PA3_POWERS_DB])
    lin /= lin.sum()
    return tuple(float(w) for w in lin)


def path_gain_db(distance_m: float) -> float:
    """Distance-dependent gain in dB (negative), urban macro exponent.

    Loss model: 128.1 + 37.6 * log10(d_km).
    """
    if distance_m <= 0.0:
        raise ValueError("distance must be > 0")
    return -(128.1 + 37.6 * np.log10(distance_m / 1000.0))


@dataclass(frozen=True)
class ChannelParams:
    """Static link geometry and interference levels.

    i_or_w is the total received own-cell power and i_oc_w the received
    other-cell interference, both in watts at the terminal. They are
    held constant over a run; only the numerator of the SINR fades.

    The HS-PDSCH's spreading factor (16) on a 5 MHz carrier (3GPP TS
    25.308) at 2 GHz, the ITU Pedestrian A tap powers and the terminal's
    noise density (n0_w_per_hz, UE_NOISE_W_PER_HZ) are class constants,
    not fields: no experiment varies them. The taps fade as independent
    flat Rayleigh processes, so tap delays never reach a link gain and
    are not kept.
    """

    sf = 16
    bandwidth_hz = 5e6
    carrier_hz = 2e9
    pdp_weights = pa3_profile()
    n0_w_per_hz = UE_NOISE_W_PER_HZ

    i_or_w: float
    i_oc_w: float
    alpha: float = 0.9  # own-cell orthogonality, 1 = perfectly orthogonal
    speed_kmh: float = 3.0
    distance_m: float = 1000.0

    def __post_init__(self):
        for name in ("i_or_w", "i_oc_w", "alpha", "speed_kmh", "distance_m"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        if self.i_or_w < 0.0 or self.i_oc_w < 0.0:
            raise ValueError("interference powers must be >= 0")
        if self.speed_kmh < 0.0:
            raise ValueError("speed must be >= 0")
        if self.distance_m <= 0.0:
            raise ValueError("distance must be > 0")

    @property
    def noise_w(self) -> float:
        return self.n0_w_per_hz * self.bandwidth_hz

    @property
    def denominator_w(self) -> float:
        """Constant interference-plus-noise term of the SINR."""
        return (1.0 - self.alpha) * self.i_or_w + self.i_oc_w + self.noise_w

    @property
    def path_gain_lin(self) -> float:
        return 10.0 ** (path_gain_db(self.distance_m) / 10.0)


def make_channel(
    distance_m: float,
    i_or_dbm: float,
    geometry_db: float = 5.0,
    alpha: float = 0.9,
    speed_kmh: float = 3.0,
) -> ChannelParams:
    """Build ChannelParams from a geometry factor.

    geometry_db is I_or / (I_oc + N0 * W) in dB; the other-cell power is
    derived from it and clipped at zero when the requested geometry is
    already noise-limited. N0 is the terminal's UE_NOISE_W_PER_HZ,
    ChannelParams.n0_w_per_hz. Both dB values must lie within +-1000 dB,
    far past any link, so that no power below overflows a float.
    """
    for name, value in (("i_or_dbm", i_or_dbm), ("geometry_db", geometry_db)):
        if not abs(value) <= 1000.0:
            raise ValueError(f"{name} must be finite, within +-1000 dB, got {value}")
    i_or_w = 10.0 ** ((i_or_dbm - 30.0) / 10.0)
    denom_target = i_or_w / 10.0 ** (geometry_db / 10.0)
    i_oc_w = max(0.0, denom_target - UE_NOISE_W_PER_HZ * ChannelParams.bandwidth_hz)
    return ChannelParams(
        i_or_w=i_or_w,
        i_oc_w=i_oc_w,
        alpha=alpha,
        speed_kmh=speed_kmh,
        distance_m=distance_m,
    )


def doppler_hz(speed_kmh: float, carrier_hz: float) -> float:
    return (speed_kmh / 3.6) * carrier_hz / SPEED_OF_LIGHT_M_S


def bessel_j0(x: float) -> float:
    """J0 for real scalar x; the fading autocorrelation kernel.

    Power series below |x| = 12 (terms fall off factorially there),
    Hankel's large-argument form above. Keeps the runtime free of a
    scipy dependency; agrees with scipy.special.j0 to ~1e-12.
    """
    ax = abs(float(x))
    if ax < 12.0:
        q = -0.25 * ax * ax
        term, total = 1.0, 1.0
        for k in range(1, 40):
            term *= q / (k * k)
            total += term
            if abs(term) < 1e-17 * abs(total):
                break
        return total
    # two-term asymptotic expansion
    z = 8.0 / ax
    p = 1.0 - 4.5 * z * z / 64.0
    q = -z / 8.0 * (1.0 - 37.5 * z * z / 384.0)
    phase = ax - 0.25 * np.pi
    return float(np.sqrt(2.0 / (np.pi * ax)) * (p * np.cos(phase) - q * np.sin(phase)))


def _jakes_bin_energies(n_fft: int, dt_s: float, f_d: float) -> np.ndarray:
    """Energy per FFT bin under the Jakes spectrum, summing to 1.

    Uses the closed-form spectral CDF (arcsine), so the band-edge
    singularities carry their exact integrated mass.
    """
    freqs = np.fft.fftfreq(n_fft, d=dt_s)
    df = 1.0 / (n_fft * dt_s)
    lo = np.clip(freqs - 0.5 * df, -f_d, f_d)
    hi = np.clip(freqs + 0.5 * df, -f_d, f_d)
    energies = (np.arcsin(hi / f_d) - np.arcsin(lo / f_d)) / np.pi
    # bin 0 always holds [-min(df/2, f_d), min(df/2, f_d)], so the sum is
    # positive; a band narrower than one bin is all in it, exactly 1.0
    return energies / energies.sum()


def synth_fading(
    n_procs: int,
    n_steps: int,
    dt_s: float,
    f_d: float,
    rng: np.random.Generator,
    on_row: Callable[[np.ndarray], object] | None = None,
) -> np.ndarray | None:
    """Unit-power Rayleigh trajectories, shape (n_procs, n_steps); given
    on_row, None, with on_row(h_p) called on each row h_p instead.

    Each row h_p is an independent complex Gaussian process with Jakes
    Doppler autocorrelation J0(2 pi f_d tau). Zero Doppler degenerates
    to a constant draw per process.

    The draws and the arithmetic are those of one (n_procs, n_fft)
    spectrum (real parts of every process, then imaginary parts) and one
    batched inverse FFT, with n_fft the power of two >= max(4096,
    n_steps), but the spectrum is shaped and transformed one process at
    a time. A copy of rng replays the real parts row by row, while rng,
    first advanced past them, draws the imaginary parts; rng is left
    where the block form leaves it. The skip pass costs n_procs x n_fft
    extra normal draws.

    on_row gets each row as soon as its inverse FFT is done, in process
    order: n_steps complex values, or on a static channel one value that
    stands for all of them. It may scale the row in place; the buffer is
    reused once it returns, so no block exists.

    Under tracemalloc, for 8 processes of 70 000 steps, the block form
    peaks at 15.4 MB: its 9.0 MB output and three rows of n_fft complex
    values (the row's spectrum, its inverse FFT, and one row of draws
    and the bin scale, n_fft floats each).
    """
    for name, value in (("n_procs", n_procs), ("n_steps", n_steps)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, got {value!r}")
    if n_steps < 1 or n_procs < 1:
        raise ValueError("n_procs and n_steps must be >= 1")
    if not (math.isfinite(dt_s) and math.isfinite(f_d)):
        raise ValueError(f"dt_s and doppler must be finite, got {dt_s} and {f_d}")
    if dt_s <= 0.0:
        raise ValueError("dt_s must be > 0")
    if f_d < 0.0:
        raise ValueError("doppler must be >= 0")
    rows = _fading_rows(n_procs, n_steps, dt_s, f_d, rng)
    if on_row is not None:
        for h in rows:
            on_row(h)
        return None
    out = np.empty((n_procs, n_steps), dtype=complex)
    for row, h in zip(out, rows):
        row[:] = h
    return out


def _fading_rows(n_procs, n_steps, dt_s, f_d, rng):
    """Yield synth_fading's rows in process order: n_steps complex
    values, or for the static channel one value that stands for all of
    them. A row is valid until the next is asked for, and the caller
    may scale it in place. The static channel's draws are all taken
    before the first row, the spectrum's as each row is made."""
    if f_d * dt_s < 1e-12:
        # static channel: one draw, constant over the block
        g = (rng.standard_normal((n_procs, 1)) + 1j * rng.standard_normal((n_procs, 1)))
        g *= np.sqrt(0.5)
        yield from g
        return
    n_fft = 4096
    while n_fft < n_steps:
        n_fft *= 2
    scale = n_fft * np.sqrt(_jakes_bin_energies(n_fft, dt_s, f_d))
    re_rng = copy.deepcopy(rng)
    draws = np.empty(n_fft)
    for _ in range(n_procs):
        rng.standard_normal(out=draws)
    z = np.empty(n_fft, dtype=complex)
    for _ in range(n_procs):
        # the block form's elementwise steps on one row; from the second
        # row on, z is the buffer of the row yielded before, which the
        # caller is done with, so only two complex rows are ever alive
        np.multiply(1j, rng.standard_normal(out=draws), out=z)
        z += re_rng.standard_normal(out=draws)
        z *= np.sqrt(0.5)
        z *= scale
        z = np.fft.ifft(z)
        yield z[:n_steps]


def hs_sinr_db(p_hs_w: float, link_gain, params: ChannelParams):
    """Post-despreading SINR of the HS-PDSCH in dB; -inf at zero gain.

    link_gain is the path gain times the receive-combined fading power,
    or times the spatial gain for one nulled 2x2 stream. Accepts a
    scalar or an array of gains. A negative or NaN power or gain is
    refused.
    """
    if not p_hs_w >= 0.0:
        raise ValueError(f"transmit power p_hs_w must be >= 0, got {p_hs_w}")
    g = np.asarray(link_gain, dtype=float)
    if not (g >= 0.0).all():
        raise ValueError("link_gain must be >= 0 and not NaN")
    with np.errstate(divide="ignore"):
        out = 10.0 * np.log10(params.sf * p_hs_w * g / params.denominator_w)
    return float(out) if out.ndim == 0 else out
