"""
Multipath fading and the HS-PDSCH SINR chain
=============================================

Builds the tapped-delay-line channel, checks that the synthesised
Doppler process has the right autocorrelation, and walks one SINR
through quantisation and decoding.
"""

import numpy as np

from hsdpa_ee import (
    bessel_j0,
    dbm_to_watt,
    decode,
    doppler_hz,
    fading_block,
    hs_sinr_db,
    make_channel,
    path_gain_db,
    reference_table,
    synth_fading,
)

# -- distance-dependent path gain ------------------------------------------
for d in (100.0, 435.0, 1000.0, 2000.0):
    print(f"d = {d:6.0f} m: path gain {path_gain_db(d):8.2f} dB")

# -- fading statistics vs the Jakes model ----------------------------------
# the lag-k autocorrelation of a Jakes process is J0(2 pi f_d k T)
speed = 30.0
fd = doppler_hz(speed, 2e9)
series = synth_fading(1, 200_000, dt_s=2e-3, f_d=fd,
                      rng=np.random.default_rng(7))[0]
x = series - series.mean()
lag = 5
rho_hat = np.real(np.mean(x[:-lag] * np.conj(x[lag:]))) / np.mean(np.abs(x) ** 2)
rho_jakes = bessel_j0(2.0 * np.pi * fd * lag * 2e-3)
print(f"\n{speed:.0f} km/h, f_d = {fd:.1f} Hz: lag-{lag} autocorr "
      f"measured {rho_hat:+.3f}, Jakes {rho_jakes:+.3f}")

# -- one TTI through the SINR chain ----------------------------------------
# per-tap gains (n_taps, n_rx, n_tx, TTI) with the delay profile folded in;
# the walk below starts one TTI into the block
ch = make_channel(435.0, -72.5, geometry_db=23.0, alpha=0.995, speed_kmh=3.0)
block = fading_block(ch, n_rx=2, n_tx=1, n_steps=6, rng=np.random.default_rng(3))
table = reference_table()
p_w = dbm_to_watt(40.5)

print()
for tti in range(5):
    gain = np.sum(np.abs(block[..., tti + 1]) ** 2)  # MRC over taps and rx antennas
    sinr = hs_sinr_db(p_w, ch.path_gain_lin * gain, ch)
    ok = decode(sinr, 17, table)  # try MCS 17 against this SINR
    print(f"TTI {tti}: fading gain {10 * np.log10(gain):+6.2f} dB, "
          f"SINR {sinr:6.2f} dB, MCS 17 -> {'ACK' if ok else 'NACK'}")
