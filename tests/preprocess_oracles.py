"""Whole-track version of spectral_subtract, kept as a test oracle.

This is the original definition: the full complex STFT from
scipy.signal.ShortTimeFFT, magnitude and phase for every frame, and the
inverse through ShortTimeFFT.istft. The blocked kernel in
detoxaudit.audio_io must reproduce it to floating-point round-off.
"""

from dataclasses import replace

import numpy as np
from scipy import signal


def spectral_subtract(buf, cfg, frame_length=2048, hop=512):
    n_profile = int(round(cfg.noise_profile_window * buf.sample_rate))
    if len(buf.samples) <= n_profile:
        raise ValueError("buffer shorter than noise profile window")
    if not np.any(buf.samples):
        return buf

    win = signal.get_window("hann", frame_length)
    sft = signal.ShortTimeFFT(win, hop=hop, fs=buf.sample_rate)
    spec = sft.stft(buf.samples)
    mags = np.abs(spec)
    phase = np.angle(spec)

    if cfg.noise_profile_mode == "leading":
        n_frames = max(1, n_profile // hop)
        noise_mag = mags[:, :n_frames].mean(axis=1, keepdims=True)
    else:
        frame_energy = (mags**2).sum(axis=0)
        k = max(1, int(0.1 * mags.shape[1]))
        quietest = np.argsort(frame_energy)[:k]
        noise_mag = mags[:, quietest].mean(axis=1, keepdims=True)

    cleaned = np.maximum(mags - noise_mag, cfg.subtraction_floor * noise_mag)
    out = sft.istft(cleaned * np.exp(1j * phase), k1=len(buf.samples))
    return replace(buf, samples=np.real(out[: len(buf.samples)]))
