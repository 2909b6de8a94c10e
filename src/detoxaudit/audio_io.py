"""WAV loading and the vocal-stem preprocessing chain.

The chain runs: resample -> truncate -> pre-emphasis -> spectral
subtraction -> high-pass -> peak normalization. Each step is a pure
function over an immutable AudioBuffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy import signal
from scipy.io import wavfile


class AudioLoadError(ValueError):
    """Raised when a file cannot be decoded into usable audio."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio with its sample rate. Samples are float64 amplitudes."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""
    silent: bool = False
    preprocessed: bool = False

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", np.asarray(self.samples, dtype=np.float64))

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class PreprocessConfig:
    target_rate: int = 22050
    max_duration: float = 360.0
    preemphasis_alpha: float = 0.97
    highpass_cutoff: float = 100.0
    noise_profile_window: float = 0.5
    subtraction_floor: float = 0.02
    # "leading" uses the first noise_profile_window seconds as the profile;
    # "quietest" uses the lowest-energy frames of the whole track instead.
    noise_profile_mode: str = "leading"
    denoise: bool = True

    def __post_init__(self):
        if not 0 <= self.preemphasis_alpha < 1:
            raise ValueError("preemphasis_alpha must be in [0, 1)")
        if not 0 <= self.subtraction_floor <= 1:
            raise ValueError("subtraction_floor must be in [0, 1]")
        if self.noise_profile_mode not in ("leading", "quietest"):
            raise ValueError("noise_profile_mode must be 'leading' or 'quietest'")


def load_track(path) -> AudioBuffer:
    """Load a PCM WAV file (16-bit int or 32-bit float) as a mono buffer.

    Multichannel input is averaged to mono; the file's sample rate is kept.
    A float file holding any NaN or infinite sample is rejected.
    """
    path = Path(path)
    if not path.exists():
        raise AudioLoadError(f"cannot read audio file: {path}")
    try:
        rate, data = wavfile.read(str(path))
    except Exception as exc:
        raise AudioLoadError(f"unsupported or corrupt audio file {path}: {exc}") from exc
    if data.size == 0:
        raise AudioLoadError(f"zero-length audio: {path}")
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype in (np.float32, np.float64):
        samples = data.astype(np.float64)
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        raise AudioLoadError(f"unsupported sample encoding {data.dtype} in {path}")
    if not np.isfinite(samples).all():
        raise AudioLoadError(f"non-finite samples (NaN or Inf) in {path}")
    if samples.ndim > 1:
        samples = samples.mean(axis=1)
    return AudioBuffer(samples, int(rate), source_id=path.stem)


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited (polyphase) resampling to target_rate."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if buf.sample_rate == target_rate:
        return buf
    ratio = Fraction(target_rate, buf.sample_rate)
    out = signal.resample_poly(buf.samples, ratio.numerator, ratio.denominator)
    return replace(buf, samples=out, sample_rate=target_rate)


def truncate(buf: AudioBuffer, max_duration: float) -> AudioBuffer:
    """Keep the first max_duration seconds."""
    limit = int(round(max_duration * buf.sample_rate))
    if len(buf.samples) <= limit:
        return buf
    return replace(buf, samples=buf.samples[:limit])


def preemphasis(buf: AudioBuffer, alpha: float = 0.97) -> AudioBuffer:
    """First-difference filter y[n] = x[n] - alpha * x[n-1], y[0] = x[0]."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must be in [0, 1)")
    x = buf.samples
    y = np.empty_like(x)
    if len(x):
        y[0] = x[0]
        y[1:] = x[1:] - alpha * x[:-1]
    return replace(buf, samples=y)


def highpass(buf: AudioBuffer, cutoff: float = 100.0, order: int = 4) -> AudioBuffer:
    """Zero-phase Butterworth high-pass removing content below cutoff."""
    nyquist = buf.sample_rate / 2
    if not 0 < cutoff < nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist})")
    if len(buf.samples) == 0:
        return buf
    sos = signal.butter(order, cutoff, btype="highpass", fs=buf.sample_rate, output="sos")
    out = signal.sosfiltfilt(sos, buf.samples)
    return replace(buf, samples=out)


def spectral_subtract(
    buf: AudioBuffer,
    cfg: PreprocessConfig,
    frame_length: int = 2048,
    hop: int = 512,
) -> AudioBuffer:
    """Subtract an estimated noise magnitude spectrum from every frame.

    The noise profile is the mean STFT magnitude over the first
    cfg.noise_profile_window seconds ("leading" mode) or over the
    quietest 10% of frames ("quietest" mode). Magnitudes are floored at
    cfg.subtraction_floor times the noise magnitude; phase is kept and
    the signal is rebuilt by overlap-add.
    """
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


def normalize(buf: AudioBuffer) -> AudioBuffer:
    """Scale so peak |sample| = 1. All-zero input is returned with silent=True."""
    peak = np.max(np.abs(buf.samples)) if len(buf.samples) else 0.0
    if peak == 0:
        return replace(buf, silent=True)
    return replace(buf, samples=buf.samples / peak)


def preprocess(buf: AudioBuffer, cfg: PreprocessConfig | None = None) -> AudioBuffer:
    """Run the full preprocessing chain in order.

    Already-preprocessed buffers are returned unchanged so the
    non-idempotent pre-emphasis step never runs twice.
    """
    cfg = cfg or PreprocessConfig()
    if buf.preprocessed:
        return buf
    out = resample(buf, cfg.target_rate)
    out = truncate(out, cfg.max_duration)
    out = preemphasis(out, cfg.preemphasis_alpha)
    if cfg.denoise and len(out.samples) > cfg.noise_profile_window * out.sample_rate:
        out = spectral_subtract(out, cfg)
    out = highpass(out, cfg.highpass_cutoff)
    out = normalize(out)
    return replace(out, preprocessed=True)
