"""WAV loading and the vocal-stem preprocessing chain.

The chain runs: resample -> truncate -> pre-emphasis -> spectral
subtraction -> high-pass -> peak normalization. Each step is a pure
function over an immutable AudioBuffer.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

# SciPy is imported inside the functions that call it, so that a lyric-only
# run never pays its start-up time or memory

# frames per step of every framed kernel (spectral subtraction, RMS, f0, HNR,
# CPP); at 4096-sample HNR frames a block's complex spectrum takes 1 MiB and
# each float temporary 512 KiB
BLOCK_FRAMES = 32
HIGHPASS_ORDER = 4
# spectral subtraction's STFT framing, in samples
SUBTRACT_FRAME_LENGTH = 2048
SUBTRACT_HOP = 512


class AudioLoadError(ValueError):
    """Raised when a file cannot be decoded into usable audio."""


@dataclass(frozen=True)
class AudioBuffer:
    """Mono audio with its sample rate. Samples are float64 amplitudes."""

    samples: np.ndarray
    sample_rate: int
    silent: bool = False

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
        if not 0 <= self.max_duration < np.inf:  # false for NaN too
            raise ValueError("max_duration must be finite and >= 0")
        if not 0 <= self.preemphasis_alpha < 1:
            raise ValueError("preemphasis_alpha must be in [0, 1)")
        if not 0 <= self.noise_profile_window < np.inf:
            raise ValueError("noise_profile_window must be finite and >= 0")
        if not 0 <= self.subtraction_floor <= 1:
            raise ValueError("subtraction_floor must be in [0, 1]")
        if self.noise_profile_mode not in ("leading", "quietest"):
            raise ValueError("noise_profile_mode must be 'leading' or 'quietest'")


def load_track(path) -> AudioBuffer:
    """Load a PCM WAV file (8-bit unsigned, 16/32-bit int, float) as a mono buffer.

    Multichannel input is averaged to mono; the file's sample rate is kept.
    A float file holding any NaN or infinite sample is rejected.
    """
    from scipy.io import wavfile

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
    return AudioBuffer(samples, int(rate))


def resample(buf: AudioBuffer, target_rate: int) -> AudioBuffer:
    """Band-limited (polyphase) resampling to target_rate."""
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if buf.sample_rate == target_rate:
        return buf
    from scipy import signal

    ratio = Fraction(target_rate, buf.sample_rate)
    out = signal.resample_poly(buf.samples, ratio.numerator, ratio.denominator)
    return replace(buf, samples=out, sample_rate=target_rate)


def truncate(buf: AudioBuffer, max_duration: float) -> AudioBuffer:
    """Keep the first max_duration seconds."""
    limit = int(round(max_duration * buf.sample_rate))
    if len(buf.samples) <= limit:
        return buf
    return replace(buf, samples=buf.samples[:limit])


def preemphasis(buf: AudioBuffer, alpha: float) -> AudioBuffer:
    """First-difference filter y[n] = x[n] - alpha * x[n-1], y[0] = x[0]."""
    if not 0 <= alpha < 1:
        raise ValueError("alpha must be in [0, 1)")
    x = buf.samples
    y = np.empty_like(x)
    if len(x):
        y[0] = x[0]
        y[1:] = x[1:] - alpha * x[:-1]
    return replace(buf, samples=y)


def highpass(buf: AudioBuffer, cutoff: float) -> AudioBuffer:
    """Zero-phase Butterworth high-pass (order HIGHPASS_ORDER) removing content below cutoff."""
    nyquist = buf.sample_rate / 2
    if not 0 < cutoff < nyquist:
        raise ValueError(f"cutoff must be in (0, {nyquist})")
    if len(buf.samples) == 0:
        return buf
    from scipy import signal

    sos = signal.butter(HIGHPASS_ORDER, cutoff, btype="highpass", fs=buf.sample_rate, output="sos")
    out = signal.sosfiltfilt(sos, buf.samples)
    return replace(buf, samples=out)


def _frames(x: np.ndarray, frame_length: int, hop: int = 1, starts=None) -> np.ndarray:
    """Frames of x as rows: every hop samples from 0, or at explicit start offsets.

    Hop framing returns a read-only strided view of x; explicit starts,
    each of which must leave a whole frame inside x, return a copy.
    """
    if hop < 1:
        raise ValueError(f"hop must be >= 1, got {hop}")
    if len(x) < frame_length:
        raise ValueError("buffer shorter than one frame")
    windows = np.lib.stride_tricks.sliding_window_view(x, frame_length)
    if starts is None:
        return windows[::hop]
    return windows[starts]


def _blocks(n: int, rows: int = BLOCK_FRAMES):
    """Slices of `rows` rows covering range(n), in order."""
    return (slice(i, min(i + rows, n)) for i in range(0, n, rows))


def _too_short_to_denoise(buf: AudioBuffer, cfg) -> str | None:
    """Why buf is too short for spectral subtraction (None if it is not): it needs more
    samples than the noise profile window, and half a frame for a centred STFT."""
    n = len(buf.samples)
    if n <= round(cfg.noise_profile_window * buf.sample_rate):
        return "buffer shorter than noise profile window"
    if n < SUBTRACT_FRAME_LENGTH - SUBTRACT_FRAME_LENGTH // 2:
        return "buffer shorter than half a frame"
    return None


def spectral_subtract(buf: AudioBuffer, cfg: PreprocessConfig) -> AudioBuffer:
    """Subtract an estimated noise magnitude spectrum from every frame.

    The noise profile is the mean STFT magnitude over the first
    cfg.noise_profile_window seconds ("leading" mode) or over the
    quietest 10% of frames ("quietest" mode). Magnitudes are floored at
    cfg.subtraction_floor times the noise magnitude; phase is kept and
    the signal is rebuilt by overlap-add.

    The frames are those of scipy's ShortTimeFFT.stft: SUBTRACT_FRAME_LENGTH
    samples, Hann-windowed, centred on multiples of SUBTRACT_HOP, zero-padded
    at both ends. They are processed BLOCK_FRAMES at a time, in order (rfft,
    subtract, irfft, times the synthesis window, overlap-add), so besides
    the input, one padded copy of it and the output, memory is bounded by
    one block, not by the track. The phase is kept by scaling each bin by
    cleaned / |X|; a bin with |X| == 0, as in digital silence, has no phase
    to scale and gets cleaned times exp(1j * angle(X)), as
    ShortTimeFFT.istft would. "quietest" mode makes one extra blocked pass
    for the frame energies. Every sum runs in frame order, so the block
    size reaches no output.
    """
    x = buf.samples
    problem = _too_short_to_denoise(buf, cfg)
    if problem:
        raise ValueError(problem)
    from scipy import fft, signal

    hop = SUBTRACT_HOP
    win = signal.get_window("hann", SUBTRACT_FRAME_LENGTH)
    # ShortTimeFFT supplies the frame range, the centring and the synthesis window
    sft = signal.ShortTimeFFT(win, hop=hop, fs=buf.sample_rate)
    m, mid = sft.m_num, sft.m_num_mid
    n_frames = sft.p_max(len(x)) - sft.p_min
    head = mid - sft.p_min * hop  # zeros before sample 0, so that row 0 is frame p_min
    padded = np.pad(x, (head, (n_frames - 1) * hop + m - head - len(x)))
    frames = _frames(padded, m, hop)

    def spectra(rows):
        # rolled so that each frame's centre sample comes first, as in ShortTimeFFT
        return fft.rfft(np.roll(frames[rows] * win, -mid, axis=1), axis=1)

    if cfg.noise_profile_mode == "leading":
        n_profile = int(round(cfg.noise_profile_window * buf.sample_rate))
        chosen = np.arange(min(max(1, n_profile // hop), n_frames))
    else:
        energy = np.concatenate(
            [(np.abs(spectra(b)) ** 2).sum(axis=1) for b in _blocks(n_frames)]
        )
        chosen = np.argsort(energy)[: max(1, int(0.1 * n_frames))]
    # one running sum over the chosen frames in order, as numpy's axis-0 sum adds them
    noise = np.zeros(m // 2 + 1)
    for b in _blocks(len(chosen)):
        for row in np.abs(spectra(chosen[b])):
            noise += row
    noise /= len(chosen)
    floor = cfg.subtraction_floor * noise

    out = np.zeros(len(padded))
    for b in _blocks(n_frames):
        spec = spectra(b)
        mags = np.abs(spec)
        cleaned = np.maximum(mags - noise, floor)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            gain = cleaned / mags
        bare = ~np.isfinite(gain)  # |X| == 0 (or too small to divide by): no phase to scale
        phase = np.exp(1j * np.angle(spec[bare]))
        gain[bare] = 0.0
        spec *= gain
        spec[bare] = cleaned[bare] * phase
        rebuilt = np.roll(fft.irfft(spec, n=m, axis=1), mid, axis=1) * sft.dual_win
        for row, frame in zip(range(b.start, b.stop), rebuilt):
            out[row * hop : row * hop + m] += frame
    return replace(buf, samples=out[head : head + len(x)])


def normalize(buf: AudioBuffer) -> AudioBuffer:
    """Scale so peak |sample| = 1. All-zero input is returned with silent=True."""
    peak = np.max(np.abs(buf.samples)) if len(buf.samples) else 0.0
    if peak == 0:
        return replace(buf, silent=True)
    return replace(buf, samples=buf.samples / peak)


def preprocess(buf: AudioBuffer, cfg: PreprocessConfig | None = None) -> AudioBuffer:
    """Run the full preprocessing chain in order, on every call: a second
    call on its own output applies pre-emphasis twice."""
    cfg = cfg or PreprocessConfig()
    out = resample(buf, cfg.target_rate)
    out = truncate(out, cfg.max_duration)
    out = preemphasis(out, cfg.preemphasis_alpha)
    if cfg.denoise and not _too_short_to_denoise(out, cfg):
        out = spectral_subtract(out, cfg)
    out = highpass(out, cfg.highpass_cutoff)
    return normalize(out)
