"""Frame-level spectral and energy features: spectrograms, RMS, sections."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .audio_io import AudioBuffer, _blocks, _frames, _hann

SECTION_LABELS = ("intro", "verse", "chorus", "bridge", "outro")

DB_FLOOR = -100.0
DB_EPS = 1e-10
# analysis windows of stft, by name
WINDOWS = {"hann": _hann, "rectangular": np.ones}


@dataclass(frozen=True)
class Spectrogram:
    """Magnitude STFT: frames x bins, with the hop and rate that time the frames."""

    magnitudes: np.ndarray
    hop: int
    sample_rate: int

    @property
    def frame_times(self) -> np.ndarray:
        return np.arange(self.magnitudes.shape[0]) * self.hop / self.sample_rate

    def to_db(self) -> np.ndarray:
        return _db(self.magnitudes)


def _db(magnitudes: np.ndarray) -> np.ndarray:
    """Magnitudes in dB, floored at DB_FLOOR."""
    return np.maximum(20 * np.log10(magnitudes + DB_EPS), DB_FLOOR)


@dataclass(frozen=True)
class RmsSeries:
    values: np.ndarray
    frame_times: np.ndarray


@dataclass(frozen=True)
class SectionMap:
    """Ordered (label, start_sec, end_sec) entries from a sidecar file."""

    entries: tuple

    def __post_init__(self):
        for label, start, end in self.entries:
            if label not in SECTION_LABELS:
                raise ValueError(f"unknown section label: {label}")
            if not 0 <= start < end < np.inf:  # false for a NaN bound too
                raise ValueError(f"section {label}: need 0 <= start < end < inf, got {start}-{end}")


def stft(
    buf: AudioBuffer,
    frame_length: int = 2048,
    hop: int = 512,
    window: str = "hann",
) -> Spectrogram:
    """Magnitude spectrogram of the buffer, frames x (frame_length//2 + 1) bins.

    window is "hann" (periodic, as scipy.signal.get_window) or "rectangular".
    """
    if hop > frame_length:
        raise ValueError("hop must not exceed frame_length")
    if window not in WINDOWS:
        raise ValueError(f"window must be one of {', '.join(map(repr, WINDOWS))}, got {window!r}")
    mags = _magnitudes(buf.samples, frame_length, hop, window)
    return Spectrogram(mags, hop, buf.sample_rate)


def _magnitudes(x: np.ndarray, frame_length: int, hop: int, window: str = "hann") -> np.ndarray:
    """|rfft| of the windowed frames of x taken every hop samples from 0; any hop >= 1."""
    frames = _frames(x, frame_length, hop)
    return np.abs(np.fft.rfft(frames * WINDOWS[window](frame_length), axis=1))


def frame_rms(buf: AudioBuffer, frame_length: int = 2048, hop: int = 512) -> RmsSeries:
    """Per-frame root-mean-square amplitude, BLOCK_FRAMES frames at a time.

    A buffer shorter than frame_length is one frame.
    """
    if frame_length < 1:
        raise ValueError("frame_length must be >= 1")
    if len(buf.samples) == 0:
        raise ValueError("empty buffer")
    frames = _frames(buf.samples, min(frame_length, len(buf.samples)), hop)
    values = np.concatenate([np.sqrt((frames[b] ** 2).mean(axis=1)) for b in _blocks(len(frames))])
    times = np.arange(len(values)) * hop / buf.sample_rate
    return RmsSeries(values, times)


def rms_stats(series: RmsSeries) -> dict:
    """Mean / max / min of an RMS envelope."""
    if len(series.values) == 0:
        raise ValueError("empty RMS series")
    v = series.values
    return {"avg": float(v.mean()), "max": float(v.max()), "min": float(v.min())}


def slice_sections(buf: AudioBuffer, section_map: SectionMap) -> list:
    """Cut the buffer into labeled (label, AudioBuffer) pieces, in map order.

    Entries extending past the end of the buffer are clipped with a warning.
    """
    if not section_map.entries:
        raise ValueError("empty section map")
    out = []
    duration = buf.duration
    for label, start, end in section_map.entries:
        if end > duration:
            warnings.warn(
                f"section {label} ({start:.2f}-{end:.2f}s) extends past "
                f"buffer end ({duration:.2f}s); clipping"
            )
            end = duration
        i0 = int(round(start * buf.sample_rate))
        i1 = int(round(end * buf.sample_rate))
        piece = replace(buf, samples=buf.samples[i0:i1].copy())
        out.append((label, piece))
    return out


def read_text(path) -> str:
    """The UTF-8 text of an input file; one that cannot be read or decoded raises
    a ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc


def _parse_timestamp(text: str) -> float:
    """Seconds, or `mm:ss` with whole minutes >= 0 and seconds in [0, 60)."""
    parts = text.strip().split(":")
    if len(parts) == 1:
        return float(parts[0])
    if len(parts) == 2:
        minutes, seconds = int(parts[0]), float(parts[1])
        if minutes >= 0 and 0 <= seconds < 60:
            return minutes * 60 + seconds
    raise ValueError(f"bad timestamp: {text!r}")


def load_section_map(path) -> SectionMap:
    """Parse a sidecar file with lines `label<TAB>mm:ss<TAB>mm:ss`; a ValueError names the file."""
    entries = []
    for line in read_text(path).splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            label, start, end = line.split("\t")
            entries.append((label.strip().lower(), _parse_timestamp(start), _parse_timestamp(end)))
        except ValueError as exc:
            raise ValueError(f"bad section line in {path}: {line!r} ({exc})") from exc
    if not entries:
        raise ValueError(f"no section lines in {path}")
    try:
        return SectionMap(tuple(entries))
    except ValueError as exc:
        raise ValueError(f"bad sections in {path}: {exc}") from exc
