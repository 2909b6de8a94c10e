"""Pitch tracking and the four aggression-linked voice metrics.

HNR and CPP are frame-based spectral/cepstral measures; jitter and
shimmer are computed from per-cycle period and amplitude sequences
extracted with the pitch track as a guide.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioBuffer, _blocks, _frames
from .dsp import frame_rms

HNR_CAP_DB = 40.0
HNR_FRAME_LENGTH = 4096  # halved, down to 1024, while longer than the buffer
HNR_HARMONIC_HALFWIDTH_BINS = 2.0  # bins either side of h * f0 counted as harmonic
CPP_FRAME_LENGTH = 2048
CPP_HOP = 1024
CPP_F_SEARCH = (60.0, 330.0)  # Hz; the f0 band whose quefrencies hold the cepstral peak
CPP_ENERGY_GATE = 1e-4  # relative to max|x|: frames with a lower mean-removed RMS are skipped
CPP_POWER_FLOOR = 1e-12  # relative to max|x|**2: added to each power spectrum before the dB


@dataclass(frozen=True)
class PitchConfig:
    fmin: float = 65.0
    fmax: float = 400.0
    frame_seconds: float = 0.040
    hop_seconds: float = 0.010
    voicing_threshold: float = 0.45
    # frames with RMS below this fraction of the track peak RMS are unvoiced
    silence_gate: float = 0.01


@dataclass(frozen=True)
class PitchTrack:
    frame_times: np.ndarray
    f0: np.ndarray  # Hz; NaN where unvoiced

    def __post_init__(self):
        if len(self.frame_times) != len(self.f0):
            raise ValueError("frame_times and f0 must have equal length")

    @property
    def voiced_flags(self) -> np.ndarray:
        return ~np.isnan(self.f0)

    @property
    def voiced_fraction(self) -> float:
        if len(self.f0) == 0:
            return 0.0
        return float(np.mean(self.voiced_flags))

    def voiced_f0(self) -> np.ndarray:
        return self.f0[self.voiced_flags]


@dataclass(frozen=True)
class PeriodSequence:
    """Cycle durations T_i (seconds) and peak-to-peak amplitudes A_i."""

    periods: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        if len(self.periods) != len(self.amplitudes):
            raise ValueError("periods and amplitudes must have equal length")

    @property
    def count(self) -> int:
        return len(self.periods)


@dataclass(frozen=True)
class VoiceMetrics:
    """Per-track voice quality. Pitch-dependent fields are None when absent."""

    hnr_db: float | None
    cpp: float | None
    jitter: float | None
    shimmer: float | None
    voiced_fraction: float

    METRIC_NAMES = ("hnr_db", "cpp", "jitter", "shimmer")


def estimate_f0(buf: AudioBuffer, cfg: PitchConfig | None = None) -> PitchTrack:
    """Frame-wise f0 via normalized autocorrelation with parabolic refinement.

    The autocorrelation of each frame is computed by FFT (Wiener-Khinchin:
    the inverse transform of the power spectrum) and normalized by the
    energies of the overlapping head and tail (Boersma 1993). The frame is
    zero-padded to at least frame + lag_max samples, so the circular
    autocorrelation equals the linear one at every lag that is read. A frame
    is voiced when its best normalized correlation clears the voicing
    threshold and its RMS clears the silence gate. To avoid octave-down
    errors, the shortest lag whose correlation is within 10% of the best
    peak wins.
    """
    cfg = cfg or PitchConfig()
    sr = buf.sample_rate
    frame_len = int(round(cfg.frame_seconds * sr))
    hop = int(round(cfg.hop_seconds * sr))
    lag_min = max(2, int(np.floor(sr / cfg.fmax)))
    lag_max = int(np.ceil(sr / cfg.fmin))
    if lag_max >= frame_len:
        raise ValueError("frame too short for fmin")

    x = buf.samples
    if len(x) < frame_len:
        return PitchTrack(np.empty(0), np.empty(0))

    rms = frame_rms(buf, frame_len, hop)
    n_frames = len(rms.values)
    f0 = np.full(n_frames, np.nan)
    frames = _frames(x, frame_len, hop)
    gate = cfg.silence_gate * (rms.values.max() if rms.values.max() > 0 else 1.0)

    # the smallest 2^k, 3 * 2^k or 5 * 2^k of at least frame_len + lag_max samples
    n_fft = min(m << (-(-(frame_len + lag_max) // m) - 1).bit_length() for m in (1, 3, 5))
    lags = np.arange(lag_min, min(lag_max + 1, frame_len))
    n_lags = len(lags)
    gated = np.flatnonzero(~(rms.values <= gate))  # a NaN frame is not gated

    def pitch(b):
        ks = gated[b]
        frame = frames[ks]
        frame = frame - frame.mean(axis=1, keepdims=True)
        spec = np.fft.rfft(frame, n_fft, axis=1)
        full = np.fft.irfft(spec.real**2 + spec.imag**2, n_fft, axis=1)
        cumsq = np.cumsum(frame**2, axis=1)
        energy = cumsq[:, -1]
        e_head = cumsq[:, frame_len - lags - 1]
        e_tail = energy[:, None] - cumsq[:, lags - 1]
        norm = np.sqrt(e_head * e_tail)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(norm > 0, full[:, lag_min : lag_min + n_lags] / norm, 0.0)
        best = r.max(axis=1)
        weak = best < cfg.voicing_threshold

        rows = np.arange(len(ks))
        # earliest lag nearly as good as the global best beats octave errors
        i = np.argmax(r >= 0.9 * best[:, None], axis=1)
        # climb to the local maximum, but never from lag index 0
        stop = np.ones_like(r, dtype=bool)
        stop[:, :-1] = r[:, 1:] <= r[:, :-1]
        stop &= np.arange(n_lags) >= i[:, None]
        i = np.where(i > 0, np.argmax(stop, axis=1), 0)
        # parabolic refinement at interior peaks
        y0 = r[rows, np.maximum(i - 1, 0)]
        y1 = r[rows, i]
        y2 = r[rows, np.minimum(i + 1, n_lags - 1)]
        denom = y0 - 2 * y1 + y2
        interior = (i > 0) & (i < n_lags - 1) & (denom != 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            offset = np.where(interior, 0.5 * (y0 - y2) / denom, 0.0)
            freq = sr / (lags[i] + offset)
        ok = (energy > 0) & ~weak & (cfg.fmin <= freq) & (freq <= cfg.fmax)
        return ks[ok], freq[ok]

    for ks, freq in map(pitch, _blocks(len(gated))):
        f0[ks] = freq

    return PitchTrack(rms.frame_times, f0)


def _rising_crossings(x: np.ndarray, i0: int, i1: int) -> np.ndarray:
    """Sub-sample times (in samples) of rising zero-crossings in x[i0:i1]."""
    seg = x[i0:i1]
    idx = np.flatnonzero((seg[:-1] <= 0) & (seg[1:] > 0))
    denom = seg[idx + 1] - seg[idx]
    frac = np.where(denom != 0, -seg[idx] / denom, 0.0)
    return i0 + idx + frac


def extract_periods(buf: AudioBuffer, track: PitchTrack) -> PeriodSequence:
    """Chain cycle boundaries through voiced regions, guided by the f0 track.

    Boundaries are linearly interpolated rising zero-crossings spaced about
    one pitch period apart (the crossing closest to the predicted position
    wins), so sub-sample period perturbations survive extraction. T_i is
    the gap between consecutive boundaries; A_i is the peak-to-peak
    amplitude of each cycle.
    """
    v = track.voiced_flags
    if np.count_nonzero(v) < 2:
        raise ValueError("insufficient voicing")
    sr = buf.sample_rate
    x = buf.samples
    hop = float(np.median(np.diff(track.frame_times)))  # two voiced frames: two frame times

    # cycle boundaries (a, b), in samples, of every voiced run
    cycles = []

    # walk each contiguous voiced run independently
    starts = np.flatnonzero(v & ~np.r_[False, v[:-1]])
    ends = np.flatnonzero(v & ~np.r_[v[1:], False])
    for s, e in zip(starts, ends):
        f0_local = float(np.median(track.f0[s : e + 1]))
        period = sr / f0_local  # samples
        i0 = int(track.frame_times[s] * sr)
        i1 = min(int((track.frame_times[e] + hop) * sr) + 1, len(x))
        if i1 - i0 < 2 * period:
            continue
        crossings = _rising_crossings(x, i0, i1).tolist()
        if len(crossings) < 2:
            continue
        boundaries = [crossings[0]]
        pos = crossings[0]
        while True:
            # crossings rise strictly, so the candidates are one contiguous slice
            lo = bisect_left(crossings, pos + 0.7 * period)
            hi = bisect_right(crossings, pos + 1.35 * period)
            if lo == hi:
                break
            target = pos + period
            pos, gap = crossings[lo], abs(crossings[lo] - target)
            for c in crossings[lo + 1 : hi]:
                if abs(c - target) < gap:  # the first of a tie stays
                    pos, gap = c, abs(c - target)
            boundaries.append(pos)
        cycles += zip(boundaries[:-1], boundaries[1:])

    if len(cycles) < 2:
        raise ValueError("insufficient voicing")
    a, b = np.array(cycles).T
    # x[floor(a):ceil(b)] is the cycle; every other reduceat segment lies between cycles
    idx = np.column_stack([np.floor(a), np.ceil(b)]).astype(int).ravel()
    peak = np.maximum.reduceat(x, idx)[0::2]
    trough = np.minimum.reduceat(x, idx)[0::2]
    return PeriodSequence((b - a) / sr, peak - trough)


def hnr(buf: AudioBuffer, track: PitchTrack) -> float | None:
    """Mean harmonics-to-noise ratio in dB over voiced frames.

    Each voiced frame starts at its frame time and spans HNR_FRAME_LENGTH
    samples (halved, down to 1024, while longer than the buffer); frames
    are taken in track order up to the first one that runs past the end of
    the buffer. Per frame, spectral energy within +/- HNR_HARMONIC_HALFWIDTH_BINS
    of each multiple of f0 counts as harmonic; the remainder is noise.
    Frames are capped at HNR_CAP_DB before averaging.
    """
    sr = buf.sample_rate
    x = buf.samples
    frame_length = HNR_FRAME_LENGTH
    while frame_length > len(x) and frame_length > 1024:
        frame_length //= 2
    win = np.hanning(frame_length)
    bins = np.arange(frame_length // 2 + 1)
    # interior bins of the rfft carry both positive and negative freqs; the
    # frame length is even, so the last bin is the Nyquist bin
    weights = np.full(len(bins), 2.0)
    weights[[0, -1]] = 1.0

    ks = np.flatnonzero(track.voiced_flags)
    start = (track.frame_times[ks] * sr).astype(int)
    fits = np.logical_and.accumulate(start + frame_length <= len(x))
    ks, start = ks[fits], start[fits]

    def ratios(b):
        spec = np.fft.rfft(_frames(x, frame_length, starts=start[b]) * win)
        power = np.abs(spec) ** 2 * weights
        f0_bin = track.f0[ks[b], None] * frame_length / sr
        n_harm = (frame_length / 2) // f0_bin
        # a bin is harmonic when the nearest multiple h * f0, 1 <= h <= n_harm, is close
        nearest = np.clip(np.round(bins / f0_bin), 1, np.maximum(n_harm, 1))
        near = np.abs(bins - nearest * f0_bin) <= HNR_HARMONIC_HALFWIDTH_BINS
        harmonic_mask = near & (n_harm >= 1)
        e_harm = np.where(harmonic_mask, power, 0.0).sum(axis=1)
        e_noise = power.sum(axis=1) - e_harm
        with np.errstate(divide="ignore", invalid="ignore"):
            db = np.minimum(10 * np.log10(e_harm / e_noise), HNR_CAP_DB)
        # a frame with noise but no harmonic energy has no finite ratio and is dropped
        return np.where(e_noise <= 0, HNR_CAP_DB, db)[(e_noise <= 0) | (e_harm > 0)]

    values = list(map(ratios, _blocks(len(ks))))
    values = np.concatenate(values) if values else np.empty(0)
    if len(values) == 0:
        return None
    return float(np.mean(values))


def cpp(buf: AudioBuffer) -> float | None:
    """Mean cepstral peak prominence over frames that pass the energy gate.

    Per frame: real cepstrum of the dB power spectrum; the peak within the
    quefrency band for CPP_F_SEARCH is measured against a least-squares
    line over that band (Hillenbrand et al. 1994). Frames whose mean-removed
    RMS is below CPP_ENERGY_GATE times the buffer's peak |x| are skipped; a
    DC-only or all-zero signal therefore reports no CPP. The gate and the
    power floor both scale with that peak, so CPP does not depend on the
    level of the buffer. A buffer shorter than one frame raises ValueError.
    """
    sr = buf.sample_rate
    x = buf.samples
    frames = _frames(x, CPP_FRAME_LENGTH, CPP_HOP)
    level = max(x.max(), -x.min())  # max|x| without a stem-sized temporary
    if level == 0:
        return None
    q_lo = int(np.floor(sr / CPP_F_SEARCH[1]))
    q_hi = min(int(np.ceil(sr / CPP_F_SEARCH[0])), CPP_FRAME_LENGTH - 1)
    win = np.hanning(CPP_FRAME_LENGTH)
    q = np.arange(q_lo, q_hi + 1, dtype=float)
    q_dev = q - q.mean()

    def prominences(b):
        frame = frames[b]
        ac = frame - frame.mean(axis=1, keepdims=True)
        gated = np.sqrt((ac**2).mean(axis=1)) < CPP_ENERGY_GATE * level
        frame = frame[~gated]  # a NaN frame is kept
        spec = np.abs(np.fft.rfft(frame * win)) ** 2
        log_spec = 10 * np.log10(spec + CPP_POWER_FLOOR * level**2)
        band = np.fft.irfft(log_spec)[:, q_lo : q_hi + 1]
        i_peak = np.argmax(band, axis=1)
        peak = band[np.arange(len(band)), i_peak]
        slope = (band @ q_dev) / (q_dev @ q_dev)
        return peak - (band.mean(axis=1) + slope * q_dev[i_peak])

    values = np.concatenate(list(map(prominences, _blocks(len(frames)))))
    if len(values) == 0:
        return None
    return float(np.mean(values))


def jitter(seq: PeriodSequence) -> float:
    """Mean absolute cycle-to-cycle period difference over the mean period."""
    if seq.count < 2:
        raise ValueError("need at least 2 periods")
    t = seq.periods
    return float(np.abs(np.diff(t)).mean() / t.mean())


def shimmer(seq: PeriodSequence) -> float:
    """Mean absolute cycle-to-cycle amplitude difference over the mean amplitude."""
    if seq.count < 2:
        raise ValueError("need at least 2 periods")
    a = seq.amplitudes
    mean_a = a.mean()
    if mean_a == 0:
        raise ValueError("mean amplitude is zero")
    return float(np.abs(np.diff(a)).mean() / mean_a)


def voice_report(buf: AudioBuffer) -> VoiceMetrics:
    """Per-track voice quality metrics. Absent metrics stay None, never zero."""
    if buf.silent or not np.any(buf.samples):
        return VoiceMetrics(None, None, None, None, 0.0)
    track = estimate_f0(buf)
    hnr_val = hnr(buf, track)
    try:
        cpp_val = cpp(buf)
    except ValueError:
        cpp_val = None
    jitter_val = shimmer_val = None
    try:
        seq = extract_periods(buf, track)
        jitter_val = jitter(seq)
        shimmer_val = shimmer(seq)
    except ValueError:
        pass
    return VoiceMetrics(hnr_val, cpp_val, jitter_val, shimmer_val, track.voiced_fraction)


def radar_normalize(pairs: list) -> list:
    """Min-max normalize metric pairs onto [0, 1] per axis for radar plots.

    Input: list of (original, transformed) voice dicts, as in a report's
    audio.voice. Output: list of dicts {metric: (orig_norm, trans_norm)}. A
    constant axis maps to 0.5 everywhere. Absent metrics raise.
    """
    if not pairs:
        raise ValueError("need at least one pair")
    out = [dict() for _ in pairs]
    for name in VoiceMetrics.METRIC_NAMES:
        values = []
        for orig, trans in pairs:
            ov, tv = orig.get(name), trans.get(name)
            if ov is None or tv is None:
                raise ValueError(f"absent metric {name} in radar input")
            values.extend([ov, tv])
        lo, hi = min(values), max(values)
        for i, (orig, trans) in enumerate(pairs):
            if hi == lo:
                out[i][name] = (0.5, 0.5)
            else:
                out[i][name] = ((orig[name] - lo) / (hi - lo), (trans[name] - lo) / (hi - lo))
    return out
