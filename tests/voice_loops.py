"""Per-frame loop versions of estimate_f0, hnr and cpp, kept as test oracles.

These are the original, unbatched definitions (Boersma 1993 autocorrelation
f0 and HNR; Hillenbrand et al. 1994 CPP with a regression baseline). The
batched kernels in detoxaudit.voice must reproduce them to floating-point
round-off. extract_periods is the original period walk, which filters every
crossing of a voiced run once per cycle; the library's walk must reproduce
it exactly. jitter and shimmer are the cycle-by-cycle sums of their
definitions (Teixeira et al. 2013, "local" jitter and shimmer).
"""

import numpy as np

from detoxaudit.voice import (
    HNR_CAP_DB,
    PeriodSequence,
    PitchConfig,
    PitchTrack,
    _rising_crossings,
)


def _parabolic_interp(y, i):
    """Offset of the refined peak from a discrete peak at index i."""
    if i <= 0 or i >= len(y) - 1:
        return 0.0
    denom = y[i - 1] - 2 * y[i] + y[i + 1]
    if denom == 0:
        return 0.0
    return float(0.5 * (y[i - 1] - y[i + 1]) / denom)


def estimate_f0(buf, cfg=None):
    cfg = cfg or PitchConfig()
    sr = buf.sample_rate
    frame_len = int(round(cfg.frame_seconds * sr))
    hop = int(round(cfg.hop_seconds * sr))
    lag_min = max(2, int(np.floor(sr / cfg.fmax)))
    lag_max = int(np.ceil(sr / cfg.fmin))
    if lag_max >= frame_len:
        raise ValueError("frame too short for fmin")

    x = buf.samples
    n_frames = max(0, 1 + (len(x) - frame_len) // hop)
    times = np.arange(n_frames) * hop / sr
    f0 = np.full(n_frames, np.nan)

    if n_frames == 0:
        return PitchTrack(times, f0)

    frames = x[np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]]
    frame_rms_vals = np.sqrt((frames**2).mean(axis=1))
    gate = cfg.silence_gate * (frame_rms_vals.max() if frame_rms_vals.max() > 0 else 1.0)

    for k in range(n_frames):
        if frame_rms_vals[k] <= gate:
            continue
        frame = frames[k] - frames[k].mean()
        full = np.correlate(frame, frame, mode="full")[frame_len - 1 :]
        energy = full[0]
        if energy <= 0:
            continue
        cumsq = np.cumsum(frame**2)
        lags = np.arange(lag_min, min(lag_max + 1, frame_len))
        e_head = cumsq[frame_len - lags - 1]
        e_tail = cumsq[-1] - cumsq[lags - 1]
        norm = np.sqrt(e_head * e_tail)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.where(norm > 0, full[lags] / norm, 0.0)
        best = float(r.max())
        if best < cfg.voicing_threshold:
            continue
        candidates = np.flatnonzero(r >= 0.9 * best)
        i = int(candidates[0])
        while 0 < i < len(r) - 1 and r[i + 1] > r[i]:
            i += 1
        offset = _parabolic_interp(r, i)
        lag = lags[i] + offset
        freq = sr / lag
        if cfg.fmin <= freq <= cfg.fmax:
            f0[k] = freq

    return PitchTrack(times, f0)


def extract_periods(buf, track):
    if int(np.sum(track.voiced_flags)) < 2:
        raise ValueError("insufficient voicing")
    sr = buf.sample_rate
    x = buf.samples
    hop = float(np.median(np.diff(track.frame_times))) if len(track.frame_times) > 1 else 0.01

    periods = []
    amplitudes = []
    v = track.voiced_flags
    starts = np.flatnonzero(v & ~np.r_[False, v[:-1]])
    ends = np.flatnonzero(v & ~np.r_[v[1:], False])
    for s, e in zip(starts, ends):
        f0_local = float(np.nanmedian(track.f0[s : e + 1]))
        period = sr / f0_local
        i0 = int(track.frame_times[s] * sr)
        i1 = min(int((track.frame_times[e] + hop) * sr) + 1, len(x))
        if i1 - i0 < 2 * period:
            continue
        crossings = _rising_crossings(x, i0, i1)
        if len(crossings) < 2:
            continue
        boundaries = [crossings[0]]
        pos = crossings[0]
        while True:
            lo, hi = pos + 0.7 * period, pos + 1.35 * period
            window = crossings[(crossings >= lo) & (crossings <= hi)]
            if len(window) == 0:
                break
            nxt = window[np.argmin(np.abs(window - (pos + period)))]
            boundaries.append(nxt)
            pos = nxt
        for a, b in zip(boundaries[:-1], boundaries[1:]):
            periods.append((b - a) / sr)
            cyc = x[int(np.floor(a)) : int(np.ceil(b))]
            amplitudes.append(float(cyc.max() - cyc.min()))

    if len(periods) < 2:
        raise ValueError("insufficient voicing")
    return PeriodSequence(np.asarray(periods), np.asarray(amplitudes))


def hnr(buf, track, frame_length=4096, harmonic_halfwidth_bins=2.0):
    if track.voiced_fraction == 0:
        return None
    sr = buf.sample_rate
    x = buf.samples
    while frame_length > len(x) and frame_length > 1024:
        frame_length //= 2
    win = np.hanning(frame_length)
    bins = np.arange(frame_length // 2 + 1)
    values = []
    for k in np.flatnonzero(track.voiced_flags):
        i0 = int(track.frame_times[k] * sr)
        i1 = i0 + frame_length
        if i1 > len(x):
            break
        spec = np.fft.rfft(x[i0:i1] * win)
        power = np.abs(spec) ** 2
        weights = np.full(len(power), 2.0)
        weights[0] = 1.0
        if frame_length % 2 == 0:
            weights[-1] = 1.0
        power = power * weights
        f0_bin = track.f0[k] * frame_length / sr
        n_harm = int((frame_length / 2) // f0_bin)
        harmonic_mask = np.zeros(len(power), dtype=bool)
        for h in range(1, n_harm + 1):
            harmonic_mask |= np.abs(bins - h * f0_bin) <= harmonic_halfwidth_bins
        e_harm = power[harmonic_mask].sum()
        e_noise = power.sum() - e_harm
        if e_noise <= 0:
            values.append(HNR_CAP_DB)
        elif e_harm > 0:
            values.append(min(10 * np.log10(e_harm / e_noise), HNR_CAP_DB))
    if not values:
        return None
    return float(np.mean(values))


def cpp(buf, frame_length=2048, hop=1024, f_search=(60.0, 330.0), baseline="regression",
        energy_gate=1e-4, power_floor=1e-12):
    if baseline not in ("regression", "mean"):
        raise ValueError("baseline must be 'regression' or 'mean'")
    sr = buf.sample_rate
    x = buf.samples
    if len(x) < frame_length:
        raise ValueError("buffer shorter than one frame")
    level = np.max(np.abs(x))
    if level == 0:
        return None
    q_lo = int(np.floor(sr / f_search[1]))
    q_hi = int(np.ceil(sr / f_search[0]))
    q_hi = min(q_hi, frame_length - 1)
    win = np.hanning(frame_length)
    n_frames = 1 + (len(x) - frame_length) // hop
    values = []
    for k in range(n_frames):
        frame = x[k * hop : k * hop + frame_length]
        ac = frame - frame.mean()
        if np.sqrt((ac**2).mean()) < energy_gate * level:
            continue
        spec = np.abs(np.fft.rfft(frame * win)) ** 2
        log_spec = 10 * np.log10(spec + power_floor * level**2)
        cep = np.fft.irfft(log_spec)
        band = cep[q_lo : q_hi + 1]
        q = np.arange(q_lo, q_hi + 1, dtype=float)
        i_peak = int(np.argmax(band))
        peak = band[i_peak]
        if baseline == "regression":
            slope, intercept = np.polyfit(q, band, 1)
            base = slope * q[i_peak] + intercept
        else:
            base = band.mean()
        values.append(float(peak - base))
    if not values:
        return None
    return float(np.mean(values))


def _local_variation(values):
    """Mean absolute difference of consecutive values over their mean."""
    if len(values) < 2:
        raise ValueError("need at least 2 periods")
    total_diff = 0.0
    for i in range(1, len(values)):
        total_diff += abs(values[i] - values[i - 1])
    mean = sum(values) / len(values)
    if mean == 0:
        raise ValueError("mean amplitude is zero")
    return (total_diff / (len(values) - 1)) / mean


def jitter(seq, percent=False):
    value = _local_variation([float(t) for t in seq.periods])
    return value * 100 if percent else value


def shimmer(seq, percent=False):
    value = _local_variation([float(a) for a in seq.amplitudes])
    return value * 100 if percent else value
