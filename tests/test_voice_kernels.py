"""Property tests: the batched f0, HNR and CPP kernels equal the per-frame loops.

The loops in voice_loops.py are the reference. Values must agree to rel
1e-9 (abs 1e-12 floor) and voicing decisions exactly, on random
harmonic-plus-noise buffers with leading and trailing silence, at frame
counts of 1 (one block), 64 (two whole blocks of BLOCK_FRAMES) and 65
(a third block of one frame). The period walk must equal its loop exactly,
and jitter and shimmer must match their loops on random period sequences.

voice_report must not depend on the level of a preprocessed stem: HNR,
jitter, shimmer and the voiced fraction are ratios, so scaling the stem by
1e-3 to 1e3 leaves them unchanged to round-off. CPP scales its energy gate
and power floor by the stem's peak, so it holds this too
(test_cpp_does_not_depend_on_level).
"""

from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voice_loops
from detoxaudit import (
    PeriodSequence,
    PitchConfig,
    PitchTrack,
    cpp,
    estimate_f0,
    extract_periods,
    hnr,
    jitter,
    preprocess,
    shimmer,
    voice_report,
)
from detoxaudit.audio_io import BLOCK_FRAMES
from conftest import SR, buffer, make_harmonic, make_noise, traced_peak

RTOL, ATOL = 1e-9, 1e-12
FRAME_COUNTS = (1, 2 * BLOCK_FRAMES, 2 * BLOCK_FRAMES + 1)

F0_FRAME = int(round(PitchConfig.frame_seconds * SR))
F0_HOP = int(round(PitchConfig.hop_seconds * SR))
CPP_FRAME, CPP_HOP = 2048, 1024

kernel_settings = settings(max_examples=12, deadline=None, database=None)


@st.composite
def voices(draw, n_samples, sr=SR, silence=True):
    """Harmonic-plus-noise voice of n_samples at rate sr, with silence at both ends if asked."""
    f0 = draw(st.floats(80.0, 350.0))
    n_harm = draw(st.integers(1, 8))
    noise = draw(st.floats(0.0, 1.0))
    amp = draw(st.floats(1e-3, 1.0))
    lead = draw(st.integers(0, n_samples // 3)) if silence else 0
    trail = draw(st.integers(0, n_samples // 3)) if silence else 0
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    t = np.arange(n_samples) / sr
    x = sum(np.sin(2 * np.pi * f0 * h * t + rng.uniform(0, 2 * np.pi)) / h
            for h in range(1, n_harm + 1))
    x = x + noise * rng.standard_normal(n_samples)
    x[:lead] = 0.0
    x[n_samples - trail:] = 0.0
    return buffer(amp * x, sr)


def assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=ATOL)


def assert_same_metric(actual, expected):
    assert (actual is None) == (expected is None)
    if expected is not None:
        assert_close(actual, expected)


@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@kernel_settings
@given(data=st.data())
def test_estimate_f0_matches_loop(n_frames, data):
    extra = data.draw(st.integers(0, F0_HOP - 1))
    buf = data.draw(voices(F0_FRAME + F0_HOP * (n_frames - 1) + extra))
    got, want = estimate_f0(buf), voice_loops.estimate_f0(buf)
    assert len(got.frame_times) == n_frames
    np.testing.assert_array_equal(got.voiced_flags, want.voiced_flags)
    np.testing.assert_array_equal(np.isnan(got.f0), np.isnan(want.f0))
    assert_close(got.f0[got.voiced_flags], want.f0[want.voiced_flags])


def _longest_lag(sr):
    """A PitchConfig whose lag_max is one less than the frame, the most estimate_f0 takes."""
    frame = int(round(PitchConfig.frame_seconds * sr))
    cfg = PitchConfig(fmin=sr / (frame - 1.5))
    assert int(np.ceil(sr / cfg.fmin)) == frame - 1
    return cfg


@pytest.mark.parametrize("longest_lag", (False, True), ids=("default", "longest_lag"))
@pytest.mark.parametrize("sr", (16000, 22050, 44100))
@kernel_settings
@given(data=st.data())
def test_estimate_f0_matches_loop_at_each_rate(sr, longest_lag, data):
    """The FFT is only frame + lag_max long, so the lags read stay exact at
    every rate and up to the longest lag a frame allows.

    At lags near the frame's length the normalized correlation is a few
    products over their own norm. Where the frame starts or ends in silence
    those products are near zero, and round-off decides them, in the loop as
    in the kernel; so the longest-lag voices have no silence at their ends.
    """
    cfg = _longest_lag(sr) if longest_lag else PitchConfig()
    frame, hop = int(round(cfg.frame_seconds * sr)), int(round(cfg.hop_seconds * sr))
    n_frames = data.draw(st.sampled_from(FRAME_COUNTS))
    n_samples = frame + hop * (n_frames - 1) + data.draw(st.integers(0, hop - 1))
    buf = data.draw(voices(n_samples, sr, silence=not longest_lag))
    got, want = estimate_f0(buf, cfg), voice_loops.estimate_f0(buf, cfg)
    assert len(got.frame_times) == n_frames
    np.testing.assert_array_equal(got.voiced_flags, want.voiced_flags)
    assert_close(got.f0[got.voiced_flags], want.f0[want.voiced_flags])


@kernel_settings
@given(data=st.data())
def test_estimate_f0_matches_loop_any_length(data):
    buf = data.draw(voices(data.draw(st.integers(1, 2 * SR))))
    got, want = estimate_f0(buf), voice_loops.estimate_f0(buf)
    np.testing.assert_array_equal(got.voiced_flags, want.voiced_flags)
    assert_close(got.f0[got.voiced_flags], want.f0[want.voiced_flags])


@pytest.mark.parametrize("frame_length", (4096, 2048, 1024))
@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@kernel_settings
@given(data=st.data())
def test_hnr_matches_loop(n_frames, frame_length, data):
    """Frames of frame_length fit the buffer exactly: a buffer shorter than
    4096 samples makes hnr halve its frame to 2048 or 1024 samples. The
    track's f0 spans 50 Hz to 12 kHz; a tenth of frames sit just past
    Nyquist, where no harmonic fits but the band around f0 still reaches
    the top bin."""
    hop = data.draw(st.integers(1, min(F0_HOP, (frame_length - 1) // max(n_frames - 1, 1))))
    buf = data.draw(voices(frame_length + hop * (n_frames - 1)))
    rng = np.random.RandomState(data.draw(st.integers(0, 2**31 - 1)))
    n_track = n_frames + data.draw(st.integers(0, 3))  # trailing frames overrun
    f0 = np.where(rng.uniform(size=n_track) < 0.1,
                  SR / 2 + rng.uniform(0, 2.5 * SR / frame_length, n_track),
                  np.exp(rng.uniform(np.log(50.0), np.log(12000.0), n_track)))
    voiced = rng.uniform(size=n_track) < data.draw(st.floats(0.1, 1.0))
    track = PitchTrack(np.arange(n_track) * hop / SR, np.where(voiced, f0, np.nan))
    assert_same_metric(hnr(buf, track), voice_loops.hnr(buf, track))


@kernel_settings
@given(data=st.data())
def test_hnr_on_estimated_track_matches_loop(data):
    buf = data.draw(voices(data.draw(st.integers(F0_FRAME, 2 * SR))))
    track = voice_loops.estimate_f0(buf)
    assert_same_metric(hnr(buf, track), voice_loops.hnr(buf, track))


@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@kernel_settings
@given(data=st.data())
def test_cpp_matches_loop(n_frames, data):
    extra = data.draw(st.integers(0, CPP_HOP - 1))
    buf = data.draw(voices(CPP_FRAME + CPP_HOP * (n_frames - 1) + extra))
    assert_same_metric(cpp(buf), voice_loops.cpp(buf))


@kernel_settings
@given(data=st.data())
def test_extract_periods_matches_loop(data):
    """Random voiced runs with f0 guesses from 60 to 500 Hz, whatever the
    voice's own f0, so that cycle windows hold zero, one or several crossings."""
    buf = data.draw(voices(data.draw(st.integers(SR // 4, 2 * SR))))
    rng = np.random.RandomState(data.draw(st.integers(0, 2**31 - 1)))
    n_track = 1 + (len(buf.samples) - F0_FRAME) // F0_HOP
    run = data.draw(st.integers(1, 40))  # voicing decided per run of frames
    voiced = np.repeat(rng.uniform(size=n_track) < data.draw(st.floats(0.1, 1.0)), run)[:n_track]
    f0 = np.where(voiced, np.exp(rng.uniform(np.log(60.0), np.log(500.0), n_track)), np.nan)
    track = PitchTrack(np.arange(n_track) * F0_HOP / SR, f0)
    try:
        want = voice_loops.extract_periods(buf, track)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            extract_periods(buf, track)
        return
    got = extract_periods(buf, track)
    np.testing.assert_array_equal(got.periods, want.periods)
    np.testing.assert_array_equal(got.amplitudes, want.amplitudes)


@settings(max_examples=60, deadline=None, database=None)
@given(
    periods=st.lists(st.floats(1 / 500, 1 / 50), min_size=0, max_size=300),
    data=st.data(),
)
def test_jitter_and_shimmer_match_loop(periods, data):
    """Periods from 2 to 20 ms; amplitudes from 0 to 2, so an all-zero run occurs."""
    amps = data.draw(
        st.lists(st.floats(0.0, 2.0), min_size=len(periods), max_size=len(periods))
    )
    seq = PeriodSequence(np.array(periods), np.array(amps))
    for metric, loop in ((jitter, voice_loops.jitter), (shimmer, voice_loops.shimmer)):
        try:
            want = loop(seq)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                metric(seq)
            continue
        assert_close(metric(seq), want)


SCALE_INVARIANT = ("hnr_db", "jitter", "shimmer", "voiced_fraction")


def scaled_reports(buf, scale):
    stem = preprocess(buf)
    scaled = replace(stem, samples=stem.samples * scale)
    return asdict(voice_report(stem)), asdict(voice_report(scaled))


@st.composite
def stems(draw):
    """A quiet half-second lead-in, which becomes the noise profile, then a voice."""
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    lead = draw(st.floats(0.0, 0.01)) * rng.standard_normal(SR // 2)
    voice = draw(voices(draw(st.integers(SR // 2, 3 * SR // 2))))
    return buffer(np.concatenate([lead, voice.samples]))


@kernel_settings
@given(buf=stems(), exponent=st.floats(-3.0, 3.0))
def test_voice_report_invariant_to_level(buf, exponent):
    base, scaled = scaled_reports(buf, 10**exponent)
    for name in SCALE_INVARIANT:
        assert_same_metric(scaled[name], base[name])


def test_cpp_does_not_depend_on_level():
    t = np.arange(2 * SR) / SR
    rng = np.random.RandomState(0)
    voice = sum(np.sin(2 * np.pi * 180 * h * t + h) / h for h in range(1, 9))
    voice += 0.05 * rng.standard_normal(len(t))
    lead = 0.002 * rng.standard_normal(SR // 2)
    base, scaled = scaled_reports(buffer(np.concatenate([lead, voice])), 3.7)
    assert_same_metric(scaled["cpp"], base["cpp"])


@pytest.fixture(scope="module")
def long_stem():
    """60 s of voice after a quiet half-second lead-in."""
    sig = make_harmonic(220, seconds=60.0) + 0.05 * make_noise(60.0, seed=7)
    sig[: SR // 2] = 0.002 * make_noise(0.5, seed=8)
    return buffer(sig)


def test_voice_report_memory_bounded_by_the_stem(long_stem):
    # each kernel holds one block of frames at a time, so the peak does not grow with the track
    peak = traced_peak(lambda: voice_report(long_stem))
    assert peak < 2 * long_stem.samples.nbytes


def test_cpp_measures_the_level_without_a_stem_sized_temporary(long_stem):
    peak = traced_peak(lambda: cpp(long_stem))
    assert peak < 0.5 * long_stem.samples.nbytes
