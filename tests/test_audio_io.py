import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.io import wavfile

from detoxaudit import (
    AudioLoadError,
    PreprocessConfig,
    highpass,
    load_track,
    normalize,
    preemphasis,
    preprocess,
    resample,
    spectral_subtract,
    stft,
    truncate,
    voice_report,
)
from detoxaudit.audio_io import BLOCK_FRAMES, _blocks
from conftest import SR, buffer, make_noise, make_tone, traced_peak, write_wav


class TestLoadTrack:
    def test_stereo_identical_channels_folds_to_mono(self, tmp_path):
        mono = make_tone(1000, 0.5)
        stereo = np.stack([mono, mono], axis=1).astype(np.float32)
        wavfile.write(str(tmp_path / "s.wav"), SR, stereo)
        buf = load_track(tmp_path / "s.wav")
        assert np.allclose(buf.samples, mono, atol=1e-6)
        assert buf.sample_rate == SR

    def test_zero_byte_file_errors(self, tmp_path):
        path = tmp_path / "empty.wav"
        path.write_bytes(b"")
        with pytest.raises(AudioLoadError):
            load_track(path)

    def test_empty_wav_reports_zero_length(self, tmp_path):
        path = tmp_path / "zero.wav"
        wavfile.write(str(path), SR, np.zeros(0, dtype=np.int16))
        with pytest.raises(AudioLoadError, match="zero-length audio"):
            load_track(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(AudioLoadError):
            load_track(tmp_path / "nope.wav")

    def test_int16_fullscale_square_wave(self, tmp_path):
        # oracle: direct integer / 32768 conversion
        square = np.tile(np.r_[np.full(50, 32767), np.full(50, -32768)], 20)
        path = tmp_path / "sq.wav"
        wavfile.write(str(path), SR, square.astype(np.int16))
        buf = load_track(path)
        expected = square / 32768.0
        assert np.allclose(buf.samples, expected)
        assert buf.samples.max() == pytest.approx(1.0, abs=1e-4)
        assert buf.samples.min() == -1.0

    @pytest.mark.parametrize("dtype, zero", ((np.int32, 0), (np.uint8, 128)))
    def test_other_integer_encodings_scaled_into_unit_range(self, tmp_path, dtype, zero):
        lo, hi = np.iinfo(dtype).min, np.iinfo(dtype).max
        path = tmp_path / "int.wav"
        wavfile.write(str(path), SR, np.array([lo, zero, hi], dtype=dtype))
        scale = hi + 1 - zero  # 2**31 for int32, 128 for uint8
        assert load_track(path).samples.tolist() == [-1.0, 0.0, (hi - zero) / scale]

    def test_int64_rejected(self, tmp_path):
        path = tmp_path / "wide.wav"
        wavfile.write(str(path), SR, np.arange(10, dtype=np.int64))
        with pytest.raises(AudioLoadError, match="unsupported sample encoding int64"):
            load_track(path)

    @pytest.mark.parametrize("bad", (np.nan, np.inf))
    def test_non_finite_sample_rejected(self, tmp_path, bad):
        samples = make_tone(220, 0.5)
        samples[100] = bad
        path = write_wav(tmp_path / "bad.wav", samples)
        with pytest.raises(AudioLoadError, match="non-finite.*bad.wav"):
            load_track(path)


def scale_then_fold(data):
    """load_track's conversion before it folded first: every channel scaled to
    float64, then averaged."""
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        samples = data.astype(np.float64) / 2147483648.0
    elif data.dtype == np.uint8:
        samples = (data.astype(np.float64) - 128.0) / 128.0
    else:
        samples = data.astype(np.float64)
    return samples.mean(axis=1) if samples.ndim > 1 else samples


@st.composite
def wav_data(draw):
    """Interleaved samples of any supported encoding, 1 to 8 channels, 0 to 64
    frames, finite and small enough that no float channel sum overflows."""
    dtype = np.dtype(draw(st.sampled_from(["uint8", "int16", "int32", "float32", "float64"])))
    if dtype == np.float32:
        elements = st.floats(allow_nan=False, allow_infinity=False, width=32)
    elif dtype == np.float64:
        elements = st.floats(-1e300, 1e300)
    else:
        elements = st.integers(np.iinfo(dtype).min, np.iinfo(dtype).max)
    channels = draw(st.integers(1, 8))
    shape = draw(st.integers(0, 64)) if channels == 1 else (draw(st.integers(0, 64)), channels)
    return draw(hnp.arrays(dtype, shape, elements=elements))


@settings(max_examples=200, deadline=None, database=None)
@given(data=wav_data())
def test_load_track_folds_as_scaling_each_channel_did(tmp_path_factory, data):
    # oracle: scipy.io.wavfile reads the file, then every channel is scaled
    path = tmp_path_factory.mktemp("wav") / "x.wav"
    wavfile.write(str(path), SR, data)
    if len(data) == 0:
        with pytest.raises(AudioLoadError, match="zero-length audio"):
            load_track(path)
    else:
        buf = load_track(path)
        assert np.array_equal(buf.samples, scale_then_fold(wavfile.read(path)[1]))
        assert buf.sample_rate == SR


# two finite channels whose sum overflows; opposite infinities, whose mean is NaN
@pytest.mark.parametrize("frame", ([1e308, 1e308], [np.inf, -np.inf], [np.nan, 0.0]))
def test_load_track_checks_the_folded_samples(tmp_path, frame):
    path = tmp_path / "bad.wav"
    wavfile.write(str(path), SR, np.array([[0.5, 0.5], frame]))
    with pytest.raises(AudioLoadError, match="non-finite"):
        load_track(path)


def test_load_track_memory_bounded_by_its_output(tmp_path):
    # 30 s of stereo int16 at 44.1 kHz: the file's samples (0.5x), the mono
    # output and the finite check's flags (0.125x); scaling each channel
    # before folding peaks at 3.5x
    path = tmp_path / "stereo.wav"
    noise = np.random.default_rng(2).integers(-32768, 32768, size=(30 * 44100, 2), dtype=np.int16)
    wavfile.write(str(path), 44100, noise)
    peak = traced_peak(lambda: load_track(path))
    assert peak <= 1.7 * 30 * 44100 * 8


class TestResample:
    def test_two_to_one_ratio_halves_length(self):
        buf = buffer(make_tone(500, 1.0, sr=44100), sr=44100)
        out = resample(buf, 22050)
        assert out.sample_rate == 22050
        assert abs(len(out.samples) - round(len(buf.samples) / 2)) <= 1

    def test_identity_when_already_at_rate(self):
        buf = buffer(make_tone(500, 1.0))
        assert resample(buf, SR) is buf

    def test_tone_survives_resampling(self):
        # oracle: STFT peak bin of an independently synthesized 22050 Hz tone
        buf = buffer(make_tone(1000, 1.0, sr=44100), sr=44100)
        out = resample(buf, 22050)
        reference = buffer(make_tone(1000, 1.0, sr=22050), sr=22050)
        got = stft(out, 2048, 512)
        want = stft(reference, 2048, 512)
        assert np.array_equal(
            got.magnitudes.argmax(axis=1), want.magnitudes.argmax(axis=1)[: got.magnitudes.shape[0]]
        )

    def test_round_trip_preserves_dominant_bin(self):
        buf = buffer(make_tone(440, 1.0))
        back = resample(resample(buf, 16000), SR)
        assert stft(back, 2048, 512).magnitudes.argmax(axis=1).max() == pytest.approx(
            stft(buf, 2048, 512).magnitudes.argmax(axis=1).max(), abs=1
        )

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            resample(buffer([0.0, 0.1]), 0)


class TestPreemphasis:
    def test_impulse_response(self):
        out = preemphasis(buffer([1.0, 0.0, 0.0]), 0.97)
        assert np.allclose(out.samples, [1.0, -0.97, 0.0])

    def test_dc_attenuation(self):
        out = preemphasis(buffer([1.0, 1.0, 1.0]), 0.97)
        assert np.allclose(out.samples, [1.0, 0.03, 0.03])

    def test_alpha_zero_is_identity(self):
        x = make_tone(100, 0.1)
        assert np.array_equal(preemphasis(buffer(x), 0.0).samples, x)

    def test_locality(self):
        # output at n depends only on inputs n and n-1
        x = make_noise(0.05, seed=7)
        y = preemphasis(buffer(x), 0.97).samples
        x2 = x.copy()
        x2[200] += 1.0
        y2 = preemphasis(buffer(x2), 0.97).samples
        changed = np.flatnonzero(y != y2)
        assert set(changed) <= {200, 201}

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            preemphasis(buffer([1.0]), 1.0)


class TestHighpass:
    def test_stopband_tone_attenuated(self):
        tone = make_tone(50, 2.0)
        out = highpass(buffer(tone), 100.0)
        assert np.sqrt(np.mean(out.samples**2)) <= 0.1 * np.sqrt(np.mean(tone**2))

    def test_passband_tone_preserved(self):
        tone = make_tone(1000, 2.0)
        out = highpass(buffer(tone), 100.0)
        ratio = np.sqrt(np.mean(out.samples**2)) / np.sqrt(np.mean(tone**2))
        assert 0.88 <= ratio <= 1.12

    def test_zero_in_zero_out(self):
        out = highpass(buffer(np.zeros(1000)), 100.0)
        assert not np.any(out.samples)

    def test_cutoff_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            highpass(buffer(make_tone(100, 0.1)), SR)


class TestSpectralSubtract:
    def test_stationary_noise_strongly_reduced(self):
        noise = 0.5 * make_noise(3.0, seed=11)
        cfg = PreprocessConfig()
        out = spectral_subtract(buffer(noise), cfg)
        energy_ratio = np.sum(out.samples**2) / np.sum(noise**2)
        assert energy_ratio <= 0.25

    def test_tone_after_silence_preserved(self):
        sig = np.concatenate([np.zeros(int(0.6 * SR)), make_tone(440, 2.0)])
        cfg = PreprocessConfig()
        out = spectral_subtract(buffer(sig), cfg)
        tone_slice = slice(int(0.8 * SR), int(2.4 * SR))
        ratio = np.sum(out.samples[tone_slice] ** 2) / np.sum(sig[tone_slice] ** 2)
        assert 0.9 <= ratio <= 1.1

    def test_all_zero_passthrough(self):
        out = spectral_subtract(buffer(np.zeros(SR * 2)), PreprocessConfig())
        assert not np.any(out.samples)

    def test_too_short_buffer_rejected(self):
        with pytest.raises(ValueError):
            spectral_subtract(buffer(np.zeros(100)), PreprocessConfig())

    def test_quietest_mode(self):
        sig = np.concatenate([make_tone(440, 1.0), 0.01 * make_noise(1.0, seed=5)])
        cfg = PreprocessConfig(noise_profile_mode="quietest")
        out = spectral_subtract(buffer(sig), cfg)
        assert len(out.samples) == len(sig)


class TestNormalize:
    def test_peak_scaling(self):
        out = normalize(buffer([0.2, -0.5]))
        assert np.allclose(out.samples, [0.4, -1.0])

    def test_silent_flag(self):
        out = normalize(buffer(np.zeros(100)))
        assert out.silent
        assert not np.any(out.samples)

    def test_idempotent(self):
        once = normalize(buffer([0.3, -0.7, 0.1]))
        twice = normalize(once)
        assert np.array_equal(once.samples, twice.samples)


class TestPreprocess:
    def test_rate_and_duration(self):
        buf = buffer(make_tone(440, 12.0, sr=44100), sr=44100)
        out = preprocess(buf, PreprocessConfig(max_duration=10.0))
        assert out.sample_rate == 22050
        assert len(out.samples) == 10 * 22050

    def test_peak_is_one(self):
        out = preprocess(buffer(0.3 * make_tone(440, 3.0)))
        assert np.abs(out.samples).max() == pytest.approx(1.0)

    def test_silent_input_flagged(self):
        out = preprocess(buffer(np.zeros(SR * 2)))
        assert out.silent

    def test_config_validation(self):
        with pytest.raises(ValueError):
            PreprocessConfig(preemphasis_alpha=1.5)
        with pytest.raises(ValueError):
            PreprocessConfig(subtraction_floor=2.0)
        with pytest.raises(ValueError):
            PreprocessConfig(noise_profile_mode="bogus")

    @pytest.mark.parametrize("window", [float("nan"), float("inf"), -0.5])
    def test_noise_profile_window_finite_and_non_negative(self, window):
        with pytest.raises(ValueError, match="noise_profile_window"):
            PreprocessConfig(noise_profile_window=window)

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
    def test_max_duration_finite_and_non_negative(self, seconds):
        with pytest.raises(ValueError, match="max_duration"):
            PreprocessConfig(max_duration=seconds)

    # 0.50003 s at 22.05 kHz is 11025.66 samples, which round to 11026; with
    # no profile window the limit is half a 2048-sample frame
    @pytest.mark.parametrize("window, n, accepted", [
        (0.50003, 11025, False), (0.50003, 11026, False), (0.50003, 11027, True),
        (0.0, 500, False), (0.0, 1024, True),
    ])
    def test_denoises_exactly_when_spectral_subtract_accepts(self, window, n, accepted):
        cfg = PreprocessConfig(noise_profile_window=window)
        buf = buffer(make_noise(1.0, seed=21)[:n])
        if accepted:
            spectral_subtract(buf, cfg)
        else:
            with pytest.raises(ValueError, match="buffer shorter than"):
                spectral_subtract(buf, cfg)
        plain = preprocess(buf, replace(cfg, denoise=False))
        assert np.array_equal(preprocess(buf, cfg).samples, plain.samples) != accepted

    def test_deterministic(self):
        sig = make_tone(440, 3.0) + 0.1 * make_noise(3.0, seed=9)
        a = preprocess(buffer(sig))
        b = preprocess(buffer(sig))
        assert np.array_equal(a.samples, b.samples)

    @settings(max_examples=40, deadline=None, database=None)
    @given(
        rate=st.sampled_from([8000, 16000, 22050, 44100, 48000]),
        seconds=st.floats(0.0, 1.5),
        scale=st.floats(0.0, 1e6),
        offset=st.floats(-1e3, 1e3),
        seed=st.integers(0, 2**31 - 1),
        denoise=st.booleans(),
    )
    def test_output_finite_with_unit_peak_or_silent(
        self, rate, seconds, scale, offset, seed, denoise
    ):
        n = int(seconds * rate)
        samples = scale * np.random.RandomState(seed).standard_normal(n) + offset
        cfg = PreprocessConfig(denoise=denoise)
        try:
            out = preprocess(buffer(samples, sr=rate), cfg)
        except ValueError:
            # only a buffer too short for the order-4 sosfiltfilt (15 samples or fewer) may fail
            assert n * cfg.target_rate / rate <= 15
            return
        assert np.isfinite(out.samples).all()
        assert out.silent or np.abs(out.samples).max() == 1.0


@pytest.mark.parametrize("n", (0, 1, BLOCK_FRAMES, BLOCK_FRAMES + 1, 3 * BLOCK_FRAMES + 1))
def test_blocks_cover_range_in_order(n):
    blocks = list(_blocks(n))
    assert [i for b in blocks for i in range(b.start, b.stop)] == list(range(n))
    assert all(0 < b.stop - b.start <= BLOCK_FRAMES for b in blocks)


def test_audio_path_starts_no_thread(monkeypatch, voiced_wav):
    """Every framed kernel walks its blocks in the calling thread. The 3.7 s
    stem spans several blocks of each: 163 subtraction frames ("quietest"
    mode adds the energy pass), 367 f0 frames and 78 CPP frames."""

    def refuse(thread):
        raise AssertionError(f"thread {thread.name} started")

    buf = load_track(voiced_wav)
    monkeypatch.setattr(threading.Thread, "start", refuse)
    metrics = voice_report(preprocess(buf, PreprocessConfig(noise_profile_mode="quietest")))
    assert None not in (metrics.hnr_db, metrics.cpp, metrics.jitter, metrics.shimmer)


def test_truncate_keeps_head():
    buf = buffer(np.arange(100) / 100.0, sr=10)
    out = truncate(buf, 2.0)
    assert np.array_equal(out.samples, buf.samples[:20])
