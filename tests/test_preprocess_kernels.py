"""The numpy preprocessing kernels against scipy.signal, which serves as the oracle.

resample must equal resample_poly, and highpass must equal butter +
sosfiltfilt, to within 1e-12 of the input's peak. The Hann window, the
dual window and spectral subtraction's frame range must equal
ShortTimeFFT's exactly, and the Butterworth poles and gain must equal
butter's at the rates and cutoffs below. Two memory tests bound the peak
that tracemalloc sees on a 60 s 44.1 kHz stem.

The high-pass property draws cutoffs from 0.9% of Nyquist up; the default,
100 Hz at 22.05 kHz, is 0.91%. Lower cutoffs put the poles nearer z = 1,
and the two kernels drift further apart: a random search (noise, tones,
DC, tones over DC and random walks, 16 to 4,000 samples) found at most
1.2e-13 of the peak over 5,000 cases from 0.9% up, and 1.6e-12 over 3,000
between 0.4% and 0.6%.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

from detoxaudit import highpass, resample
from detoxaudit.audio_io import (
    FILTER_BLOCK,
    HIGHPASS_ORDER,
    HIGHPASS_PAD,
    SUBTRACT_FRAME_LENGTH,
    SUBTRACT_HOP,
    _butter_modes,
    _dual_window,
    _filter_from_rest,
    _hann,
    _subtract_frame_range,
)
from conftest import buffer, make_noise, make_tone, traced_peak

RATES = (8000, 11025, 16000, 22050, 44100, 48000, 96000)
REL = 1e-12  # of the input's peak
kernel_settings = settings(max_examples=200, deadline=None, database=None)


def assert_close_to_peak(got, want, x):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=REL * np.max(np.abs(x), initial=0.0))


@st.composite
def signals(draw, n):
    """Noise, a tone, DC, zeros, or a tone over DC with noise, at a drawn level."""
    kind = draw(st.sampled_from(["noise", "tone", "dc", "zero", "mixed"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n)
    tone = np.sin(draw(st.floats(1e-4, np.pi)) * t + draw(st.floats(0, 2 * np.pi)))
    x = {
        "noise": rng.standard_normal(n),
        "tone": tone,
        "dc": np.ones(n),
        "zero": np.zeros(n),
        "mixed": 0.3 + tone + 0.1 * rng.standard_normal(n),
    }[kind]
    return x * draw(st.floats(1e-3, 1e3))


@pytest.mark.parametrize("n", [1, 2, 3, 64, 511, 2048, 4096])
def test_hann_is_scipy_periodic_hann(n):
    assert np.array_equal(_hann(n), signal.get_window("hann", n))


@pytest.mark.parametrize("m, hop", [(SUBTRACT_FRAME_LENGTH, SUBTRACT_HOP), (2048, 256), (1024, 512), (512, 128)])
def test_dual_window_is_short_time_fft_dual_win(m, hop):
    win = _hann(m)
    assert np.array_equal(_dual_window(win, hop), signal.ShortTimeFFT(win, hop=hop, fs=1).dual_win)


def test_subtract_frame_range_is_short_time_fft_range():
    sft = signal.ShortTimeFFT(_hann(SUBTRACT_FRAME_LENGTH), hop=SUBTRACT_HOP, fs=1)
    # from the shortest buffer spectral_subtract takes, half a frame
    for n in range(SUBTRACT_FRAME_LENGTH - SUBTRACT_FRAME_LENGTH // 2, 20000):
        assert _subtract_frame_range(n) == (sft.p_min, sft.p_max(n)), n


DESIGN_POINTS = [(22050, 100.0), (16000, 80.0), (44100, 300.0), (8000, 20.0), (96000, 4000.0)]


@pytest.mark.parametrize("rate, cutoff", DESIGN_POINTS)
def test_butterworth_poles_and_gain_are_scipy_butter(rate, cutoff):
    zeros, poles, gain = signal.butter(HIGHPASS_ORDER, cutoff, btype="highpass", fs=rate, output="zpk")
    upper, _, got_gain = _butter_modes(cutoff, rate)
    assert np.array_equal(zeros, np.ones(HIGHPASS_ORDER))
    assert np.array_equal(upper, poles[poles.imag > 0])
    assert got_gain == gain


@pytest.mark.parametrize("rate, cutoff", DESIGN_POINTS)
def test_filter_from_rest_impulse_is_sosfilt(rate, cutoff):
    # one pass, no odd extension: this holds the residues to the sections directly
    impulse = np.zeros(40 * FILTER_BLOCK)
    impulse[0] = 1.0
    got = np.empty_like(impulse)
    _filter_from_rest(impulse, _butter_modes(cutoff, rate), got)
    want = signal.sosfilt(signal.butter(HIGHPASS_ORDER, cutoff, btype="highpass", fs=rate, output="sos"), impulse)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@kernel_settings
@given(data=st.data())
def test_resample_matches_resample_poly(data):
    rate, target = data.draw(st.lists(st.sampled_from(RATES), min_size=2, max_size=2, unique=True))
    n = data.draw(st.integers(1, 5000))
    x = data.draw(signals(n))
    ratio = Fraction(target, rate)
    want = signal.resample_poly(x, ratio.numerator, ratio.denominator)
    got = resample(buffer(x, sr=rate), target)
    assert got.sample_rate == target
    assert_close_to_peak(got.samples, want, x)


# (44101, 44100) splits each row of outputs into parts, to bound the tap table
@pytest.mark.parametrize("up, down", [(1, 2), (147, 320), (2, 1), (160, 147), (3, 2), (44101, 44100)])
@pytest.mark.parametrize("n", [1, 7, 1000])
def test_resample_ratios_and_tiny_inputs(up, down, n):
    x = make_noise(1.0, seed=n)[:n]
    got = resample(buffer(x, sr=1000 * down), 1000 * up).samples
    assert_close_to_peak(got, signal.resample_poly(x, up, down), x)


# lengths whose odd-extended buffer (n + 2 * HIGHPASS_PAD samples) fills whole
# blocks, or one sample short of or past them
BLOCK_EDGES = [
    k * FILTER_BLOCK - 2 * HIGHPASS_PAD + d for k in range(1, 9) for d in (-1, 0, 1)
    if k * FILTER_BLOCK - 2 * HIGHPASS_PAD + d > HIGHPASS_PAD
]


@kernel_settings
@given(data=st.data())
def test_highpass_matches_sosfiltfilt(data):
    rate = data.draw(st.sampled_from(RATES))
    cutoff = data.draw(st.floats(0.009, 0.9)) * rate / 2
    n = data.draw(st.one_of(
        st.integers(HIGHPASS_PAD + 1, 40 * FILTER_BLOCK), st.sampled_from(BLOCK_EDGES)
    ))
    x = data.draw(signals(n))
    sos = signal.butter(HIGHPASS_ORDER, cutoff, btype="highpass", fs=rate, output="sos")
    got = highpass(buffer(x, sr=rate), cutoff).samples
    assert_close_to_peak(got, signal.sosfiltfilt(sos, x), x)


@pytest.mark.parametrize("signal_kind", ["tone", "noise", "mixed"])
def test_highpass_default_cutoff_at_44k(signal_kind):
    # --target-rate 44100 keeps the 100 Hz cutoff: 0.45% of Nyquist, below the
    # property's range. The form of the state matters here: in the sections' own
    # direct-form states a block scan drifted to 1.4e-11 of the peak on the
    # tone, where the per-pole states stay within 2.4e-13
    rate = 44100
    x = {
        "tone": make_tone(150, 10.0, sr=rate),
        "noise": make_noise(10.0, sr=rate, seed=4),
        "mixed": make_tone(30, 10.0, sr=rate) + 0.3 + 0.1 * make_noise(10.0, sr=rate, seed=3),
    }[signal_kind]
    sos = signal.butter(HIGHPASS_ORDER, 100.0, btype="highpass", fs=rate, output="sos")
    assert_close_to_peak(highpass(buffer(x, sr=rate), 100.0).samples, signal.sosfiltfilt(sos, x), x)


@pytest.mark.parametrize("n", [1, 2, HIGHPASS_PAD])
def test_highpass_refuses_what_sosfiltfilt_refuses(n):
    x = make_noise(0.1, seed=1)[:n]
    sos = signal.butter(HIGHPASS_ORDER, 100.0, btype="highpass", fs=22050, output="sos")
    with pytest.raises(ValueError, match="padlen"):
        signal.sosfiltfilt(sos, x)
    with pytest.raises(ValueError, match=f"too short for the high-pass: it needs at least {HIGHPASS_PAD + 1}"):
        highpass(buffer(x), 100.0)


def test_highpass_empty_buffer_returned_as_is():
    empty = buffer(np.zeros(0))
    assert highpass(empty, 100.0) is empty


@pytest.fixture(scope="module")
def stem_44k():
    """60 s of a tone with noise at 44.1 kHz: 21 MiB of float64."""
    return buffer(make_tone(220, 60.0, sr=44100) + 0.1 * make_noise(60.0, sr=44100, seed=9), sr=44100)


def test_resample_memory_bounded_by_its_output(stem_44k):
    # resample_poly peaks at 0.50x for 2:1; the output alone is 0.5x
    peak = traced_peak(lambda: resample(stem_44k, 22050))
    assert peak <= 0.6 * stem_44k.samples.nbytes


def test_highpass_memory_bounded_by_a_few_stems(stem_44k):
    # sosfiltfilt peaks at 3.0x. This holds the extension and one pass's output,
    # and fails on a complex copy of the stem
    peak = traced_peak(lambda: highpass(stem_44k, 100.0))
    assert peak <= 2.3 * stem_44k.samples.nbytes
