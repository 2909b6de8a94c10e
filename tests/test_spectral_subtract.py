"""Property and memory tests: the blocked spectral_subtract equals the whole-track oracle.

The oracle in preprocess_oracles.py is the original ShortTimeFFT
implementation. Outputs must agree to rel 1e-9 (abs 1e-12 floor) in both
noise-profile modes, at sample rates from 2 to 48 kHz, on noise buffers
with exact-zero stretches (+0.0 or -0.0) at the head, middle and tail, at
frame counts of the fewest a buffer can span, two blocks of BLOCK_FRAMES,
one frame more and four blocks plus one. A one-frame STFT does not exist
here: the shortest buffer accepted (SUBTRACT_FRAME_LENGTH -
SUBTRACT_FRAME_LENGTH // 2 samples) spans five centred frames. The output
must also not depend on the block size of _blocks, bit for bit.
"""

from bisect import bisect_left

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal

import preprocess_oracles
from detoxaudit import PreprocessConfig, audio_io, spectral_subtract
from detoxaudit.audio_io import BLOCK_FRAMES, SUBTRACT_FRAME_LENGTH, SUBTRACT_HOP
from conftest import SR, buffer, make_noise, make_tone, traced_peak

RTOL, ATOL = 1e-9, 1e-12
FRAMING = (SUBTRACT_FRAME_LENGTH, SUBTRACT_HOP)
FRAME_COUNTS = (None, 2 * BLOCK_FRAMES, 2 * BLOCK_FRAMES + 1, 4 * BLOCK_FRAMES + 1)


def length_range(n_frames):
    """(shortest, longest) buffer length whose STFT has n_frames frames; None: the fewest."""
    frame_length, hop = FRAMING
    sft = signal.ShortTimeFFT(signal.get_window("hann", frame_length), hop=hop, fs=1)
    shortest = frame_length - frame_length // 2

    def count(n):
        return sft.p_max(n) - sft.p_min

    if n_frames is None:
        n_frames = count(shortest)
    lengths = range(shortest, (n_frames + 1) * hop)
    lo = lengths[bisect_left(lengths, n_frames, key=count)]
    hi = lengths[bisect_left(lengths, n_frames + 1, key=count)] - 1
    return lo, hi


@st.composite
def noisy_with_silence(draw, n_samples):
    """Noise, sometimes over a tone, with zero stretches of random sign at head, middle and tail."""
    rng = np.random.RandomState(draw(st.integers(0, 2**31 - 1)))
    x = rng.standard_normal(n_samples) * draw(st.floats(1e-3, 10.0))
    if draw(st.booleans()):
        x += np.sin(2 * np.pi * draw(st.floats(50.0, 900.0)) * np.arange(n_samples) / SR)
    for where in ("head", "middle", "tail"):
        length = draw(st.integers(0, n_samples // 2))
        if length == 0:
            continue
        zero = -0.0 if draw(st.booleans()) else 0.0
        if where == "head":
            x[:length] = zero
        elif where == "tail":
            x[n_samples - length:] = zero
        else:
            start = draw(st.integers(0, n_samples - length))
            x[start : start + length] = zero
    return x


@pytest.mark.parametrize("n_frames", FRAME_COUNTS)
@pytest.mark.parametrize("mode", ("leading", "quietest"))
@settings(max_examples=15, deadline=None, database=None)
@given(data=st.data())
def test_matches_whole_track_oracle(n_frames, mode, data):
    rate = data.draw(st.integers(2000, 48000))
    lo, hi = length_range(n_frames)
    n = data.draw(st.integers(lo, hi))
    cfg = PreprocessConfig(
        noise_profile_mode=mode,
        # 0 up to just under the whole buffer, so a one-frame profile is drawn too
        noise_profile_window=data.draw(st.floats(0.0, (n - 1) / rate)),
        subtraction_floor=data.draw(st.floats(0.0, 0.2)),
    )
    buf = buffer(data.draw(noisy_with_silence(n)), sr=rate)
    got = spectral_subtract(buf, cfg).samples
    want = preprocess_oracles.spectral_subtract(buf, cfg, *FRAMING).samples
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("frame_length, hop", [FRAMING])
def test_shorter_than_half_a_frame_rejected_like_oracle(frame_length, hop):
    cfg = PreprocessConfig(noise_profile_window=0.001)
    shortest = frame_length - frame_length // 2
    short = buffer(make_noise(1.0, seed=2)[: shortest - 1])
    with pytest.raises(ValueError):
        spectral_subtract(short, cfg)
    with pytest.raises(ValueError):
        preprocess_oracles.spectral_subtract(short, cfg, frame_length, hop)
    ok = buffer(make_noise(1.0, seed=2)[:shortest])
    np.testing.assert_allclose(
        spectral_subtract(ok, cfg).samples,
        preprocess_oracles.spectral_subtract(ok, cfg, frame_length, hop).samples,
        rtol=RTOL, atol=ATOL,
    )


@pytest.mark.parametrize("rows", (1, 16, 64))
@pytest.mark.parametrize("mode", ("leading", "quietest"))
def test_block_size_reaches_no_output(monkeypatch, mode, rows):
    # a 2 s "leading" profile is 86 frames and "quietest" takes 52 of 520:
    # both span several blocks at every size tried, as at BLOCK_FRAMES
    sig = make_tone(220, 12.0) + 0.1 * make_noise(12.0, seed=8)
    buf = buffer(sig)
    cfg = PreprocessConfig(noise_profile_mode=mode, noise_profile_window=2.0)
    want = spectral_subtract(buf, cfg).samples
    blocks = audio_io._blocks
    monkeypatch.setattr(audio_io, "_blocks", lambda n: blocks(n, rows))
    assert np.array_equal(spectral_subtract(buf, cfg).samples, want)


@pytest.mark.parametrize("mode", ("leading", "quietest"))
def test_memory_bounded_by_a_few_tracks(mode):
    # the whole-track version peaks at about 18x the input's bytes
    sig = make_tone(220, 60.0) + 0.1 * make_noise(60.0, seed=6)
    sig[: SR // 4] = 0.0
    buf = buffer(sig)
    cfg = PreprocessConfig(noise_profile_mode=mode)
    peak = traced_peak(lambda: spectral_subtract(buf, cfg))
    assert peak < 6 * buf.samples.nbytes
