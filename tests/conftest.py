import os
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from detoxaudit import AudioBuffer

SR = 22050


def pool_threads():
    """Names of live pool threads: every HTTP client's prefetch and run_pipeline's
    audio sides, the package's only threads. Counted by name: the loopback
    servers' handler threads may still be closing their sockets when a call returns."""
    return [t.name for t in threading.enumerate() if "-fetch" in t.name or t.name.startswith("audio-side")]


@pytest.fixture(autouse=True)
def no_pool_thread_left():
    """Fail a test that leaves a pool thread running."""
    yield
    assert pool_threads() == []


@pytest.fixture
def umask_022():
    """Run the test under umask 022, a common default; the caller's is restored."""
    old = os.umask(0o022)
    yield
    os.umask(old)


def mode_of(path):
    return stat.S_IMODE(os.stat(path).st_mode)


def plain_write_mode(directory):
    """The permission bits that Path.write_text gives a new file in directory."""
    probe = directory / "plain-write-probe"
    probe.write_text("")
    try:
        return mode_of(probe)
    finally:
        probe.unlink()


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs, above what was traced before it."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not was_tracing:
            tracemalloc.stop()


def make_tone(freq, seconds=2.0, sr=SR, amp=1.0):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def make_harmonic(f0, n_harmonics=8, seconds=2.0, sr=SR):
    """Multi-harmonic periodic signal, unit RMS."""
    t = np.arange(int(seconds * sr)) / sr
    sig = sum(np.sin(2 * np.pi * f0 * h * t + h) for h in range(1, n_harmonics + 1))
    return sig / np.sqrt(np.mean(sig**2))


def make_noise(seconds=2.0, sr=SR, seed=0):
    rng = np.random.RandomState(seed)
    noise = rng.standard_normal(int(seconds * sr))
    return noise / np.sqrt(np.mean(noise**2))


def jittered_tone(f0, jitter_frac, seconds, sr=SR):
    """Tone whose cycle lengths alternate by +/- jitter_frac.

    Returns (samples, true_period_array)."""
    periods = []
    total = 0.0
    i = 0
    while total < seconds:
        period = (1.0 / f0) * (1 + jitter_frac * (-1) ** i)
        periods.append(period)
        total += period
        i += 1
    bounds = np.cumsum([0] + periods)
    t = np.arange(int(total * sr)) / sr
    cyc = np.clip(np.searchsorted(bounds, t, side="right") - 1, 0, len(periods) - 1)
    phase = 2 * np.pi * (t - bounds[cyc]) / np.array(periods)[cyc]
    return np.sin(phase), np.array(periods)


def buffer(samples, sr=SR, **kwargs):
    return AudioBuffer(np.asarray(samples, dtype=float), sr, **kwargs)


def write_wav(path, samples, sr=SR, dtype="float32"):
    if dtype == "int16":
        data = (np.clip(samples, -1, 1) * 32767).astype(np.int16)
    else:
        data = np.asarray(samples, dtype=np.float32)
    wavfile.write(str(path), sr, data)
    return path


@pytest.fixture
def voiced_wav(tmp_path):
    """A short synthetic 'vocal': harmonic signal with mild noise."""
    lead = 0.002 * make_noise(seconds=0.7, seed=4)
    sig = make_harmonic(220, seconds=3.0) + 0.05 * make_noise(seconds=3.0, seed=3)
    sig = np.concatenate([lead, sig])
    sig /= np.abs(sig).max()
    return write_wav(tmp_path / "voiced.wav", sig)


@pytest.fixture
def fixture_pair(tmp_path):
    """Synthetic original/transformed bundle pair for pipeline tests.

    Each stem leads with a quiet stretch so the noise-profile estimate is
    genuine, mirroring real track intros."""
    lead = 0.002 * make_noise(seconds=0.7, seed=5)
    orig_sig = np.concatenate(
        [lead, make_harmonic(220, seconds=3.0) + 0.1 * make_noise(seconds=3.0, seed=1)]
    )
    trans_sig = np.concatenate(
        [lead, make_harmonic(196, seconds=3.0) + 0.02 * make_noise(seconds=3.0, seed=2)]
    )
    orig_stem = write_wav(tmp_path / "orig.wav", orig_sig / np.abs(orig_sig).max())
    trans_stem = write_wav(tmp_path / "trans.wav", trans_sig / np.abs(trans_sig).max())

    orig_lyrics = tmp_path / "orig.txt"
    orig_lyrics.write_text(
        "[Verse]\n"
        "walking down the street with hate in my heart\n"
        "i want to fight and tear it all apart\n"
        "[Chorus]\n"
        "burn it down burn it down tonight\n"
        "burn it down burn it down tonight\n"
        "[Outro]\n"
        "nothing left for you and me\n",
        encoding="utf-8",
    )
    trans_lyrics = tmp_path / "trans.txt"
    trans_lyrics.write_text(
        "[Verse]\n"
        "walking down the street with love in my heart\n"
        "i want to sing and lift us all apart\n"
        "[Chorus]\n"
        "light it up light it up tonight\n"
        "light it up light it up tonight\n"
        "[Outro]\n"
        "everything is here for you and me\n",
        encoding="utf-8",
    )
    sections = tmp_path / "sections.tsv"
    sections.write_text("verse\t0:00\t0:01\nchorus\t0:01\t0:02\n", encoding="utf-8")
    return {
        "orig_stem": orig_stem,
        "trans_stem": trans_stem,
        "orig_lyrics": orig_lyrics,
        "trans_lyrics": trans_lyrics,
        "sections": sections,
        "tmp_path": tmp_path,
    }
