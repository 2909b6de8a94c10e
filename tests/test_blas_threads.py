"""Every BLAS product of a pipeline run stays on the thread that calls it.

OpenBLAS hands a large enough matrix product to worker threads of its own,
which then spin on the other cores; when those cores are busy (with the
other audio side, say) the product stalls. audio_io.PRODUCT_MACS sizes every
product below that threshold. Linux only: the per-thread CPU times are read
from /proc/self/task.
"""

import os
import threading
import time

import numpy as np
import pytest

from detoxaudit import (
    PreprocessConfig,
    StubEmbedder,
    StubSentimentClassifier,
    TrackBundle,
    run_pipeline,
)
from detoxaudit import report as report_module
from conftest import make_harmonic, make_noise, write_wav

STEM_RATE = 44100
# the other threads' CPU time, as a share of the calling and pool threads'
MAX_OTHER_SHARE = 0.05


def thread_ticks() -> dict:
    """user + system clock ticks of each live thread of this process, by native id."""
    ticks = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:  # the thread ended
            continue
        ticks[int(tid)] = int(fields[11]) + int(fields[12])  # utime, stime
    return ticks


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="reads per-thread CPU from /proc/self/task")
@pytest.mark.parametrize("target_rate", [22050, 44100])
def test_blas_products_run_on_their_calling_threads(fixture_pair, monkeypatch, target_rate):
    tmp = fixture_pair["tmp_path"]
    stems = []
    for i, f0 in enumerate((220, 196)):
        sig = make_harmonic(f0, seconds=6.0, sr=STEM_RATE) + 0.1 * make_noise(6.0, STEM_RATE, seed=i)
        stems.append(str(write_wav(tmp / f"side{i}.wav", sig / np.abs(sig).max(), sr=STEM_RATE)))
    pair = [TrackBundle(stem, str(fixture_pair[key]), "fixture")
            for stem, key in zip(stems, ("orig_lyrics", "trans_lyrics"))]
    cfg = PreprocessConfig(target_rate=target_rate)

    def run():
        run_pipeline(*pair, cfg, classifier=StubSentimentClassifier(), embedder=StubEmbedder())

    side_cpu = {}  # native id of each thread that ran an audio side -> its CPU seconds there
    real_side = report_module._audio_side

    def timed_side(*args):
        start = time.thread_time()
        try:
            return real_side(*args)
        finally:
            tid = threading.get_native_id()
            side_cpu[tid] = side_cpu.get(tid, 0.0) + time.thread_time() - start

    run()  # warm up: any BLAS worker threads start now
    time.sleep(1.0)  # idle, so that they wait asleep, as between two calls
    monkeypatch.setattr(report_module, "_audio_side", timed_side)
    main = threading.get_native_id()
    before = thread_ticks()
    run()
    after = thread_ticks()

    per_s = os.sysconf("SC_CLK_TCK")
    work = (after[main] - before[main]) / per_s
    work += sum(cpu for tid, cpu in side_cpu.items() if tid != main)
    others = sum(t - before.get(tid, 0) for tid, t in after.items() if tid != main and tid not in side_cpu)
    # one tick is the counters' resolution
    assert others <= max(1, MAX_OTHER_SHARE * work * per_s), (
        f"threads outside the pipeline took {others / per_s:.3f} s of CPU against {work:.3f} s in it"
    )
