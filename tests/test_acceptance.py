"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured values when it completes."""

import json
import socket
import time

import numpy as np
import pytest

from detoxaudit import (
    PeriodSequence,
    PitchConfig,
    PreprocessConfig,
    ProviderConfig,
    ProviderError,
    SentimentClient,
    StubEmbedder,
    StubSentimentClassifier,
    TrackBundle,
    cpp,
    estimate_f0,
    extract_periods,
    highpass,
    hnr,
    jitter,
    load_report,
    normalize,
    parse_lyrics,
    percent_decrease,
    preemphasis,
    rolling_mean,
    run_pipeline,
    shimmer,
    spectral_subtract,
    standardize_sentiment,
    stft,
)
from conftest import SR, buffer, jittered_tone, make_harmonic, make_noise, make_tone
from test_providers import MockProvider
from test_voice import direct_jitter, direct_shimmer


def report_pass(name, detail=""):
    print(f"ACCEPTANCE PASS: {name}" + (f" ({detail})" if detail else ""))


def test_criterion_1_percent_decrease_table():
    start = time.monotonic()
    rows = [
        (0.938, 0.344, 63.3),
        (0.744, 0.107, 85.6),
        (0.235, 0.063, 73.2),
        (0.685, 0.250, 63.5),
    ]
    for orig, trans, expected in rows:
        got = percent_decrease(orig, trans)
        assert abs(got - expected) <= 0.1, (orig, trans, got, expected)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_pass("1 percent-decrease table arithmetic", f"{elapsed:.3f}s")


def test_criterion_2_sentiment_standardization():
    start = time.monotonic()
    assert abs(standardize_sentiment("POSITIVE", 0.999) - 0.001) <= 1e-12
    assert abs(standardize_sentiment("NEGATIVE", 0.992) - 0.992) <= 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_pass("2 sentiment standardization worked examples", f"{elapsed:.3f}s")


def test_criterion_3_jitter_shimmer_oracle_identity():
    start = time.monotonic()
    rng = np.random.RandomState(2024)
    worst = 0.0
    for _ in range(100):
        n = rng.randint(2, 300)
        periods = rng.uniform(0.002, 0.02, size=n)
        amps = rng.uniform(0.05, 3.0, size=n)
        seq = PeriodSequence(periods, amps)
        worst = max(
            worst,
            abs(jitter(seq) - direct_jitter(periods)),
            abs(shimmer(seq) - direct_shimmer(amps)),
        )
    assert worst < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report_pass("3 jitter/shimmer oracle identity", f"max err {worst:.2e}, {elapsed:.3f}s")


def test_criterion_4_voice_metrics_on_synthetic_signals():
    start = time.monotonic()

    # f0 within 2% at 110 / 220 / 440 Hz
    for freq in (110, 220, 440):
        track = estimate_f0(buffer(make_tone(freq, 2.0)), PitchConfig(fmax=600))
        median = float(np.median(track.voiced_f0()))
        assert abs(median - freq) <= 0.02 * freq, (freq, median)

    # HNR within 1.5 dB of constructed ratios
    harm = make_harmonic(220, seconds=2.0)
    hnr_results = {}
    for target in (0, 10, 20):
        noise = make_noise(2.0, seed=100 + target) * 10 ** (-target / 20)
        sig = harm + noise
        buf = buffer(sig / np.abs(sig).max())
        value = hnr(buf, estimate_f0(buf))
        assert abs(value - target) <= 1.5, (target, value)
        hnr_results[target] = round(value, 2)

    # CPP separates a pulse train from matched-RMS white noise by >= 5
    pulse = np.zeros(SR * 2)
    pulse[:: SR // 100] = 1.0
    pulse /= np.sqrt(np.mean(pulse**2))
    noise = make_noise(2.0, seed=7)
    cpp_gap = cpp(buffer(pulse)) - cpp(buffer(noise))
    assert cpp_gap >= 5, cpp_gap

    # extracted jitter within 0.3 percentage points of the injected value
    sig, true_periods = jittered_tone(100, 0.01, 3.0)
    buf = buffer(sig)
    seq = extract_periods(buf, estimate_f0(buf))
    injected = direct_jitter(true_periods)
    extracted = jitter(seq)
    assert abs(extracted - injected) <= 0.003, (injected, extracted)

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report_pass(
        "4 end-to-end voice metrics",
        f"hnr {hnr_results}, cpp gap {cpp_gap:.1f}, "
        f"jitter {extracted:.4f} vs {injected:.4f}, {elapsed:.1f}s",
    )


def test_criterion_5_preprocessing_invariants():
    start = time.monotonic()

    impulse = np.zeros(64)
    impulse[0] = 1.0
    out = preemphasis(buffer(impulse), 0.97).samples
    expected = np.zeros(64)
    expected[0], expected[1] = 1.0, -0.97
    assert np.array_equal(out, expected)

    normed = normalize(buffer([0.2, -0.45, 0.01]))
    assert np.abs(normed.samples).max() == 1.0
    silent = normalize(buffer(np.zeros(100)))
    assert silent.silent

    tone50 = make_tone(50, 2.0)
    filtered = highpass(buffer(tone50), 100.0)
    atten_db = 20 * np.log10(
        np.sqrt(np.mean(tone50**2)) / np.sqrt(np.mean(filtered.samples**2))
    )
    assert atten_db >= 20, atten_db

    stationary = 0.5 * make_noise(3.0, seed=21)
    cleaned = spectral_subtract(buffer(stationary), PreprocessConfig())
    reduction_db = 10 * np.log10(np.sum(stationary**2) / np.sum(cleaned.samples**2))
    assert reduction_db >= 6, reduction_db

    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report_pass(
        "5 preprocessing invariants",
        f"50Hz atten {atten_db:.1f} dB, noise cut {reduction_db:.1f} dB, {elapsed:.2f}s",
    )


def test_criterion_6_stft_correctness():
    start = time.monotonic()

    spec = stft(buffer(make_tone(1000, 2.0)), 2048, 512)
    argmax = spec.magnitudes.argmax(axis=1)
    assert np.all(argmax[1:-1] == 93), np.unique(argmax)

    x = np.random.RandomState(33).standard_normal(2048 * 16)
    rect = stft(buffer(x), 2048, 2048, window="rectangular")
    weights = np.full(rect.magnitudes.shape[1], 2.0)
    weights[0] = weights[-1] = 1.0
    spectral = np.sum(rect.magnitudes**2 * weights) / 2048
    time_energy = np.sum(x**2)
    rel = abs(spectral - time_energy) / time_energy
    assert rel <= 0.01, rel

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report_pass("6 STFT correctness", f"Parseval rel err {rel:.2e}, {elapsed:.2f}s")


def test_criterion_7_offline_pipeline_determinism(fixture_pair, tmp_path, monkeypatch):
    def blocked(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    monkeypatch.setattr(socket.socket, "connect", blocked)

    orig = TrackBundle(
        str(fixture_pair["orig_stem"]), str(fixture_pair["orig_lyrics"]), "fixture"
    )
    trans = TrackBundle(
        str(fixture_pair["trans_stem"]), str(fixture_pair["trans_lyrics"]), "fixture"
    )
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    start = time.monotonic()
    for path in paths:
        run_pipeline(
            orig, trans,
            classifier=StubSentimentClassifier(), embedder=StubEmbedder(),
            out_path=path,
        )
    elapsed = time.monotonic() - start
    assert elapsed / 2 < 10.0

    r1, r2 = load_report(paths[0]), load_report(paths[1])
    r1["provenance"].pop("created_at")
    r2["provenance"].pop("created_at")
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    # identical lyric docs: similarity 1.0 on every line
    doc_text = fixture_pair["orig_lyrics"].read_text()
    from detoxaudit import line_similarity

    doc = parse_lyrics(doc_text)
    series = line_similarity(doc, doc, StubEmbedder())
    assert np.allclose(series.per_line, 1.0, atol=1e-9)

    # rolling window-5 equals brute force exactly
    rng = np.random.RandomState(55)
    values = rng.uniform(0, 1, 37)
    brute = np.array([np.mean(values[i : i + 5]) for i in range(len(values) - 4)])
    assert np.array_equal(rolling_mean(values, 5), brute)

    report_pass("7 offline pipeline determinism", f"{elapsed / 2:.1f}s per run, no network")


def test_criterion_8_provider_fault_injection():
    start = time.monotonic()

    flaky = MockProvider({"label": "POSITIVE", "score": 0.9}, fail_first=2)
    try:
        cfg = ProviderConfig(endpoint=flaky.url, timeout=2.0, max_retries=3, backoff_base=0.1)
        client = SentimentClient(cfg)
        assert client.classify("hello there") == ("POSITIVE", 0.9)
        assert client.retries == 2
        assert flaky.requests_seen == 3
    finally:
        flaky.close()

    dead = MockProvider({}, fail_first=10**9)
    try:
        cfg = ProviderConfig(endpoint=dead.url, timeout=1.0, max_retries=2, backoff_base=0.1)
        client = SentimentClient(cfg)
        backoff_sum = cfg.backoff_base * (2**cfg.max_retries - 1)
        t0 = time.monotonic()
        with pytest.raises(ProviderError):
            client.classify("hello there")
        wall = time.monotonic() - t0
        assert dead.requests_seen == cfg.max_retries + 1
        assert wall <= cfg.timeout * (cfg.max_retries + 1) + backoff_sum
    finally:
        dead.close()

    elapsed = time.monotonic() - start
    assert elapsed < 15.0
    report_pass("8 provider fault injection", f"{elapsed:.1f}s")
