import numpy as np
import pytest

from detoxaudit import (
    PeriodSequence,
    PitchConfig,
    PitchTrack,
    cpp,
    estimate_f0,
    extract_periods,
    hnr,
    jitter,
    radar_normalize,
    shimmer,
    voice_report,
)
from conftest import SR, buffer, jittered_tone, make_harmonic, make_noise, make_tone


def direct_jitter(periods):
    """Straight evaluation of the cycle-variability formula (fraction form)."""
    t = np.asarray(periods)
    return np.abs(np.diff(t)).mean() / t.mean()


def direct_shimmer(amplitudes):
    a = np.asarray(amplitudes)
    return np.abs(np.diff(a)).mean() / a.mean()


class TestEstimateF0:
    def test_sawtooth_220(self):
        t = np.arange(SR * 2) / SR
        saw = 2 * ((220 * t) % 1) - 1
        track = estimate_f0(buffer(saw))
        median = np.median(track.voiced_f0())
        assert abs(median - 220) <= 0.02 * 220

    @pytest.mark.parametrize("freq", [110, 220, 440])
    def test_clean_tones_within_2_percent(self, freq):
        track = estimate_f0(buffer(make_tone(freq, 2.0)), PitchConfig(fmax=600))
        median = np.median(track.voiced_f0())
        assert abs(median - freq) <= 0.02 * freq

    def test_white_noise_mostly_unvoiced(self):
        track = estimate_f0(buffer(make_noise(2.0, seed=4) / 3))
        assert track.voiced_fraction <= 0.2

    def test_silence_all_unvoiced(self):
        track = estimate_f0(buffer(np.zeros(SR * 2)))
        assert track.voiced_fraction == 0.0

    def test_f0_present_iff_voiced(self):
        sig = np.concatenate([make_tone(220, 1.0), np.zeros(SR)])
        track = estimate_f0(buffer(sig))
        assert np.all(np.isfinite(track.f0[track.voiced_flags]))
        assert np.all(np.isnan(track.f0[~track.voiced_flags]))

    def test_candidate_at_first_lag_does_not_climb(self):
        # period 51 samples; fmax = SR / 50 puts the first candidate lag at 50,
        # whose correlation is within 10% of the peak at 51: it is taken as is
        cfg = PitchConfig(fmax=SR / 50)
        track = estimate_f0(buffer(make_tone(SR / 51, 1.0)), cfg)
        assert track.voiced_fraction > 0.9
        assert np.all(track.voiced_f0() == SR / 50)


@pytest.mark.parametrize("times, f0", [(2, 3), (3, 2)])
def test_pitch_track_rejects_unequal_lengths(times, f0):
    with pytest.raises(ValueError, match="must have equal length"):
        PitchTrack(np.arange(times) * 0.01, np.full(f0, 220.0))


class TestExtractPeriods:
    def test_pure_100hz_periods(self):
        buf = buffer(make_tone(100, 2.0))
        seq = extract_periods(buf, estimate_f0(buf))
        assert np.all(np.abs(seq.periods - 0.010) <= 1.0 / SR)

    def test_amplitude_modulated_cycles(self):
        t = np.arange(SR * 2) / SR
        cyc = np.floor(100 * t).astype(int)
        amp = np.where(cyc % 2 == 0, 1.0, 0.8)
        buf = buffer(amp * np.sin(2 * np.pi * 100 * t))
        seq = extract_periods(buf, estimate_f0(buf))
        inner = seq.amplitudes[1:-1]
        highs, lows = inner[inner > 1.8], inner[inner <= 1.8]
        assert np.all(np.abs(highs - 2.0) <= 0.1)
        assert np.all(np.abs(lows - 1.6) <= 0.08)

    def test_first_of_two_equally_near_crossings_wins(self):
        # rising crossings at whole samples; from 10, the next boundary is due at
        # 110, and 100 and 120 are both 10 samples away
        x = np.full(400, -1.0)
        for c in (10, 100, 120, 200, 300):
            x[c], x[c + 1] = 0.0, 1.0
        track = PitchTrack(np.arange(40) * 0.01, np.full(40, 10.0))
        seq = extract_periods(buffer(x, sr=1000), track)
        assert seq.periods.tolist() == [0.09, 0.1, 0.1]
        assert seq.amplitudes.tolist() == [2.0, 2.0, 2.0]

    def test_unvoiced_noise_rejected(self):
        buf = buffer(make_noise(2.0, seed=6) / 3)
        with pytest.raises(ValueError, match="insufficient voicing"):
            extract_periods(buf, estimate_f0(buf))


class TestHnr:
    @pytest.mark.parametrize("target_db", [0, 10, 20])
    def test_constructed_ratio(self, target_db):
        harm = make_harmonic(220, seconds=2.0)
        noise = make_noise(2.0, seed=target_db) * 10 ** (-target_db / 20)
        sig = harm + noise
        buf = buffer(sig / np.abs(sig).max())
        value = hnr(buf, estimate_f0(buf))
        assert value == pytest.approx(target_db, abs=1.5)

    def test_pure_periodic_reaches_cap_region(self):
        buf = buffer(make_harmonic(220, seconds=2.0) / 4)
        assert hnr(buf, estimate_f0(buf)) >= 30

    def test_monotone_in_noise(self):
        harm = make_harmonic(220, seconds=2.0)
        values = []
        for level in (0.05, 0.2, 0.8):
            sig = harm + level * make_noise(2.0, seed=8)
            buf = buffer(sig / np.abs(sig).max())
            values.append(hnr(buf, estimate_f0(buf)))
        assert values[0] > values[1] > values[2]

    def test_unvoiced_absent(self):
        buf = buffer(make_noise(2.0, seed=10) / 3)
        assert hnr(buf, estimate_f0(buf)) is None

    def test_stops_at_first_overrunning_frame(self):
        sig = make_harmonic(220, seconds=1.0) + 0.3 * make_noise(1.0, seed=16)
        buf = buffer(sig / np.abs(sig).max())

        def track(times):
            return PitchTrack(np.array(times), np.full(len(times), 220.0))

        # the 0.98 s frame runs past the end: frames after it are not used
        assert hnr(buf, track([0.0, 0.98, 0.1])) == hnr(buf, track([0.0]))
        assert hnr(buf, track([0.98, 0.0])) is None


class TestCpp:
    def test_pulse_train_beats_noise(self):
        t_len = SR * 2
        pulse = np.zeros(t_len)
        pulse[:: SR // 100] = 1.0
        pulse /= np.sqrt(np.mean(pulse**2))
        noise = make_noise(2.0, seed=12)
        assert cpp(buffer(pulse)) - cpp(buffer(noise)) >= 5

    def test_dc_signal_absent(self):
        assert cpp(buffer(np.ones(SR * 2))) is None

    def test_dc_offset_over_many_frames_absent(self):
        assert cpp(buffer(np.full(SR * 5, 0.37))) is None

    def test_all_zero_absent(self):
        # the gate scales with max|x|, so zeros must not reach the dB of a zero spectrum
        assert cpp(buffer(np.zeros(SR * 2))) is None


class TestJitterShimmer:
    def test_jitter_hand_example(self):
        seq = PeriodSequence(
            np.array([4.5, 5.0, 4.5, 5.0, 4.5]) / 1000, np.ones(5)
        )
        assert jitter(seq) == pytest.approx(0.5 / 4.7, abs=1e-9)

    def test_jitter_constant_periods(self):
        seq = PeriodSequence(np.full(10, 0.01), np.ones(10))
        assert jitter(seq) == 0.0

    def test_shimmer_hand_example(self):
        seq = PeriodSequence(np.full(4, 0.01), np.array([1.0, 0.8, 1.0, 0.8]))
        assert shimmer(seq) == pytest.approx(0.2 / 0.9, abs=1e-9)

    def test_shimmer_constant_amplitudes(self):
        seq = PeriodSequence(np.full(6, 0.01), np.full(6, 0.5))
        assert shimmer(seq) == 0.0

    def test_too_few_periods(self):
        seq = PeriodSequence(np.array([0.01]), np.array([1.0]))
        with pytest.raises(ValueError):
            jitter(seq)
        with pytest.raises(ValueError):
            shimmer(seq)

    def test_zero_mean_amplitude(self):
        seq = PeriodSequence(np.array([0.01, 0.01]), np.zeros(2))
        with pytest.raises(ValueError):
            shimmer(seq)

    def test_oracle_identity_randomized(self):
        rng = np.random.RandomState(42)
        for _ in range(100):
            n = rng.randint(2, 200)
            periods = rng.uniform(0.002, 0.02, size=n)
            amps = rng.uniform(0.1, 2.0, size=n)
            seq = PeriodSequence(periods, amps)
            assert abs(jitter(seq) - direct_jitter(periods)) < 1e-9
            assert abs(shimmer(seq) - direct_shimmer(amps)) < 1e-9

    def test_scale_invariance(self):
        rng = np.random.RandomState(3)
        periods = rng.uniform(0.005, 0.015, size=50)
        amps = rng.uniform(0.5, 1.5, size=50)
        seq = PeriodSequence(periods, amps)
        scaled = PeriodSequence(periods * 3.7, amps * 0.21)
        assert jitter(scaled) == pytest.approx(jitter(seq), abs=1e-12)
        assert shimmer(scaled) == pytest.approx(shimmer(seq), abs=1e-12)

    def test_injected_jitter_recovered(self):
        sig, true_periods = jittered_tone(100, 0.01, 3.0)
        buf = buffer(sig)
        seq = extract_periods(buf, estimate_f0(buf))
        injected = direct_jitter(true_periods)
        assert jitter(seq) == pytest.approx(injected, abs=0.003)


class TestVoiceReport:
    def test_voiced_fixture_all_present(self):
        sig = make_harmonic(220, seconds=2.0) + 0.05 * make_noise(2.0, seed=14)
        metrics = voice_report(buffer(sig / np.abs(sig).max()))
        assert metrics.hnr_db is not None
        assert metrics.cpp is not None
        assert metrics.jitter is not None
        assert metrics.shimmer is not None
        assert metrics.voiced_fraction > 0.5

    def test_silence_absent_metrics(self):
        metrics = voice_report(buffer(np.zeros(SR * 2)))
        assert metrics.hnr_db is None
        assert metrics.cpp is None
        assert metrics.jitter is None
        assert metrics.shimmer is None

    def test_deterministic(self):
        sig = make_harmonic(220, seconds=2.0)
        a = voice_report(buffer(sig / 4))
        b = voice_report(buffer(sig / 4))
        assert a == b

    def test_too_little_voicing_for_periods(self):
        # a 20 ms, 80 Hz burst voices two frames: enough for HNR, too few cycles for periods
        x = np.zeros(SR // 2)
        burst = make_tone(80, 0.02)
        start = int(0.2 * SR)
        x[start : start + len(burst)] = burst
        buf = buffer(x)
        track = estimate_f0(buf)
        assert np.count_nonzero(track.voiced_flags) == 2
        with pytest.raises(ValueError, match="insufficient voicing"):
            extract_periods(buf, track)
        metrics = voice_report(buf)
        assert metrics.jitter is None
        assert metrics.shimmer is None
        assert metrics.hnr_db == pytest.approx(-3.23, abs=0.01)


class TestRadarNormalize:
    def _metrics(self, h, c, j, s):
        return {"hnr_db": h, "cpp": c, "jitter": j, "shimmer": s, "voiced_fraction": 1.0}

    def test_single_pair_maps_to_extremes(self):
        pair = (self._metrics(3.06, 19.5, 0.0168, 0.131),
                self._metrics(8.43, 24.61, 0.0178, 0.122))
        out = radar_normalize([pair])[0]
        assert out["hnr_db"] == (0.0, 1.0)
        assert out["jitter"] == (0.0, 1.0)
        assert out["shimmer"] == (1.0, 0.0)

    def test_constant_axis_maps_to_half(self):
        pair = (self._metrics(5.0, 20.0, 0.02, 0.1), self._metrics(5.0, 22.0, 0.03, 0.2))
        out = radar_normalize([pair])[0]
        assert out["hnr_db"] == (0.5, 0.5)

    def test_multiple_pairs_bounded(self):
        rng = np.random.RandomState(5)
        pairs = [
            (self._metrics(*rng.uniform(0.1, 30, 4)), self._metrics(*rng.uniform(0.1, 30, 4)))
            for _ in range(4)
        ]
        for entry in radar_normalize(pairs):
            for lo, hi in entry.values():
                assert 0.0 <= lo <= 1.0
                assert 0.0 <= hi <= 1.0

    def test_absent_metric_rejected(self):
        pair = (self._metrics(None, 20.0, 0.02, 0.1), self._metrics(5.0, 22.0, 0.03, 0.2))
        with pytest.raises(ValueError):
            radar_normalize([pair])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            radar_normalize([])
