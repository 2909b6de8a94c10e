import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detoxaudit import RmsSeries, SectionMap, frame_rms, rms_stats, slice_sections, stft
from detoxaudit.audio_io import BLOCK_FRAMES, _frames
from detoxaudit.dsp import load_section_map
from conftest import SR, buffer, make_tone


class TestStft:
    def test_tone_argmax_bin(self):
        # analytic bin: round(1000 * 2048 / 22050) = 93
        spec = stft(buffer(make_tone(1000, 2.0)), 2048, 512)
        assert np.all(spec.magnitudes.argmax(axis=1) == 93)

    def test_dc_signal_peaks_at_bin_zero(self):
        spec = stft(buffer(np.full(SR, 0.5)), 2048, 512)
        assert np.all(spec.magnitudes.argmax(axis=1) == 0)

    def test_zero_buffer(self):
        spec = stft(buffer(np.zeros(4096)), 2048, 512)
        assert not np.any(spec.magnitudes)

    def test_shape(self):
        spec = stft(buffer(make_tone(440, 1.0)), 2048, 512)
        assert spec.magnitudes.shape[1] == 2048 // 2 + 1
        assert np.all(np.diff(spec.frame_times) > 0)

    def test_too_short_buffer(self):
        with pytest.raises(ValueError):
            stft(buffer(np.zeros(100)), 2048, 512)

    def test_hop_larger_than_frame_rejected(self):
        with pytest.raises(ValueError):
            stft(buffer(np.zeros(8192)), 2048, 4096)

    @pytest.mark.parametrize("hop", [0, -512])
    def test_hop_below_one_rejected(self, hop):
        with pytest.raises(ValueError, match="hop must be >= 1"):
            stft(buffer(make_tone(440, 1.0)), 2048, hop)

    def test_parseval_rectangular(self):
        # non-overlapping rectangular frames: spectral energy == time energy
        x = np.random.RandomState(2).standard_normal(2048 * 8)
        spec = stft(buffer(x), 2048, 2048, window="rectangular")
        mags = spec.magnitudes
        weights = np.full(mags.shape[1], 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        spectral = np.sum(mags**2 * weights) / 2048
        time_energy = np.sum(x**2)
        assert spectral == pytest.approx(time_energy, rel=0.01)

    @pytest.mark.parametrize("window", ["hamming", "Hann", "boxcar"])
    def test_unknown_window_rejected(self, window):
        with pytest.raises(ValueError, match="window must be one of 'hann', 'rectangular'"):
            stft(buffer(make_tone(440, 1.0)), 2048, 512, window=window)

    def test_db_floor(self):
        spec = stft(buffer(np.zeros(4096)), 2048, 512)
        assert np.all(spec.to_db() == -100.0)


class TestFrameRms:
    def test_constant_signal(self):
        series = frame_rms(buffer(np.full(SR, 0.5)))
        assert np.allclose(series.values, 0.5)

    def test_alternating_unit(self):
        x = np.tile([1.0, -1.0], SR // 2)
        series = frame_rms(buffer(x))
        assert np.allclose(series.values, 1.0)

    def test_zeros(self):
        series = frame_rms(buffer(np.zeros(SR)))
        assert not np.any(series.values)

    def test_empty_buffer(self):
        with pytest.raises(ValueError):
            frame_rms(buffer(np.zeros(0)))

    @pytest.mark.parametrize("hop", [0, -512])
    def test_hop_below_one_rejected(self, hop):
        with pytest.raises(ValueError, match="hop must be >= 1"):
            frame_rms(buffer(make_tone(440, 1.0)), 2048, hop)


# one frame, two whole blocks, one frame more, and four blocks plus one
@pytest.mark.parametrize(
    "n_frames", (1, 2 * BLOCK_FRAMES, 2 * BLOCK_FRAMES + 1, 4 * BLOCK_FRAMES + 1)
)
@settings(max_examples=20, deadline=None, database=None)
@given(data=st.data())
def test_blocked_frame_rms_equals_whole_track(n_frames, data):
    """Bit for bit, whatever the framing, including hops that skip samples."""
    frame_length = data.draw(st.integers(1, 4096))
    hop = data.draw(st.integers(1, 2 * frame_length))
    n = frame_length + hop * (n_frames - 1) + data.draw(st.integers(0, hop - 1))
    rng = np.random.RandomState(data.draw(st.integers(0, 2**31 - 1)))
    x = rng.standard_normal(n) * data.draw(st.floats(1e-6, 1e3))
    frames = _frames(x, frame_length, hop)
    assert len(frames) == n_frames
    series = frame_rms(buffer(x), frame_length, hop)
    np.testing.assert_array_equal(series.values, np.sqrt((frames**2).mean(axis=1)))
    np.testing.assert_array_equal(series.frame_times, np.arange(n_frames) * hop / SR)


class TestRmsStats:
    def test_two_values(self):
        series = RmsSeries(np.array([0.1, 0.3]), np.array([0.0, 1.0]))
        stats = rms_stats(series)
        assert stats == {"avg": pytest.approx(0.2), "max": 0.3, "min": 0.1}

    def test_single_value(self):
        series = frame_rms(buffer(np.full(2048, 0.4)))
        stats = rms_stats(series)
        assert stats["avg"] == stats["max"] == stats["min"] == pytest.approx(0.4)

    def test_ordering_invariant(self):
        series = frame_rms(buffer(make_tone(100, 1.0)))
        stats = rms_stats(series)
        assert stats["min"] <= stats["avg"] <= stats["max"]


class TestSections:
    def test_single_chorus_slice(self):
        buf = buffer(np.zeros(SR * 90))
        pieces = slice_sections(buf, SectionMap((("chorus", 51.0, 76.0),)))
        assert len(pieces) == 1
        label, piece = pieces[0]
        assert label == "chorus"
        assert len(piece.samples) == 25 * SR

    def test_entry_past_end_clipped_with_warning(self):
        buf = buffer(np.zeros(SR * 10))
        with pytest.warns(UserWarning, match="clipping"):
            pieces = slice_sections(buf, SectionMap((("outro", 5.0, 20.0),)))
        assert len(pieces[0][1].samples) == 5 * SR

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            slice_sections(buffer(np.zeros(SR)), SectionMap(()))

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            SectionMap((("solo", 0.0, 1.0),))

    def test_inverted_entry_rejected(self):
        with pytest.raises(ValueError):
            SectionMap((("verse", 5.0, 2.0),))

    @pytest.mark.parametrize(
        "start, end",
        [(-1.0, 2.0), (float("nan"), 2.0), (0.0, float("nan")), (0.0, float("inf")),
         (float("-inf"), 2.0)],
    )
    def test_negative_or_non_finite_bound_rejected(self, start, end):
        with pytest.raises(ValueError, match="section intro"):
            SectionMap((("intro", start, end),))

    def test_sidecar_negative_start_rejected(self, tmp_path):
        path = tmp_path / "negative.tsv"
        path.write_text("intro\t-1\t0:02\n")
        with pytest.raises(ValueError, match="section intro: need 0 <= start"):
            load_section_map(path)

    def test_durations_bounded_by_source(self):
        buf = buffer(np.zeros(SR * 30))
        section_map = SectionMap((("verse", 0.0, 10.0), ("chorus", 10.0, 25.0)))
        pieces = slice_sections(buf, section_map)
        total = sum(len(p.samples) for _, p in pieces)
        assert total <= len(buf.samples)

    def test_sidecar_parsing(self, tmp_path):
        path = tmp_path / "sections.tsv"
        path.write_text("# comment\nverse\t0:05\t0:51\nchorus\t0:51\t1:16\n")
        section_map = load_section_map(path)
        assert section_map.entries == (("verse", 5.0, 51.0), ("chorus", 51.0, 76.0))

    def test_sidecar_bad_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("chorus 0:00 0:10\n")
        with pytest.raises(ValueError):
            load_section_map(path)

    @pytest.mark.parametrize("stamp", ["1:-30", "0:75", "0:60", "-1:00", "0.5:00", "1:2:03", "0:nan", "a:00"])
    def test_sidecar_malformed_mm_ss_rejected(self, tmp_path, stamp):
        path = tmp_path / "bad.tsv"
        path.write_text(f"chorus\t0:00\t{stamp}\n")
        with pytest.raises(ValueError, match=re.escape(f"bad section line in {path}: 'chorus\\t0:00\\t{stamp}'")):
            load_section_map(path)

    def test_sidecar_mm_ss_bounds(self, tmp_path):
        path = tmp_path / "sections.tsv"
        path.write_text("verse\t0:00\t0:59.5\nchorus\t0:59.5\t75\n")
        assert load_section_map(path).entries == (("verse", 0.0, 59.5), ("chorus", 59.5, 75.0))
