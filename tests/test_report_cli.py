import json
import socket

import numpy as np
import pytest

from detoxaudit import (
    StubEmbedder,
    StubSentimentClassifier,
    TrackBundle,
    build_comparison,
    emit_plot_data,
    load_report,
    run_pipeline,
    write_report,
)
from detoxaudit import report as report_module
from detoxaudit.cli import main
from detoxaudit.report import PLOT_KINDS, StageError
from conftest import make_harmonic, make_tone, write_wav


def bundles(fixture_pair, with_sections=False):
    sections = str(fixture_pair["sections"]) if with_sections else None
    orig = TrackBundle(
        str(fixture_pair["orig_stem"]), str(fixture_pair["orig_lyrics"]), "fixture", sections
    )
    trans = TrackBundle(
        str(fixture_pair["trans_stem"]), str(fixture_pair["trans_lyrics"]), "fixture", sections
    )
    return orig, trans


def run_offline(fixture_pair, **kwargs):
    orig, trans = bundles(fixture_pair, kwargs.pop("with_sections", False))
    return run_pipeline(
        orig, trans,
        classifier=StubSentimentClassifier(), embedder=StubEmbedder(), **kwargs,
    )


@pytest.fixture
def no_network(monkeypatch):
    """Any socket connection attempt fails the test."""

    def blocked(*args, **kwargs):
        raise AssertionError("network access attempted during offline run")

    monkeypatch.setattr(socket.socket, "connect", blocked)


class TestRunPipeline:
    def test_complete_report(self, fixture_pair, no_network):
        report = run_offline(fixture_pair, with_sections=True)
        for side in ("original", "transformed"):
            voice = report[side]["audio"]["voice"]
            assert voice["hnr_db"] is not None
            assert voice["cpp"] is not None
            assert voice["jitter"] is not None
            assert voice["shimmer"] is not None
            assert report[side]["lyrics"]["sentiment"]["per_line_mean"] is not None
            assert report[side]["audio"]["sections"]
        assert report["comparison"]["radar"] is not None
        assert report["similarity"]["per_line"]

    def test_missing_lyrics_names_stage(self, fixture_pair):
        orig, trans = bundles(fixture_pair)
        broken = TrackBundle(orig.vocal_stem, "/nonexistent/lyrics.txt", "fixture")
        with pytest.raises(StageError, match="lyric collection"):
            run_pipeline(
                broken, trans,
                classifier=StubSentimentClassifier(), embedder=StubEmbedder(),
            )

    def test_determinism_across_runs(self, fixture_pair, tmp_path):
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        run_offline(fixture_pair, out_path=p1)
        run_offline(fixture_pair, out_path=p2)
        r1, r2 = load_report(p1), load_report(p2)
        r1["provenance"].pop("created_at")
        r2["provenance"].pop("created_at")
        assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)

    def test_report_round_trip_byte_identical(self, fixture_pair, tmp_path):
        p1 = tmp_path / "a.json"
        report = run_offline(fixture_pair, out_path=p1)
        p2 = tmp_path / "b.json"
        write_report(load_report(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_embedding_is_a_stage_4_error(self, fixture_pair):
        class ZeroEmbedder:
            def embed(self, text):
                return np.zeros(3)

        orig, trans = bundles(fixture_pair)
        with pytest.raises(StageError, match="stage 4 .*zero-norm embedding"):
            run_pipeline(
                orig, trans, classifier=StubSentimentClassifier(), embedder=ZeroEmbedder(),
            )

    def test_requires_providers(self, fixture_pair):
        orig, trans = bundles(fixture_pair)
        with pytest.raises(ValueError):
            run_pipeline(orig, trans)

    def test_all_zero_stem_reports_zero_rms_and_no_metrics(self, fixture_pair):
        zero = str(write_wav(fixture_pair["tmp_path"] / "zero.wav", np.zeros(44100)))
        orig, trans = bundles(fixture_pair)
        report = run_pipeline(
            TrackBundle(zero, orig.lyrics, "fixture"), TrackBundle(zero, trans.lyrics, "fixture"),
            classifier=StubSentimentClassifier(), embedder=StubEmbedder(),
        )
        for side in ("original", "transformed"):
            audio = report[side]["audio"]
            assert audio["rms"] == audio["voice"]["rms"] == {"avg": 0.0, "max": 0.0, "min": 0.0}
            assert set(audio["waveform"]["rms"]) == {0.0}
            for name in ("hnr_db", "cpp", "jitter", "shimmer"):
                assert audio["voice"][name] is None
        assert report["comparison"]["radar"] is None

    def test_identical_lyrics_similarity_one(self, fixture_pair):
        orig, trans = bundles(fixture_pair)
        same = TrackBundle(trans.vocal_stem, orig.lyrics, "fixture")
        report = run_pipeline(
            orig, same,
            classifier=StubSentimentClassifier(), embedder=StubEmbedder(),
        )
        assert np.allclose(report["similarity"]["per_line"], 1.0, atol=1e-9)


class TestBuildComparison:
    def _side(self, artist, hnr, cpp, jit, shim, mean):
        return {
            "artist_id": artist,
            "audio": {"voice": {"hnr_db": hnr, "cpp": cpp, "jitter": jit, "shimmer": shim}},
            "lyrics": {"sentiment": {"per_line_mean": mean}},
        }

    def test_hnr_delta(self):
        out = build_comparison(
            self._side("kw", 3.06, 19.50, 0.0168, 0.131, 0.938),
            self._side("kw", 8.43, 24.61, 0.0178, 0.122, 0.344),
        )
        assert out["voice_deltas"]["hnr_db"] == pytest.approx(5.37)
        assert out["sentiment_percent_decrease"] == pytest.approx(63.3, abs=0.1)

    def test_identical_metrics_zero_deltas(self):
        side = self._side("x", 5.0, 20.0, 0.02, 0.1, 0.5)
        out = build_comparison(side, json.loads(json.dumps(side)))
        assert all(v == 0 for v in out["voice_deltas"].values())

    def test_artist_mismatch_rejected(self):
        with pytest.raises(ValueError, match="artist mismatch"):
            build_comparison(
                self._side("a", 1, 1, 1, 1, 0.5), self._side("b", 1, 1, 1, 1, 0.5)
            )

    def test_absent_metric_carried_as_none(self):
        out = build_comparison(
            self._side("x", None, 20.0, 0.02, 0.1, 0.5),
            self._side("x", 5.0, 21.0, 0.02, 0.1, 0.4),
        )
        assert out["voice_deltas"]["hnr_db"] is None
        assert out["radar"] is None


class TestEmitPlotData:
    @pytest.fixture
    def report(self, fixture_pair):
        return run_offline(fixture_pair, with_sections=True)

    @pytest.mark.parametrize("kind", PLOT_KINDS)
    def test_all_kinds_emit(self, report, tmp_path, kind):
        out = emit_plot_data(report, kind, tmp_path / f"{kind}.csv")
        lines = out.read_text().strip().splitlines()
        assert len(lines) >= 2  # header + data

    def test_radar_values_in_unit_range(self, report, tmp_path):
        out = emit_plot_data(report, "radar", tmp_path / "radar.csv")
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 4
        for row in rows:
            _, orig, trans = row.split(",")
            assert 0.0 <= float(orig) <= 1.0
            assert 0.0 <= float(trans) <= 1.0

    def test_similarity_rolling_length(self, report, tmp_path):
        out = emit_plot_data(report, "similarity", tmp_path / "sim.csv")
        rows = out.read_text().strip().splitlines()[1:]
        window = report["similarity"]["window"]
        n = len(report["similarity"]["per_line"])
        with_roll = [r for r in rows if r.split(",")[2] != ""]
        assert len(rows) == n
        assert len(with_roll) == max(n - window + 1, 0)

    def test_ngram_top_k_limit(self, report, tmp_path):
        out = emit_plot_data(report, "ngram", tmp_path / "ngram.csv")
        rows = out.read_text().strip().splitlines()[1:]
        assert all(int(r.rsplit(",", 1)[1]) >= 1 for r in rows)

    def test_values_come_from_report(self, report, tmp_path):
        out = emit_plot_data(report, "waveform", tmp_path / "wf.csv")
        first = out.read_text().strip().splitlines()[1].split(",")
        assert float(first[2]) == report["original"]["audio"]["waveform"]["rms"][0]

    def test_unknown_kind_rejected(self, report, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot_data(report, "histogram", tmp_path / "x.csv")


class TestCli:
    def test_analyze_audio(self, voiced_wav, capsys):
        assert main(["analyze-audio", str(voiced_wav)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["hnr_db"] is not None

    def test_analyze_audio_percent_scales_jitter_and_shimmer(self, voiced_wav, capsys):
        assert main(["analyze-audio", str(voiced_wav)]) == 0
        fraction = json.loads(capsys.readouterr().out)
        assert main(["analyze-audio", str(voiced_wav), "--percent"]) == 0
        percent = json.loads(capsys.readouterr().out)
        for key in ("jitter", "shimmer"):
            assert percent[key] == pytest.approx(100 * fraction[key])
        assert percent["hnr_db"] == fraction["hnr_db"]

    def test_analyze_lyrics_offline(self, fixture_pair, capsys):
        code = main(["analyze-lyrics", str(fixture_pair["orig_lyrics"]), "--offline"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["line_count"] == 5

    def test_analyze_audio_sections_match_compare(self, fixture_pair, capsys):
        code = main([
            "analyze-audio", str(fixture_pair["orig_stem"]),
            "--sections", str(fixture_pair["sections"]),
        ])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        audio = json.loads(json.dumps(run_offline(fixture_pair, with_sections=True)))[
            "original"]["audio"]
        assert out.pop("sections") == audio["sections"]
        assert out == audio["voice"]

    def test_analyze_lyrics_matches_compare(self, fixture_pair, capsys):
        code = main(["analyze-lyrics", str(fixture_pair["orig_lyrics"]), "--offline"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        lyrics = json.loads(json.dumps(run_offline(fixture_pair)))["original"]["lyrics"]
        assert out == {k: lyrics[k] for k in ("line_count", "sentiment", "ngrams")}

    def test_analyze_audio_nan_sample_exit_code_1(self, tmp_path, capsys):
        samples = make_harmonic(220)
        samples[1000] = np.nan
        path = write_wav(tmp_path / "nan.wav", samples)
        assert main(["analyze-audio", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "stage 2 (audio load)" in captured.err and "non-finite" in captured.err

    def test_stem_too_short_for_the_highpass_exit_code_1(self, tmp_path, capsys):
        # 20 samples at 44.1 kHz are 10 at the 22.05 kHz target rate
        path = write_wav(tmp_path / "blip.wav", make_tone(440, 20 / 44100, sr=44100), sr=44100)
        assert main(["analyze-audio", str(path)]) == 1
        err = capsys.readouterr().err
        assert "stage 3 (preprocessing)" in err
        assert "10 samples too short for the high-pass: it needs at least 16" in err

    def test_empty_preprocessed_stem_exit_code_1(self, tmp_path, voiced_wav, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_duration": 0.0}))
        assert main(["analyze-audio", str(voiced_wav), "--config", str(cfg_path)]) == 1
        assert "stage 3 (preprocessing)" in capsys.readouterr().err

    def test_nan_noise_profile_window_exit_code_1(self, tmp_path, voiced_wav, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text('{"noise_profile_window": NaN}')  # json.loads takes a bare NaN
        assert main(["analyze-audio", str(voiced_wav), "--config", str(cfg_path)]) == 1
        assert "noise_profile_window" in capsys.readouterr().err

    def test_negative_max_seconds_exit_code_1(self, voiced_wav, capsys):
        assert main(["analyze-audio", str(voiced_wav), "--max-seconds", "-1"]) == 1
        assert "max_duration must be finite and >= 0" in capsys.readouterr().err

    def test_compare_stem_shorter_than_one_frame(self, fixture_pair, capsys):
        # 70 ms at 22.05 kHz: 1543 samples, under one 2048-sample spectrogram frame
        short = write_wav(fixture_pair["tmp_path"] / "short.wav", 0.5 * make_harmonic(220, seconds=0.07))
        assert main(["analyze-audio", str(short)]) == 0
        voice = json.loads(capsys.readouterr().out)
        out_path = fixture_pair["tmp_path"] / "report.json"
        code = main([
            "compare",
            "--original-stem", str(short),
            "--original-lyrics", str(fixture_pair["orig_lyrics"]),
            "--transformed-stem", str(fixture_pair["trans_stem"]),
            "--transformed-lyrics", str(fixture_pair["trans_lyrics"]),
            "--out", str(out_path),
            "--offline",
            "--emit", "spectrogram,waveform",
        ])
        assert code == 0
        audio = load_report(out_path)["original"]["audio"]
        assert audio["voice"] == voice
        assert audio["spectrogram"]["times"] == audio["spectrogram"]["db"] == []
        assert audio["spectrogram"]["frequencies"]
        assert len(audio["waveform"]["rms"]) == 1

    @pytest.mark.parametrize("flag", ["--target-rate", "--max-seconds"])
    def test_zero_preprocessing_flag_exit_code_1(self, voiced_wav, capsys, flag):
        assert main(["analyze-audio", str(voiced_wav), flag, "0"]) == 1
        assert "stage 3 (preprocessing)" in capsys.readouterr().err

    def test_unknown_config_key_exit_code_1(self, tmp_path, voiced_wav, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"target_rte": 16000}))
        assert main(["analyze-audio", str(voiced_wav), "--config", str(cfg_path)]) == 1
        assert "target_rte" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, want",
        [
            ("denoise", "no", "bool"),
            ("denoise", 1, "bool"),
            ("max_duration", None, "float"),
            ("highpass_cutoff", True, "float"),
            ("target_rate", "16000", "int"),
            ("target_rate", True, "int"),
            ("target_rate", 16000.0, "int"),
            ("noise_profile_mode", 5, "str"),
        ],
    )
    def test_config_value_of_wrong_type_exit_code_1(
        self, tmp_path, voiced_wav, capsys, key, value, want
    ):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: value}))
        assert main(["analyze-audio", str(voiced_wav), "--config", str(cfg_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        message = f"config key {key}: expected {want}, got {json.dumps(value)}"
        assert captured.err == f"error: {message}\n"

    def test_config_float_field_takes_an_integer(self, tmp_path, voiced_wav, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"max_duration": 1, "highpass_cutoff": 80}))
        assert main(["analyze-audio", str(voiced_wav), "--config", str(cfg_path)]) == 0

    @pytest.mark.parametrize(
        "content", ["[1, 2]", "null", '"abc"', None, "{"],
        ids=["list", "null", "string", "missing", "bad-json"],
    )
    @pytest.mark.parametrize("via", ["--config", "DETOX_CONFIG"])
    def test_config_not_a_readable_object_exit_code_1(
        self, tmp_path, voiced_wav, monkeypatch, capsys, content, via
    ):
        cfg_path = tmp_path / "cfg.json"
        if content is not None:
            cfg_path.write_text(content)
        argv = ["analyze-audio", str(voiced_wav)]
        if via == "--config":
            argv += ["--config", str(cfg_path)]
        else:
            monkeypatch.setenv("DETOX_CONFIG", str(cfg_path))
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg_path) in err

    def test_compare_offline_with_emit(self, fixture_pair, capsys):
        out_path = fixture_pair["tmp_path"] / "report.json"
        code = main([
            "compare",
            "--original-stem", str(fixture_pair["orig_stem"]),
            "--original-lyrics", str(fixture_pair["orig_lyrics"]),
            "--transformed-stem", str(fixture_pair["trans_stem"]),
            "--transformed-lyrics", str(fixture_pair["trans_lyrics"]),
            "--artist", "fixture",
            "--out", str(out_path),
            "--offline",
            "--emit", "radar,similarity",
        ])
        assert code == 0
        assert out_path.exists()
        assert (fixture_pair["tmp_path"] / "fixture_radar.csv").exists()
        assert (fixture_pair["tmp_path"] / "fixture_similarity.csv").exists()

    @pytest.mark.parametrize("emit", ["radar,radr", "radar,", "histogram"])
    def test_bad_emit_kind_fails_before_analysis(self, fixture_pair, capsys, emit):
        tmp = fixture_pair["tmp_path"]
        code = main([
            "compare",
            "--original-stem", str(fixture_pair["orig_stem"]),
            "--original-lyrics", str(fixture_pair["orig_lyrics"]),
            "--transformed-stem", str(fixture_pair["trans_stem"]),
            "--transformed-lyrics", str(fixture_pair["trans_lyrics"]),
            "--artist", "fixture",
            "--out", str(tmp / "report.json"),
            "--offline",
            "--emit", emit,
        ])
        assert code == 1
        bad = emit.split(",")[-1]
        assert f"unknown plot kind: {bad!r}" in capsys.readouterr().err
        assert not (tmp / "report.json").exists()
        assert list(tmp.glob("*.csv")) == []

    @pytest.mark.parametrize("artist", ["../escaped", "sub/name", ".", ".."])
    def test_artist_that_is_not_a_file_name_fails_before_analysis(
        self, fixture_pair, monkeypatch, capsys, artist
    ):
        def refuse(path):
            raise AssertionError("audio loaded before the --artist check")

        monkeypatch.setattr(report_module, "load_track", refuse)
        tmp = fixture_pair["tmp_path"]
        code = main([
            "compare",
            "--original-stem", str(fixture_pair["orig_stem"]),
            "--original-lyrics", str(fixture_pair["orig_lyrics"]),
            "--transformed-stem", str(fixture_pair["trans_stem"]),
            "--transformed-lyrics", str(fixture_pair["trans_lyrics"]),
            "--artist", artist,
            "--out", str(tmp / "out" / "report.json"),
            "--offline",
            "--emit", "radar",
        ])
        assert code == 1
        assert f"--artist must be a plain file name, got {artist!r}" in capsys.readouterr().err
        assert not (tmp / "out").exists()
        assert list(tmp.rglob("*.csv")) == []

    def test_missing_input_exit_code_1(self, fixture_pair, capsys):
        code = main([
            "compare",
            "--original-stem", "/does/not/exist.wav",
            "--original-lyrics", str(fixture_pair["orig_lyrics"]),
            "--transformed-stem", str(fixture_pair["trans_stem"]),
            "--transformed-lyrics", str(fixture_pair["trans_lyrics"]),
            "--offline",
        ])
        assert code == 1

    def compare_argv(self, fixture_pair, **paths):
        argv = ["compare", "--offline"]
        for key in ("orig_stem", "orig_lyrics", "trans_stem", "trans_lyrics", "sections"):
            flag = key.replace("orig_", "original-").replace("trans_", "transformed-")
            argv += [f"--{flag}", str(paths.get(key, fixture_pair[key]))]
        return argv

    def latin1_lyrics(self, fixture_pair):
        path = fixture_pair["tmp_path"] / "latin1.txt"
        path.write_bytes("caf\u00e9 at night\n".encode("latin-1"))
        return path

    def assert_input_error(self, capsys, stage, path):
        err = capsys.readouterr().err
        assert err.startswith(f"error: [{stage}] ") and str(path) in err, err

    def test_lyrics_not_utf8_is_a_stage_1_error_naming_the_file(self, fixture_pair, capsys):
        bad = self.latin1_lyrics(fixture_pair)
        assert main(["analyze-lyrics", str(bad), "--offline"]) == 1
        self.assert_input_error(capsys, "stage 1 (lyric collection)", bad)
        assert main(self.compare_argv(fixture_pair, trans_lyrics=bad)) == 1
        self.assert_input_error(capsys, "stage 1 (lyric collection)", bad)

    def test_rewrite_names_a_lyrics_file_that_is_not_utf8(self, fixture_pair, capsys):
        bad = self.latin1_lyrics(fixture_pair)
        assert main(["rewrite", str(bad), "--offline"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(bad) in err, err

    @pytest.mark.parametrize(
        "text", ["chorus 0:00 0:10\n", "chorus\t0:00\t1:-30\n", "intro\t0:02\t0:01\n", "# no sections\n"]
    )
    def test_bad_sidecar_is_a_stage_1_error_naming_the_file(self, fixture_pair, voiced_wav, capsys, text):
        bad = fixture_pair["tmp_path"] / "bad.tsv"
        bad.write_text(text, encoding="utf-8")
        assert main(["analyze-audio", str(voiced_wav), "--sections", str(bad)]) == 1
        self.assert_input_error(capsys, "stage 1 (audio collection)", bad)
        assert main(self.compare_argv(fixture_pair, sections=bad)) == 1
        self.assert_input_error(capsys, "stage 1 (audio collection)", bad)

    def test_missing_sidecar_is_a_stage_1_error(self, voiced_wav, tmp_path, capsys):
        missing = tmp_path / "missing.tsv"
        assert main(["analyze-audio", str(voiced_wav), "--sections", str(missing)]) == 1
        self.assert_input_error(capsys, "stage 1 (audio collection)", missing)

    def test_provider_error_exit_code_2(self, fixture_pair, monkeypatch, capsys):
        monkeypatch.setenv("DETOX_SENTIMENT_URL", "http://127.0.0.1:9/")
        monkeypatch.setenv("DETOX_EMBED_URL", "http://127.0.0.1:9/")
        code = main(["analyze-lyrics", str(fixture_pair["orig_lyrics"])])
        assert code == 2

    @pytest.mark.parametrize("target", [
        "detoxaudit.report.load_track", "detoxaudit.report.preprocess", "detoxaudit.voice.hnr",
    ])
    def test_bug_in_a_stage_exit_code_3(self, voiced_wav, monkeypatch, capsys, target):
        def broken(*args):
            raise IndexError("index 7 is out of bounds")

        monkeypatch.setattr(target, broken)
        assert main(["analyze-audio", str(voiced_wav)]) == 3
        assert capsys.readouterr().err == "internal error: index 7 is out of bounds\n"

    def test_rewrite_offline(self, fixture_pair, capsys):
        assert main(["rewrite", str(fixture_pair["orig_lyrics"]), "--offline"]) == 0
        out = capsys.readouterr().out
        assert "hate" not in out

    def test_config_file_and_flag_override(self, fixture_pair, voiced_wav, capsys):
        cfg_path = fixture_pair["tmp_path"] / "cfg.json"
        cfg_path.write_text(json.dumps({"target_rate": 16000, "max_duration": 2.0}))
        code = main([
            "analyze-audio", str(voiced_wav),
            "--config", str(cfg_path), "--target-rate", "22050", "--no-denoise",
        ])
        assert code == 0
        json.loads(capsys.readouterr().out)
