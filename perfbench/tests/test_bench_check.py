"""The output check, the span self times, and the metric map."""

import json
from pathlib import Path

import check
import spans

ROOT = Path(__file__).resolve().parents[2]


def test_numbers_match_within_the_stated_tolerance():
    assert check.diff({"x": 1.0, "n": 3}, {"x": 1.0 + 5e-10, "n": 3.0}) == []
    assert check.diff([0.0], [5e-13]) == []
    (problem,) = check.diff({"x": [1.0, 2.0]}, {"x": [1.0, 2.0 * (1 + 1e-8)]})
    assert problem.startswith("$.x[1]:")


def test_everything_else_matches_exactly():
    assert check.diff({"a": None}, {"a": 0.0})
    assert check.diff({"a": True}, {"a": 1})
    assert check.diff({"a": "x"}, {"a": "y"})
    assert check.diff({"a": 1}, {"a": 1, "b": 2})
    assert check.diff([1, 2], [1, 2, 3])
    assert check.diff({"a": [1]}, {"a": {"0": 1}})


def test_report_body_drops_only_the_creation_time():
    rep = {"provenance": {"created_at": "2026-01-01T00:00:00Z", "config_hash": "ab"}, "v": 1}
    assert check.report_body(rep) == {"provenance": {"config_hash": "ab"}, "v": 1}
    assert rep["provenance"]["created_at"]


def _write_item(d: Path, hnr: float, db: str) -> None:
    d.mkdir()
    voice = {"hnr_db": hnr, "cpp": 1.0, "jitter": 0.01, "shimmer": 0.05}
    rep = {
        "original": {"audio": {"voice": voice}},
        "transformed": {"audio": {"voice": voice}},
        "comparison": {"radar": {"cpp": [0.5, 0.5]}},
        "provenance": {"created_at": str(d)},
    }
    (d / "report.json").write_text(json.dumps(rep))
    (d / "spectrogram.csv").write_text(f"track,time_sec,freq_hz,db\noriginal,0.0,10.77,{db}\n")


def test_audio_item_check_finds_report_and_csv_mismatches(tmp_path):
    _write_item(tmp_path / "ref", 1.5, "-40.25")
    _write_item(tmp_path / "same", 1.5, "-40.25")
    _write_item(tmp_path / "other", 1.6, "-40.26")
    assert check.check_audio_item(tmp_path / "same", tmp_path / "ref", ["spectrogram"]) == []
    problems = check.check_audio_item(tmp_path / "other", tmp_path / "ref", ["spectrogram"])
    assert [p.split(":")[0] for p in problems] == [
        "report.original.audio.voice.hnr_db",
        "report.transformed.audio.voice.hnr_db",
        "spectrogram[1][3]",
    ]


def test_absent_voice_metrics_are_flagged(tmp_path):
    _write_item(tmp_path / "item", 1.5, "0")
    rep = json.loads((tmp_path / "item" / "report.json").read_text())
    assert check.all_voice_metrics(rep) == []
    rep["transformed"]["audio"]["voice"]["jitter"] = None
    rep["comparison"]["radar"] = None
    assert check.all_voice_metrics(rep) == [
        "transformed.voice.jitter is None", "comparison.radar is None"]


def test_self_time_subtracts_the_children_union():
    s = [
        spans.Span(1, None, "root", 0.0, 10.0, 1),
        spans.Span(2, 1, "a", 1.0, 4.0, 1),
        spans.Span(3, 1, "b", 3.0, 5.0, 1),  # overlaps a, as pool threads do
        spans.Span(4, 2, "c", 1.0, 2.0, 1),
    ]
    assert spans.self_times(s) == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}


def test_tracer_nests_spans_and_attaches_orphans_to_the_root():
    tr = spans.Tracer()
    with tr.trace_root(3) as root:
        with tr.span("outer") as outer:
            with tr.span("inner"):
                pass
    by_name = {s.name: s for s in tr.spans}
    assert by_name["inner"].parent == outer
    assert by_name["outer"].parent == root
    assert {s.trace for s in tr.spans} == {3}


def test_layer_map_covers_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((ROOT / "perfbench" / "layer_map.json").read_text())
    names = [m["name"] for m in bench["per_layer"]]
    assert sorted(layer_map["per_layer"]) == sorted(names)
    assert set(layer_map["exact_counts"]) <= set(names)
    e2e = {m["name"] for m in bench["end_to_end"]}
    workloads = {w["name"] for w in bench["workloads"]}
    for entry in layer_map["per_layer"].values():
        assert set(entry["moves"]) <= e2e
        assert set(entry["on"]) | set(entry["still_on"]) <= workloads
