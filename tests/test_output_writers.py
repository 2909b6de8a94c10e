"""The report JSON encoder and the plot-data CSV writers against their references.

report_json must equal json.dumps(sort_keys=True, indent=1, allow_nan=False)
byte for byte, and the waveform and spectrogram writers must equal the
cell-by-cell oracles in csv_oracles.py. Both hold for plain lists and for
the spectrogram rows that _plot_data renders from its table of cells.
"""

import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detoxaudit import (
    StubEmbedder,
    StubSentimentClassifier,
    TrackBundle,
    emit_plot_data,
    load_report,
    run_pipeline,
    write_report,
)
from detoxaudit.audio_io import AudioBuffer
from detoxaudit.cli import main
from detoxaudit.report import SPECTROGRAM_CSV_ROWS, _plot_data, _rendered, report_json
from conftest import make_harmonic, make_noise, mode_of, plain_write_mode, write_wav
from csv_oracles import ORACLES

EDGE_FLOATS = [0.0, -0.0, 1e-05, 1e16, 5e-324, -100.0, 0.1, 1.7976931348623157e308]
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EDGE_FLOATS)
keys = st.text(max_size=6) | st.sampled_from(
    ["", "\x00", "\n\t\"\\", "é", "日本", "\U0001f600", "\ud800", "\x7f"]
)
scalars = st.none() | st.booleans() | st.integers() | finite_floats | keys
# what _plot_data's dB rows hold: hundredths on and off its table, -0.0, the floor
db_values = (
    finite_floats
    | st.sampled_from([-0.0, -100.0, 60.21, 60.22, -100.01, 1e-05])
    | st.floats(-100.0, 60.21).map(lambda v: round(v, 2))
)


@st.composite
def rendered_rows(draw, n_bins=st.integers(0, 4)):
    """Rows as _plot_data builds them (through _rendered), from 0 to 3 frames."""
    n_t, n_f = draw(st.integers(0, 3)), draw(n_bins)
    cells = draw(st.lists(db_values, min_size=n_t * n_f, max_size=n_t * n_f))
    return _rendered(np.array(cells, dtype=float).reshape(n_t, n_f))


def _containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
        | st.lists(finite_floats, min_size=1, max_size=6)
        | st.lists(finite_floats | st.integers(), min_size=1, max_size=6)
        | rendered_rows()
    )


json_trees = st.recursive(scalars, _containers, max_leaves=20)
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])


def _hide(children):
    """Put a tree holding a bad leaf into a list, a float list or a dict."""
    return (
        st.builds(
            lambda bad, others, i: others[:i] + [bad] + others[i:],
            children, st.lists(json_trees, max_size=3), st.integers(0, 3),
        )
        | st.builds(
            lambda bad, others, i: others[:i] + [bad] + others[i:],
            children, st.lists(finite_floats, max_size=4), st.integers(0, 4),
        )
        | st.builds(
            lambda bad, key, others: {**others, key: bad},
            children, keys, st.dictionaries(keys, json_trees, max_size=3),
        )
    )


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)


class TestReportJson:
    @settings(max_examples=100, deadline=None, database=None)
    @given(json_trees)
    def test_equals_json_dumps(self, tree):
        assert report_json(tree) == _dumps(tree)

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.recursive(non_finite, _hide, max_leaves=4))
    def test_non_finite_at_any_depth_raises_value_error(self, tree):
        with pytest.raises(ValueError):
            _dumps(tree)
        with pytest.raises(ValueError):
            report_json(tree)

    @settings(max_examples=50, deadline=None, database=None)
    @given(
        st.dictionaries(keys, json_trees, max_size=3),
        st.none() | st.booleans() | st.integers() | finite_floats,
        json_trees,
        st.booleans(),
    )
    def test_non_str_key_raises_type_error(self, others, key, value, nested):
        tree = {**others, key: value}
        if nested:
            tree = [{"ok": [1.0]}, {"inner": tree}]
        with pytest.raises(TypeError):
            report_json(tree)

    def test_numpy_float_leaves_take_the_general_path(self):
        tree = {"a": [np.float64(0.1), 2.5], "b": np.float64(-0.0)}
        assert report_json(tree) == _dumps(tree)

    def test_rendered_rows_carry_their_cells_and_compare_as_lists(self):
        db = np.array([[-0.0, -100.0], [60.22, 0.5]])
        rows = _rendered(db)
        assert rows == db.tolist() and [type(v) for v in rows[0]] == [float, float]
        assert rows.cells.tolist() == [["-0.0", "-100.0"], ["60.22", "0.5"]]
        assert report_json({"db": rows}) == _dumps({"db": db.tolist()})

    def test_non_finite_rows_are_not_rendered_and_raise(self):
        rows = _rendered(np.array([[1.0, math.inf]]))
        assert not hasattr(rows, "cells")
        with pytest.raises(ValueError):
            report_json({"db": rows})


def test_failed_write_keeps_old_report_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    write_report({"a": [1.0]}, target)
    old = target.read_bytes()
    with pytest.raises(ValueError):
        write_report({"a": [float("nan")]}, target)  # report_json rejects it

    def refuse(src, dst):
        raise OSError("cannot publish")

    monkeypatch.setattr(os, "replace", refuse)  # fails after the temp file is written
    with pytest.raises(OSError, match="cannot publish"):
        write_report({"a": [2.0]}, target)
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


# what the waveform writer reads of a report
WAVEFORM_REPORT = {
    side: {"audio": {"waveform": {"times": [0.0], "rms": [0.5]}}} for side in ("original", "transformed")
}


def test_report_and_csv_get_the_mode_of_a_plain_write(tmp_path, umask_022):
    write_report({"a": [1.0]}, tmp_path / "report.json")
    emit_plot_data(WAVEFORM_REPORT, "waveform", tmp_path / "waveform.csv")
    assert plain_write_mode(tmp_path) == 0o644
    assert [mode_of(tmp_path / name) for name in ("report.json", "waveform.csv")] == [0o644, 0o644]


def test_failed_csv_write_keeps_old_csv_and_leaves_no_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "waveform.csv"
    emit_plot_data(WAVEFORM_REPORT, "waveform", target)
    old = target.read_bytes()

    def refuse(src, dst):
        raise OSError("cannot publish")

    monkeypatch.setattr(os, "replace", refuse)  # fails after the temp file is written
    other = {side: {"audio": {"waveform": {"times": [1.0], "rms": [0.25]}}} for side in WAVEFORM_REPORT}
    with pytest.raises(OSError, match="cannot publish"):
        emit_plot_data(other, "waveform", target)
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["waveform.csv"]


def _spectrogram_report(db, n_bins):
    """What the spectrogram writer reads of a report, the same for both sides."""
    sg = {"times": [0.5 * i for i in range(len(db))], "frequencies": [10.0] * n_bins, "db": db}
    return {side: {"audio": {"spectrogram": sg}} for side in ("original", "transformed")}


class _UnreadableRow(list):
    def __iter__(self):
        raise OSError("row unreadable")


def test_failed_streamed_spectrogram_write_keeps_old_csv_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "spectrogram.csv"
    emit_plot_data(_spectrogram_report([[1.0, 2.0]], 2), "spectrogram", target)
    old = target.read_bytes()
    # the first blocks of rows are written before the last one raises
    db = [[-1.0, -2.0]] * (2 * SPECTROGRAM_CSV_ROWS) + [_UnreadableRow([0.0, 0.0])]
    with pytest.raises(OSError, match="row unreadable"):
        emit_plot_data(_spectrogram_report(db, 2), "spectrogram", target)
    assert target.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["spectrogram.csv"]


def _side_payload(draw, values):
    n_f = draw(st.integers(1, 4))
    db = draw(rendered_rows(st.just(n_f)))
    if draw(st.booleans()):
        db = [list(row) for row in db]  # plain rows, as load_report or a hand-built report has them
    n_t = len(db)
    n_w = draw(st.integers(0, 4))
    times = draw(st.lists(values, min_size=n_t, max_size=n_t))
    freqs = draw(st.lists(values, min_size=n_f, max_size=n_f))
    return {
        "audio": {
            "waveform": {
                "times": draw(st.lists(values, min_size=n_w, max_size=n_w)),
                "rms": draw(st.lists(values, min_size=n_w, max_size=n_w)),
            },
            "spectrogram": {"times": times, "frequencies": freqs, "db": db},
        }
    }


@st.composite
def plot_payloads(draw):
    """Reports holding only what the two writers read, shaped as _plot_data builds them."""
    values = finite_floats | st.floats(-100.0, 0.0).map(lambda v: round(v, 2))
    return {side: _side_payload(draw, values) for side in ("original", "transformed")}


@settings(max_examples=40, deadline=None, database=None)
@given(plot_payloads())
def test_csv_writers_match_cell_by_cell_oracles(report):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for kind, oracle in ORACLES.items():
            oracle(report, tmp / f"{kind}_oracle.csv")
            emit_plot_data(report, kind, tmp / f"{kind}.csv")
            assert (tmp / f"{kind}.csv").read_bytes() == (tmp / f"{kind}_oracle.csv").read_bytes()


def _edge_stem() -> AudioBuffer:
    """A stem whose plotted dB rows span more than one block of CSV rows and
    hold -0.0, the -100 floor and values above the table.

    Bin 0 of a frame of DC at 0.9997/1024 (the periodic Hann window sums to
    1024) is -0.0026 dB, which rounds to -0.0; its other plotted bins are at
    the floor. DC at 1.5 is 63.7 dB, past a full-scale frame's 60.21.
    """
    noise = 0.1 * make_noise(seconds=2.0, seed=3)
    return AudioBuffer(np.concatenate([np.full(2048, 0.9997 / 1024), noise, np.full(2048, 1.5)]), 22050)


def test_plot_data_rows_write_as_their_plain_lists_and_read_back_the_same(tmp_path):
    sg = _plot_data(_edge_stem())["spectrogram"]
    db = np.array(sg["db"])
    assert len(db) > SPECTROGRAM_CSV_ROWS and hasattr(sg["db"], "cells")
    assert np.signbit(db[db == 0]).any() and (db == -100.0).any() and db.max() > 60.21
    empty = _plot_data(AudioBuffer(np.full(100, 0.5), 22050))["spectrogram"]  # under one frame
    assert empty["db"] == [] and empty["frequencies"]
    report = {"original": {"audio": {"spectrogram": sg}}, "transformed": {"audio": {"spectrogram": empty}}}

    write_report(report, tmp_path / "report.json")
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == _dumps(report) + "\n"
    emit_plot_data(report, "spectrogram", tmp_path / "spectrogram.csv")
    ORACLES["spectrogram"](report, tmp_path / "oracle.csv")
    assert (tmp_path / "spectrogram.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    loaded = load_report(tmp_path / "report.json")
    assert not hasattr(loaded["original"]["audio"]["spectrogram"]["db"], "cells")
    write_report(loaded, tmp_path / "again.json")
    emit_plot_data(loaded, "spectrogram", tmp_path / "again.csv")
    assert (tmp_path / "again.json").read_bytes() == (tmp_path / "report.json").read_bytes()
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "spectrogram.csv").read_bytes()


VOCAB = ["hate", "fight", "love", "light", "burn", "down", "tonight", "you", "me", "sing"]


@st.composite
def short_stems(draw):
    sr = draw(st.sampled_from([16000, 22050, 44100]))
    seconds = draw(st.floats(1.0, 2.0))
    f0 = draw(st.floats(80.0, 500.0))
    noise = draw(st.floats(0.0, 1.0))
    voiced = draw(st.floats(0.0, 1.0))
    scale = draw(st.sampled_from([0.0, 0.01, 1.0]))
    sig = make_harmonic(f0, seconds=seconds, sr=sr)
    sig[int(voiced * len(sig)):] = 0.0
    sig = scale * (sig + noise * make_noise(seconds=seconds, sr=sr, seed=draw(st.integers(0, 99))))
    return sr, sig / max(1.0, np.abs(sig).max())


lyric_docs = st.lists(
    st.lists(st.sampled_from(VOCAB), min_size=1, max_size=5).map(" ".join), min_size=1, max_size=6
).map(lambda lines: "[Verse]\n" + "\n".join(lines) + "\n")


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


@settings(max_examples=6, deadline=None, database=None)
@given(short_stems(), short_stems(), lyric_docs, lyric_docs)
def test_reports_from_random_short_stems_are_strict_json(orig, trans, orig_text, trans_text):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        bundles = []
        for name, (sr, sig), text in (("o", orig, orig_text), ("t", trans, trans_text)):
            write_wav(tmp / f"{name}.wav", sig, sr=sr)
            (tmp / f"{name}.txt").write_text(text, encoding="utf-8")
            bundles.append(TrackBundle(str(tmp / f"{name}.wav"), str(tmp / f"{name}.txt"), "x"))
        report = run_pipeline(
            *bundles, classifier=StubSentimentClassifier(), embedder=StubEmbedder(),
            out_path=tmp / "report.json",
        )
        text = (tmp / "report.json").read_text(encoding="utf-8")
        json.loads(text, parse_constant=_reject_constant)
        assert text == _dumps(report) + "\n"


def test_compare_stdout_equals_out_file_and_csvs_match_oracles(fixture_pair, capsys):
    tmp = fixture_pair["tmp_path"]
    args = [
        "compare",
        "--original-stem", str(fixture_pair["orig_stem"]),
        "--original-lyrics", str(fixture_pair["orig_lyrics"]),
        "--transformed-stem", str(fixture_pair["trans_stem"]),
        "--transformed-lyrics", str(fixture_pair["trans_lyrics"]),
        "--artist", "fixture",
        "--sections", str(fixture_pair["sections"]),
        "--offline",
    ]
    assert main(args) == 0
    stdout = capsys.readouterr().out
    out = tmp / "out" / "report.json"
    assert main([*args, "--out", str(out), "--emit", "waveform,spectrogram"]) == 0
    mode = plain_write_mode(out.parent)
    assert [mode_of(p) for p in (out, out.parent / "fixture_waveform.csv")] == [mode, mode]

    def body(text):
        return [line for line in text.splitlines() if '"created_at"' not in line]

    file_text = out.read_text(encoding="utf-8")
    assert body(stdout) == body(file_text)
    report = load_report(out)
    assert file_text == _dumps(report) + "\n"
    write_report(report, tmp / "again.json")
    assert (tmp / "again.json").read_text(encoding="utf-8") == file_text
    for kind, oracle in ORACLES.items():
        oracle(report, tmp / f"{kind}_oracle.csv")
        assert (tmp / "out" / f"fixture_{kind}.csv").read_bytes() == (
            tmp / f"{kind}_oracle.csv"
        ).read_bytes()
