"""Pipeline orchestration and comparison-report assembly."""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import lyrics as lyr
from .audio_io import AudioBuffer, PreprocessConfig, load_track, preprocess
from .dsp import DB_FLOOR, _db, _magnitudes, frame_rms, load_section_map, read_text, rms_stats, slice_sections
from .providers import _write_atomic
from .voice import VoiceMetrics, radar_normalize, voice_report

PLOT_KINDS = ("waveform", "spectrogram", "ngram", "radar", "similarity", "sentiment_sections")

# decimation caps keeping plot payloads a bounded size inside the report
MAX_PLOT_FRAMES = 512
MAX_PLOT_BINS = 256
SPECTROGRAM_FMAX = 8192.0
SPECTROGRAM_FRAME = 2048
SPECTROGRAM_HOP = 512
NGRAM_TOP_K = 10
# every plotted dB value is a whole number of hundredths, from DB_FLOOR up to
# 20 * log10(1024), the peak of a full-scale frame under the 2048-point Hann window
CELL_CENTS = (round(DB_FLOOR * 100), 6021)
SPECTROGRAM_CSV_ROWS = 64  # spectrogram frames rendered into one string of the CSV


class StageError(RuntimeError):
    """Pipeline failure attributed to a named stage."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")


@contextmanager
def _stage(stage: str):
    """Raise a ValueError from the block as a StageError of `stage`."""
    try:
        yield
    except ValueError as exc:
        raise StageError(stage, str(exc)) from exc


@dataclass(frozen=True)
class TrackBundle:
    vocal_stem: str
    lyrics: str
    artist_id: str
    sections: str | None = None

    def validate(self):
        if not Path(self.vocal_stem).exists():
            raise StageError("stage 1 (audio collection)", f"missing stem: {self.vocal_stem}")
        if not Path(self.lyrics).exists():
            raise StageError("stage 1 (lyric collection)", f"missing lyrics: {self.lyrics}")
        if self.sections and not Path(self.sections).exists():
            raise StageError("stage 1 (audio collection)", f"missing sections: {self.sections}")


def _stride(n: int, limit: int) -> int:
    """The step that keeps at most limit of n items."""
    return max(1, math.ceil(n / limit))


def _decimate(arr: np.ndarray, limit: int) -> np.ndarray:
    return arr[:: _stride(len(arr), limit)]


def _load(stem) -> AudioBuffer:
    """load_track(stem), its input errors raised as stage 2's."""
    with _stage("stage 2 (audio load)"):
        return load_track(stem)


def analyze_audio(stem, cfg: PreprocessConfig, sections=None) -> tuple:
    """Load, preprocess and measure one vocal stem; returns (buffer, result).

    result holds "voice", "rms" (both with the statistics of one RMS envelope),
    that envelope decimated as "waveform" and, given a sidecar, per-section RMS "sections".
    """
    with _stage("stage 1 (audio collection)"):
        section_map = load_section_map(sections) if sections else None
    with _stage("stage 3 (preprocessing)"):
        buf = preprocess(_load(stem), cfg)  # which holds the raw stem only until it is resampled
    if not len(buf.samples):
        raise StageError("stage 3 (preprocessing)", f"no samples left in {stem}")
    with _stage("stage 5 (voice metrics)"):
        metrics = voice_report(buf)
    series = frame_rms(buf)
    rms = rms_stats(series)
    result = {
        "voice": {**asdict(metrics), "rms": rms},
        "rms": dict(rms),
        "waveform": {
            "times": _decimate(series.frame_times, MAX_PLOT_FRAMES).tolist(),
            "rms": _decimate(series.values, MAX_PLOT_FRAMES).tolist(),
        },
    }
    if sections:
        result["sections"] = [
            {"label": label, "rms": rms_stats(frame_rms(piece)) if len(piece.samples) else None}
            for label, piece in slice_sections(buf, section_map)
        ]
    return buf, result


@functools.cache
def _cell_table() -> tuple:
    """Every whole hundredth in CELL_CENTS, as floats and as their repr strings."""
    values = np.arange(CELL_CENTS[0], CELL_CENTS[1] + 1) / 100
    return values, np.array([repr(v) for v in values.tolist()], dtype=object)


class _Rows(list):
    """dB rows as plain lists of floats; `cells` holds the repr of each value."""


def _rendered(db: np.ndarray) -> list:
    """db.tolist(), carrying each value's repr from _cell_table when all are finite."""
    if not np.isfinite(db).all():
        return db.tolist()  # report_json refuses it, as json does
    values, text = _cell_table()
    lo, hi = CELL_CENTS
    idx = np.rint(np.clip(db, lo / 100, hi / 100) * 100).astype(np.intp) - lo
    cells = text[idx]
    # a bit-for-bit test, so -0.0 and values off the table take repr
    miss = values[idx].view(np.int64) != db.view(np.int64)
    cells[miss] = [repr(v) for v in db[miss].tolist()]
    rows = _Rows(db.tolist())
    rows.cells = cells
    return rows


def _plot_data(buf: AudioBuffer) -> dict:
    """Decimated spectrogram payload of one buffer; one shorter than a frame has no frames.

    Only the plotted frames are transformed: every stride-th frame of
    stft(buf, SPECTROGRAM_FRAME, SPECTROGRAM_HOP), with at most MAX_PLOT_FRAMES
    of them, and only the plotted bins are taken to dB. The dB rows carry
    their rendered text (_rendered), which report_json and the spectrogram
    CSV join instead of rendering each value again.
    """
    n = len(buf.samples)
    n_frames = (n - SPECTROGRAM_FRAME) // SPECTROGRAM_HOP + 1 if n >= SPECTROGRAM_FRAME else 0
    stride = _stride(n_frames, MAX_PLOT_FRAMES)
    freqs = np.fft.rfftfreq(SPECTROGRAM_FRAME, 1 / buf.sample_rate)
    f_idx = _decimate(np.flatnonzero(freqs <= SPECTROGRAM_FMAX), MAX_PLOT_BINS)
    if n_frames:
        mags = _magnitudes(buf.samples, SPECTROGRAM_FRAME, SPECTROGRAM_HOP * stride)[:, f_idx]
    else:
        mags = np.empty((0, len(f_idx)))
    times = np.arange(0, n_frames, stride) * SPECTROGRAM_HOP / buf.sample_rate
    return {
        "spectrogram": {
            "times": times.tolist(),
            "frequencies": freqs[f_idx].tolist(),
            "db": _rendered(np.round(_db(mags), 2)),
        },
    }


def _audio_side(bundle: TrackBundle, cfg: PreprocessConfig) -> dict:
    # the preprocessed buffer is dropped on return
    buf, result = analyze_audio(bundle.vocal_stem, cfg, bundle.sections)
    return {**result, **_plot_data(buf)}


def analyze_lyrics(path, classifier) -> tuple:
    """Parse and score one lyric file; returns (document, result).

    result holds the line count, the sentiment table, the per-line scores and the top n-grams.
    """
    with _stage("stage 1 (lyric collection)"):
        text = read_text(path)
    doc = lyr.parse_lyrics(text)
    with _stage("stage 3 (sentiment analysis)"):
        scores = lyr.score_document(doc, classifier)
    table = lyr.sentiment_table(scores, doc)
    grams = {
        f"{n}-gram": [
            {"gram": list(g), "count": c} for g, c in lyr.ngram_counts(doc, n).top(NGRAM_TOP_K)
        ]
        for n in (2, 3)
    }
    return doc, {
        "line_count": len(doc),
        "sentiment": table,
        "per_line_scores": [s.standardized for s in scores],
        "ngrams": grams,
    }


def build_comparison(original: dict, transformed: dict) -> dict:
    """Pair the two metric sets: deltas, percent decrease, radar normalization."""
    if original["artist_id"] != transformed["artist_id"]:
        raise ValueError(
            f"artist mismatch: {original['artist_id']} vs {transformed['artist_id']}"
        )
    ov, tv = original["audio"]["voice"], transformed["audio"]["voice"]
    deltas = {}
    for name in VoiceMetrics.METRIC_NAMES:
        if ov.get(name) is not None and tv.get(name) is not None:
            deltas[name] = tv[name] - ov[name]
        else:
            deltas[name] = None

    orig_mean = original["lyrics"]["sentiment"]["per_line_mean"]
    trans_mean = transformed["lyrics"]["sentiment"]["per_line_mean"]
    sentiment_decrease = None
    if orig_mean:
        sentiment_decrease = lyr.percent_decrease(orig_mean, trans_mean)

    radar = None
    if None not in deltas.values():
        radar = {k: list(v) for k, v in radar_normalize([(ov, tv)])[0].items()}

    return {
        "voice_deltas": deltas,
        "sentiment_percent_decrease": sentiment_decrease,
        "radar": radar,
    }


def run_pipeline(
    original: TrackBundle,
    transformed: TrackBundle,
    preprocess_cfg: PreprocessConfig | None = None,
    classifier=None,
    embedder=None,
    out_path=None,
) -> dict:
    """Run both frameworks over a song pair and assemble the comparison report.

    The two audio analyses run first, at the same time, on a pool of two
    threads that lives for the call; their results are taken in side order,
    so when both fail the original side's error is raised, as in serial code.
    The lyric analyses, the similarity and the assembly then run on the
    calling thread. When out_path is given the report JSON is written
    atomically.
    """
    cfg = preprocess_cfg or PreprocessConfig()
    if classifier is None or embedder is None:
        raise ValueError("classifier and embedder are required (use the offline stubs)")
    original.validate()
    transformed.validate()

    bundles = {"original": original, "transformed": transformed}
    with ThreadPoolExecutor(len(bundles), thread_name_prefix="audio-side") as pool:
        futures = {side: pool.submit(_audio_side, b, cfg) for side, b in bundles.items()}
        audio = {side: f.result() for side, f in futures.items()}
    docs, lyric = {}, {}
    for side, b in bundles.items():
        docs[side], lyric[side] = analyze_lyrics(b.lyrics, classifier)

    with _stage("stage 4 (semantic analysis)"):
        sims = lyr.line_similarity(docs["original"], docs["transformed"], embedder)

    sides = {
        side: {"artist_id": b.artist_id, "audio": audio[side], "lyrics": lyric[side]}
        for side, b in bundles.items()
    }

    report = {
        "artist_id": original.artist_id,
        "original": sides["original"],
        "transformed": sides["transformed"],
        "similarity": {
            "per_line": np.round(sims.per_line, 12).tolist(),
            "rolling": np.round(sims.rolling, 12).tolist(),
            "window": lyr.SIMILARITY_WINDOW,
            "mean": round(sims.mean, 12),
            "unpaired": sims.unpaired,
        },
        "comparison": build_comparison(sides["original"], sides["transformed"]),
        "provenance": {
            "config": asdict(cfg),
            "config_hash": hashlib.sha256(
                json.dumps(asdict(cfg), sort_keys=True).encode()
            ).hexdigest(),
            "sentiment_provider": type(classifier).__name__,
            "embedding_provider": type(embedder).__name__,
            "created_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        },
    }
    if out_path is not None:
        write_report(report, out_path)
    return report


def report_json(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=1, allow_nan=False)``, byte for byte.

    Lists of finite plain floats, the bulk of a report, are joined in one
    call, and spectrogram rows from _plot_data join their rendered cells;
    every other leaf goes through ``json``. Keys must be ``str``.
    """
    return _json(obj, "\n")


def _json(obj, pad: str) -> str:
    inner = pad + " "
    if isinstance(obj, dict) and obj:
        if not all(isinstance(k, str) for k in obj):
            raise TypeError(f"report keys must be str: {list(obj)!r}")
        items = (json.dumps(k) + ": " + _json(obj[k], inner) for k in sorted(obj))
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, _Rows) and obj.cells.size:
        row_pad = inner + " "
        rows = ("[" + row_pad + ("," + row_pad).join(r) + inner + "]" for r in obj.cells.tolist())
        return "[" + inner + ("," + inner).join(rows) + pad + "]"
    if isinstance(obj, (list, tuple)) and obj:
        if all(type(v) is float for v in obj) and all(map(math.isfinite, obj)):
            items = map(float.__repr__, obj)
        else:  # json raises its own ValueError for a non-finite float
            items = (_json(v, inner) for v in obj)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj, allow_nan=False)


def write_report(report: dict, path):
    """Atomic JSON write: temp file in the target directory, then rename."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _write_atomic(path, (report_json(report), "\n"))


def load_report(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _write_csv(out_path: Path, header: list, lines):
    """Write the header, then the rendered lines, each of which starts with a newline."""
    _write_atomic(out_path, itertools.chain([",".join(header)], lines, ["\n"]))


def _csv_rows(rows: list, header: list, out_path: Path):
    _write_csv(out_path, header, ["\n" + ",".join(map(str, row)) for row in rows])


def _spectrogram_lines(report: dict):
    """The spectrogram CSV's lines, SPECTROGRAM_CSV_ROWS frames to a string.

    Each frequency is rendered once per side and each time once per frame.
    Rows from _plot_data lay out each line's three parts (side and time,
    frequency, rendered cell) in a grid that is joined in one call; other
    rows render each value with str.
    """
    for side in ("original", "transformed"):
        sg = report[side]["audio"]["spectrogram"]
        freqs = [f"{f}," for f in sg["frequencies"]]
        prefixes = [f"\n{side},{t}," for t in sg["times"]]
        cells = getattr(sg["db"], "cells", None)
        for i in range(0, len(prefixes), SPECTROGRAM_CSV_ROWS):
            block = slice(i, i + SPECTROGRAM_CSV_ROWS)
            if cells is None:
                yield "".join([
                    p + f + str(v) for p, row in zip(prefixes[block], sg["db"][block])
                    for f, v in zip(freqs, row)
                ])
                continue
            grid = np.empty(cells[block].shape + (3,), dtype=object)
            grid[..., 0] = np.array(prefixes[block], dtype=object)[:, None]
            grid[..., 1] = freqs
            grid[..., 2] = cells[block]
            yield "".join(grid.ravel().tolist())


def emit_plot_data(report: dict, kind: str, out_path):
    """Write one plot-data CSV from values already present in the report."""
    if kind not in PLOT_KINDS:
        raise ValueError(f"unknown plot kind: {kind}")
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)

    if kind == "waveform":
        lines = []
        for side in ("original", "transformed"):
            wf = report[side]["audio"]["waveform"]
            lines += [f"\n{side},{t},{v}" for t, v in zip(wf["times"], wf["rms"])]
        _write_csv(out_path, ["track", "time_sec", "rms"], lines)
    elif kind == "spectrogram":
        _write_csv(out_path, ["track", "time_sec", "freq_hz", "db"], _spectrogram_lines(report))
    elif kind == "ngram":
        rows = []
        for side in ("original", "transformed"):
            for order, entries in report[side]["lyrics"]["ngrams"].items():
                for e in entries:
                    rows.append([side, order, " ".join(e["gram"]), e["count"]])
        _csv_rows(rows, ["track", "order", "gram", "count"], out_path)
    elif kind == "radar":
        radar = report["comparison"]["radar"]
        if radar is None:
            raise ValueError("radar data absent from report")
        rows = [[name, radar[name][0], radar[name][1]] for name in sorted(radar)]
        _csv_rows(rows, ["metric", "original_norm", "transformed_norm"], out_path)
    elif kind == "similarity":
        sim = report["similarity"]
        window = sim["window"]
        rows = []
        for i, v in enumerate(sim["per_line"]):
            j = i - (window - 1)
            roll = sim["rolling"][j] if 0 <= j < len(sim["rolling"]) else ""
            rows.append([i, v, roll])
        _csv_rows(rows, ["line", "cosine", f"rolling_{window}"], out_path)
    elif kind == "sentiment_sections":
        rows = []
        orig = report["original"]["lyrics"]["sentiment"]["sections"]
        trans = report["transformed"]["lyrics"]["sentiment"]["sections"]
        for label in orig:
            o = orig[label] if orig[label] is not None else "-"
            t = trans[label] if trans[label] is not None else "-"
            if o == "-" and t == "-":
                continue
            rows.append([label, o, t])
        _csv_rows(rows, ["section", "original", "transformed"], out_path)
    return out_path
