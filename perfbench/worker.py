"""The measured process of one benchmark run.

    python3 perfbench/worker.py --workload W --inputs DIR --run-dir DIR --seconds S
                                [--trace] [--setup-only] [--fake URL] [--cache-dir DIR]

A fresh interpreter per run, as a user's CLI call is: it imports detoxaudit
from the checkout's ``src/``, builds the providers, and only then starts
the clock. It works in passes. A pass is the workload's whole input once:
one song pair on the audio workloads, the whole corpus on the lyric ones.
Each pass gets fresh providers, and on ``lyrics_cold_http`` an empty cache
directory. Passes repeat until ``--seconds`` have gone by, one at least.

With ``--trace`` every other pass records spans around every public call,
one at a time, serially; the passes between run as without it, to measure
what tracing costs. The results go
to ``RUN_DIR/worker.json``; item outputs go under RUN_DIR for the check.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
import urllib.request
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import detoxaudit as da  # noqa: E402  (the code under test)
from detoxaudit import report  # noqa: E402

import items  # noqa: E402
import spans  # noqa: E402

if not Path(da.__file__).resolve().is_relative_to(ROOT / "src"):
    raise SystemExit(f"worker: imported detoxaudit from {da.__file__}, not {ROOT / 'src'}")

AUDIO = ("dense_pair", "sparse_pair")
BACKOFF_S = 0.002  # small but nonzero, so a retry waits as a real client would
TIMEOUT_S = 10.0

# per-layer time metrics that are the summed duration of one span name per pass
SPAN_METRICS = {
    "voice.estimate_f0_s": "voice.estimate_f0",
    "voice.hnr_s": "voice.hnr",
    "voice.extract_periods_s": "voice.extract_periods",
    "voice.cpp_s": "voice.cpp",
    "voice.voice_report_s": "voice.voice_report",
    "audio_io.load_track_s": "audio_io.load_track",
    "audio_io.resample_s": "audio_io.resample",
    "audio_io.spectral_subtract_s": "audio_io.spectral_subtract",
    "audio_io.highpass_s": "audio_io.highpass",
    "audio_io.preprocess_s": "audio_io.preprocess",
    "dsp.stft_s": "dsp.stft",
    "dsp.frame_rms_s": "dsp.frame_rms",
    "report.run_pipeline_s": "report.run_pipeline",
    "report.stage_sum_s": "report.stages",
    "report.write_report_s": "report.write_report",
    "report.emit_plot_data_s": "report.emit_plot_data",
    "lyrics.parse_lyrics_s": "lyrics.parse_lyrics",
    "lyrics.score_document_s": "lyrics.score_document",
    "lyrics.ngram_counts_s": "lyrics.ngram_counts",
    "lyrics.line_similarity_s": "lyrics.line_similarity",
}
# per-layer counts, taken per pass
COUNT_METRICS = (
    "voice.frames", "voice.voiced_frames", "voice.periods", "audio_io.samples",
    "report.report_bytes", "report.csv_bytes", "lyrics.lines", "providers.calls",
    "providers.http_requests", "providers.retries", "providers.cache_files",
)
# span names whose summed duration, per traced pass, repeats the untraced pass's work
COMPARABLE = {
    "audio": ("report.run_pipeline", "report.write_report", "report.emit_plot_data"),
    "lyrics": ("item",),
}


class TracedProvider:
    """Wraps a provider so that each call is a ``providers.<method>`` span.

    Build it with ``traced_provider``, which keeps the wrapped class's name,
    since the report records that name as provenance.
    """

    def __init__(self, inner, tracer: spans.Tracer):
        self._inner = inner
        self._tracer = tracer

    def classify(self, text):
        with self._tracer.span("providers.classify"):
            return self._inner.classify(text)

    def embed(self, text):
        with self._tracer.span("providers.embed"):
            return self._inner.embed(text)

    def rewrite(self, req):
        with self._tracer.span("providers.rewrite"):
            return self._inner.rewrite(req)


def traced_provider(inner, tracer: spans.Tracer):
    if inner is None:
        return None
    return type(type(inner).__name__, (TracedProvider,), {})(inner, tracer)


class Run:
    def __init__(self, args):
        self.args = args
        self.workload = args.workload
        self.audio = args.workload in AUDIO
        self.run_dir = args.run_dir
        self.manifest = items.read_manifest(args.inputs)
        self.cfg = da.PreprocessConfig()
        if self.audio:
            self.bundles = items.audio_bundles(args.inputs, self.manifest)
        else:
            self.songs = [
                (args.inputs / name).read_text(encoding="utf-8")
                for name in self.manifest["files"]["songs"]
            ]
        self.result = {
            "walls": [], "items": 0, "lines": 0, "calls": 0, "failed_items": 0, "failed_calls": 0,
        }
        self.tracer = spans.Tracer()
        self.counts = {}

    # ------------------------------------------------------------ providers

    def providers(self, k: int) -> tuple:
        """Fresh (rewriter, classifier, embedder) for pass k."""
        if self.audio:
            return None, da.StubSentimentClassifier(), da.StubEmbedder()
        if self.workload == "lyrics_cold_http":
            cache = self.run_dir / "cache" / f"pass{k}"
        else:
            cache = self.args.cache_dir
        return http_clients(self.args.fake, f"pass{k}", cache)

    # ------------------------------------------------------------ passes

    def _item(self, fn):
        """Run one item; a failure is counted and logged, never raised."""
        self.result["items"] += 1
        try:
            return fn()
        except Exception as exc:  # noqa: BLE001 - the run reports every failure
            traceback.print_exc()
            self.result["failed_items"] += 1
            if isinstance(exc, da.ProviderError):
                self.result["failed_calls"] += 1
            return None

    def plain_pass(self, k: int, provs) -> float:
        """One pass without spans; returns the summed item wall time."""
        rewriter, classifier, embedder = provs
        res, total = self.result, 0.0
        if self.audio:
            out_dir = self.run_dir / "items" / f"pass{k}"
            t0 = time.perf_counter()
            out = self._item(lambda: items.audio_item(
                self.bundles, self.cfg, classifier, embedder, out_dir))
            wall = time.perf_counter() - t0
            if out is not None:
                res["walls"].append(wall)
                res["lines"] += items.audio_lines(out)
                res["calls"] += items.audio_calls(out)
            return wall
        with self.outputs() as record:
            for i, text in enumerate(self.songs):
                t0 = time.perf_counter()
                out = self._item(lambda: items.lyric_item(text, rewriter, classifier, embedder))
                wall = time.perf_counter() - t0
                total += wall
                if out is not None:
                    res["walls"].append(wall)
                    res["lines"] += out["lines"]
                    res["calls"] += out["calls"]
                    record(k, i, out)
        return total

    @contextmanager
    def outputs(self):
        """A function appending lyric item outputs to RUN_DIR/outputs.jsonl."""
        with open(self.run_dir / "outputs.jsonl", "a", encoding="utf-8") as fh:

            def record(k: int, song: int, out: dict):
                fh.write(json.dumps({"pass": k, "song": song, "output": out}) + "\n")

            yield record

    def traced_pass(self, k: int, provs) -> dict:
        """One pass with spans; returns the pass's per-layer counts."""
        tr = self.tracer
        rewriter, classifier, embedder = (traced_provider(p, tr) for p in provs)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        before = self.fake_stats()
        with tr.trace_root(k):
            if self.audio:
                self._item(lambda: self.traced_audio(k, classifier, embedder))
            else:
                with self.outputs() as record:
                    for i, text in enumerate(self.songs):
                        with tr.span("item"):
                            out = self._item(lambda: items.lyric_item(
                                text, rewriter, classifier, embedder, tr.span))
                        if out is not None:
                            self.counts["lyrics.lines"] += out["lines"]
                            self.result["calls"] += out["calls"]
                            record(k, i, out)
        after = self.fake_stats()
        c = self.counts
        c["providers.calls"] = sum(
            1 for s in tr.spans if s.trace == k and s.name.startswith("providers."))
        c["providers.retries"] = after["unavailable"] - before["unavailable"]
        c["providers.http_requests"] = after["requests"] - before["requests"]
        cache = provs[1].cfg.cache_dir if not self.audio else None
        c["providers.cache_files"] = len(list(Path(cache).glob("*.json"))) if cache else 0
        return c

    def traced_audio(self, k: int, classifier, embedder):
        """run_pipeline whole, then the stages it runs, one public call at a time,
        then the public steps inside preprocess and voice_report, then the writes."""
        tr, c, cfg = self.tracer, self.counts, self.cfg
        out_dir = self.run_dir / "items" / f"pass{k}"
        with tr.span("report.run_pipeline"):
            result = da.run_pipeline(*self.bundles, cfg, classifier=classifier, embedder=embedder)
        pairs, docs = [], []
        with tr.span("report.stages"):
            for b in self.bundles:
                with tr.span("audio_io.load_track"):
                    raw = da.load_track(b.vocal_stem)
                with tr.span("audio_io.preprocess"):
                    buf = da.preprocess(raw, cfg)
                with tr.span("voice.voice_report"):
                    da.voice_report(buf)
                with tr.span("dsp.frame_rms"):
                    da.frame_rms(buf)
                with tr.span("dsp.stft"):
                    spec = da.stft(buf)
                with tr.span("dsp.to_db"):
                    spec.to_db()
                if b.sections:
                    with tr.span("dsp.slice_sections"):
                        pieces = da.slice_sections(buf, da.load_section_map(b.sections))
                    for _, piece in pieces:
                        if len(piece.samples):
                            with tr.span("dsp.frame_rms"):
                                da.frame_rms(piece)
                c["audio_io.samples"] += len(raw.samples)
                pairs.append((raw, buf))
            for b in self.bundles:
                with tr.span("lyrics.parse_lyrics"):
                    doc = da.parse_lyrics(Path(b.lyrics).read_text(encoding="utf-8"))
                items.lyric_side(doc, classifier, tr.span)
                c["lyrics.lines"] += len(doc)
                docs.append(doc)
            with tr.span("lyrics.line_similarity"):
                da.line_similarity(*docs, embedder)
        with tr.span("steps"):
            for raw, buf in pairs:
                with tr.span("audio_io.resample"):
                    x = da.resample(raw, cfg.target_rate)
                with tr.span("audio_io.truncate"):
                    x = da.truncate(x, cfg.max_duration)
                with tr.span("audio_io.preemphasis"):
                    x = da.preemphasis(x, cfg.preemphasis_alpha)
                with tr.span("audio_io.spectral_subtract"):
                    x = da.spectral_subtract(x, cfg)
                with tr.span("audio_io.highpass"):
                    x = da.highpass(x, cfg.highpass_cutoff)
                with tr.span("audio_io.normalize"):
                    da.normalize(x)
                with tr.span("voice.estimate_f0"):
                    track = da.estimate_f0(buf)
                with tr.span("voice.hnr"):
                    da.hnr(buf, track)
                with tr.span("voice.cpp"):
                    da.cpp(buf)
                with tr.span("voice.extract_periods"):
                    seq = da.extract_periods(buf, track)
                c["voice.frames"] += len(track.frame_times)
                c["voice.voiced_frames"] += int(track.voiced_flags.sum())
                c["voice.periods"] += seq.count
        with tr.span("report.write_report"):
            da.write_report(result, out_dir / "report.json")
        for kind in report.PLOT_KINDS:
            with tr.span("report.emit_plot_data"):
                report.emit_plot_data(result, kind, out_dir / f"{kind}.csv")
        c["report.report_bytes"] = (out_dir / "report.json").stat().st_size
        c["report.csv_bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.csv"))
        self.result["calls"] += items.audio_calls(result)
        self.result["lines"] += items.audio_lines(result)

    def fake_stats(self) -> dict:
        if not self.args.fake:
            return {"requests": 0, "unavailable": 0}
        with urllib.request.urlopen(f"{self.args.fake}/stats", timeout=TIMEOUT_S) as resp:
            return json.loads(resp.read())

    # ------------------------------------------------------------ measurement

    def measure(self, provs, ready: float) -> dict:
        deadline = ready + self.args.seconds
        res = self.result
        if not self.args.trace:
            k = 0
            while True:
                self.plain_pass(k, provs)
                k += 1
                if time.monotonic() >= deadline:
                    break
                provs = self.providers(k)
            res["passes"] = k
        else:
            # pass 0 warms the process up; then traced and plain passes alternate,
            # so that both sides of trace_overhead_s see the same warm state
            self.plain_pass(0, provs)
            per_pass, plain_walls, k = [], [], 1
            while not plain_walls or time.monotonic() < deadline:
                per_pass.append(self.traced_pass(k, self.providers(k)))
                plain_walls.append(self.plain_pass(k + 1, self.providers(k + 1)))
                k += 2
            res["passes"] = k
            res["layer"] = self.layer_metrics(per_pass, statistics.median(plain_walls))
            spans.write_jsonl(self.tracer.spans, self.run_dir / "spans.jsonl")
        res["timed_s"] = sum(res["walls"])
        res["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return res

    def layer_metrics(self, per_pass: list, plain_wall: float) -> dict:
        traced = sorted({s.trace for s in self.tracer.spans})
        by_pass = {t: {} for t in traced}
        for s in self.tracer.spans:
            by_pass[s.trace][s.name] = by_pass[s.trace].get(s.name, 0.0) + s.duration

        def median_of(fn):
            return statistics.median(fn(by_pass[t]) for t in traced)

        out = {m: median_of(lambda d, n=n: d.get(n, 0.0)) for m, n in SPAN_METRICS.items()}
        for name in COUNT_METRICS:
            out[name] = statistics.median(c[name] for c in per_pass)
        out["report.pool_overhead_s"] = out["report.run_pipeline_s"] - out["report.stage_sum_s"]
        first_attempts = out["providers.http_requests"] - out["providers.retries"]
        out["providers.cache_hit_ratio"] = (
            1 - first_attempts / out["providers.calls"] if out["providers.calls"] else 0.0)
        call_ms = sorted(
            s.duration * 1000 for s in self.tracer.spans if s.name.startswith("providers."))
        out["providers.call_ms_p50"] = statistics.median(call_ms) if call_ms else 0.0
        out["providers.call_ms_p99"] = call_ms[int(0.99 * (len(call_ms) - 1))] if call_ms else 0.0
        out["providers.call_samples"] = len(call_ms)
        names = COMPARABLE["audio" if self.audio else "lyrics"]
        traced_wall = median_of(lambda d: sum(d.get(n, 0.0) for n in names))
        out["trace_overhead_s"] = traced_wall - plain_wall
        return out


def http_clients(fake_url: str, prefix: str, cache_dir) -> tuple:
    """The three HTTP clients against the loopback fake, under a path prefix."""
    def cfg(service):
        return da.ProviderConfig(
            endpoint=f"{fake_url}/{prefix}/{service}", cache_dir=str(cache_dir),
            backoff_base=BACKOFF_S, timeout=TIMEOUT_S,
        )
    return da.RewriteClient(cfg("rewrite")), da.SentimentClient(cfg("sentiment")), \
        da.EmbeddingClient(cfg("embedding"))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--run-dir", required=True, type=Path)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop where timing would start")
    ap.add_argument("--fake", default="", help="base URL of the loopback provider fake")
    ap.add_argument("--cache-dir", type=Path, help="provider cache of lyrics_warm_cache")
    ap.add_argument("--fill", action="store_true", help="fill --cache-dir with one pass, untimed")
    ap.add_argument("--result", type=Path)
    args = ap.parse_args(argv)

    run = Run(args)
    if args.fill:
        run.plain_pass(0, http_clients(args.fake, "fill", args.cache_dir))
        return 0
    provs = run.providers(0)
    ready = time.monotonic()
    if args.setup_only:
        res = {"ready": ready}
    else:
        res = run.measure(provs, ready)
        res["ready"] = ready
    args.result.write_text(json.dumps(res), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
