"""The timed items, written once for both the code under test and the seed snapshot.

Whichever ``detoxaudit`` the importing process put first on ``sys.path``
is the one these functions drive: ``src/`` in the measured worker, the
seed snapshot when the reference outputs are recorded.
"""

from __future__ import annotations

import json
from contextlib import nullcontext
from pathlib import Path

import detoxaudit as da
from detoxaudit import report

NGRAM_ORDERS = (2, 3)
NGRAM_TOP_K = 10


def read_manifest(inputs: Path) -> dict:
    return json.loads((inputs / "manifest.json").read_text(encoding="utf-8"))


def audio_bundles(inputs: Path, manifest: dict) -> tuple:
    """(original, transformed) bundles as the ``compare`` command builds them:
    one sections file, when there is one, for both tracks."""
    files = manifest["files"]
    sections = str(inputs / files["sections"]) if "sections" in files else None
    return tuple(
        report.TrackBundle(
            str(inputs / files[f"{side}_stem"]),
            str(inputs / files[f"{side}_lyrics"]),
            "bench",
            sections,
        )
        for side in ("original", "transformed")
    )


def audio_item(bundles, cfg, classifier, embedder, out_dir: Path) -> dict:
    """What ``compare --out ... --emit <all kinds>`` does for one song pair."""
    result = report.run_pipeline(
        *bundles, cfg, classifier=classifier, embedder=embedder,
        out_path=out_dir / "report.json",
    )
    for kind in report.PLOT_KINDS:
        report.emit_plot_data(result, kind, out_dir / f"{kind}.csv")
    return result


def audio_lines(result: dict) -> int:
    """Lyric lines one audio item scored, both sides."""
    return sum(result[side]["lyrics"]["line_count"] for side in ("original", "transformed"))


def audio_calls(result: dict) -> int:
    """Provider calls one audio item made: a score per line, two embeddings per pair."""
    return audio_lines(result) + 2 * len(result["similarity"]["per_line"])


def lyric_side(doc, classifier, span) -> dict:
    """Sentiment table, per-line scores and top n-grams of one parsed side."""
    with span("lyrics.score_document"):
        scores = da.score_document(doc, classifier)
    with span("lyrics.sentiment_table"):
        table = da.sentiment_table(scores, doc)
    grams = {}
    for n in NGRAM_ORDERS:
        with span("lyrics.ngram_counts"):
            top = da.ngram_counts(doc, n).top(NGRAM_TOP_K)
        grams[f"{n}-gram"] = [[list(g), c] for g, c in top]
    return {
        "sentiment": table,
        "per_line": [s.standardized for s in scores],
        "ngrams": grams,
    }


def lyric_item(text: str, rewriter, classifier, embedder, span=None) -> dict:
    """One song's lyric comparison: rewrite, parse both sides, score, n-grams,
    per-line similarity. ``span(name)`` wraps each public call when tracing."""
    span = span or (lambda name: nullcontext())
    rewritten = rewriter.rewrite(da.RewriteRequest(text))
    with span("lyrics.parse_lyrics"):
        orig = da.parse_lyrics(text)
    with span("lyrics.parse_lyrics"):
        trans = da.parse_lyrics(rewritten)
    sides = {
        "original": lyric_side(orig, classifier, span),
        "transformed": lyric_side(trans, classifier, span),
    }
    with span("lyrics.line_similarity"):
        sims = da.line_similarity(orig, trans, embedder)
    return {
        "rewritten": rewritten,
        **sides,
        "similarity": {
            "per_line": sims.per_line.tolist(),
            "rolling": sims.rolling.tolist(),
            "mean": sims.mean,
            "unpaired": sims.unpaired,
        },
        "lines": len(orig) + len(trans),
        "calls": 1 + len(orig) + len(trans) + 2 * min(len(orig), len(trans)),
    }
