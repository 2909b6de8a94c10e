"""Lyric parsing, token cleaning, n-grams, sentiment aggregation, similarity."""

from __future__ import annotations

import functools
import re
from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .dsp import SECTION_LABELS

SECTION_ORDER = SECTION_LABELS + ("unknown",)
SIMILARITY_WINDOW = 5  # lines per rolling mean of the per-line similarity

_HEADER_RE = re.compile(r"^\s*\[([^\]]+)\]\s*$")
# strip everything except letters, digits, apostrophes and censoring asterisks
_STRIP_RE = re.compile(r"[^a-z0-9'*\s]")


@functools.cache
def default_stopwords() -> frozenset:
    """The bundled English stopword list, read once per process."""
    text = resources.files("detoxaudit.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


@dataclass(frozen=True)
class LyricDoc:
    """Raw lines in document order, each with its section label and cleaned tokens."""

    lines: tuple  # (line, ...)
    line_labels: tuple  # (label, ...), one per line
    tokens: tuple  # (token tuple, ...), one per line

    def __len__(self) -> int:
        return len(self.lines)


@dataclass(frozen=True)
class SentimentScore:
    label: str  # POSITIVE | NEGATIVE
    score: float
    standardized: float


@dataclass(frozen=True)
class NgramTable:
    counts: dict

    def top(self, k: int) -> list:
        """Top-k grams by count, ties broken lexicographically."""
        return sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


@dataclass(frozen=True)
class SimilaritySeries:
    per_line: np.ndarray
    unpaired: int

    @property
    def rolling(self) -> np.ndarray:
        return rolling_mean(self.per_line, SIMILARITY_WINDOW)

    @property
    def mean(self) -> float:
        return float(np.mean(self.per_line)) if len(self.per_line) else float("nan")


def _fold_label(raw: str) -> str:
    base = raw.strip().lower().split()
    if base and base[0] in SECTION_ORDER:
        return base[0]
    return "unknown"


def clean_tokens(line: str, stopwords) -> list:
    """Lowercase, split hyphens, strip punctuation (keeping ' and *), drop stopwords."""
    text = line.lower().replace("-", " ")
    text = _STRIP_RE.sub("", text)
    return [tok for tok in text.split() if tok and tok not in stopwords]


def parse_lyrics(text: str) -> LyricDoc:
    """Parse raw lyric text into lines, their section labels and cleaned tokens.

    `[Label]` headers start a new section ("Verse 2" folds to "verse");
    lines before any header land in "unknown". Blank lines are dropped.
    Tokens are cleaned against the bundled stopword list.
    """
    stopwords = default_stopwords()
    lines, labels, tokens = [], [], []
    label = "unknown"
    for raw in text.splitlines():
        header = _HEADER_RE.match(raw)
        if header:
            label = _fold_label(header.group(1))
            continue
        line = raw.strip()
        if line:
            lines.append(line)
            labels.append(label)
            tokens.append(tuple(clean_tokens(line, stopwords)))
    return LyricDoc(tuple(lines), tuple(labels), tuple(tokens))


def ngram_counts(doc: LyricDoc, n: int) -> NgramTable:
    """Contiguous n-gram counts within lines, summed over the document."""
    if n < 1:
        raise ValueError("n must be >= 1")
    counts = Counter()
    for toks in doc.tokens:
        for i in range(len(toks) - n + 1):
            counts[toks[i : i + n]] += 1
    return NgramTable(dict(counts))


def standardize_sentiment(label: str, score: float) -> float:
    """Map classifier (label, confidence) onto a single [0,1] negativity axis."""
    if not 0 <= score <= 1:
        raise ValueError("score must be in [0, 1]")
    if label == "POSITIVE":
        return 0.5 - (score - 0.5)
    if label == "NEGATIVE":
        return 0.5 + (score - 0.5)
    raise ValueError(f"unknown label: {label}")


def score_document(doc: LyricDoc, classifier) -> list:
    """One SentimentScore per line, in order. Raw line text is sent to the
    classifier (cleaning is for n-grams only); the classifier caches by text.
    A classifier with ``prefetch`` fetches the lines first, concurrently."""
    if hasattr(classifier, "prefetch"):
        classifier.prefetch(doc.lines)
    scores = []
    for line in doc.lines:
        label, score = classifier.classify(line)
        scores.append(SentimentScore(label, score, standardize_sentiment(label, score)))
    return scores


def sentiment_table(scores: list, doc: LyricDoc) -> dict:
    """Mean standardized score per section label plus the per-line mean.

    Sections absent from the document map to None (rendered as dashes).
    """
    if len(scores) != len(doc):
        raise ValueError("scores not aligned with document lines")
    by_section = {label: [] for label in SECTION_ORDER}
    for score, label in zip(scores, doc.line_labels):
        by_section[label].append(score.standardized)
    section_means = {
        label: (float(np.mean(vals)) if vals else None)
        for label, vals in by_section.items()
    }
    per_line_mean = float(np.mean([s.standardized for s in scores])) if scores else None
    return {"sections": section_means, "per_line_mean": per_line_mean}


def percent_decrease(original_mean: float, transformed_mean: float) -> float:
    """Percent drop from original to transformed, rounded to 1 decimal."""
    if original_mean == 0:
        raise ValueError("original mean is zero")
    return round(100.0 * (original_mean - transformed_mean) / original_mean, 1)


def line_similarity(orig: LyricDoc, trans: LyricDoc, embedder) -> SimilaritySeries:
    """Cosine similarity of per-line embeddings, paired by line index.
    An embedder with ``prefetch`` fetches the paired lines first, concurrently."""
    if len(orig) == 0 or len(trans) == 0:
        raise ValueError("both documents must be non-empty")
    n = min(len(orig), len(trans))
    a_lines, b_lines = orig.lines[:n], trans.lines[:n]
    if hasattr(embedder, "prefetch"):
        embedder.prefetch(a_lines + b_lines)
    sims = np.empty(n)
    for i, (a, b) in enumerate(zip(a_lines, b_lines)):
        va = np.asarray(embedder.embed(a), dtype=float)
        vb = np.asarray(embedder.embed(b), dtype=float)
        if not (np.isfinite(va).all() and np.isfinite(vb).all()):
            raise ValueError(f"non-finite embedding for line pair {i}")
        na, nb = np.linalg.norm(va), np.linalg.norm(vb)
        if na == 0 or nb == 0:
            raise ValueError(f"zero-norm embedding for line pair {i}")
        sims[i] = float(va @ vb / (na * nb))
    unpaired = max(len(orig), len(trans)) - n
    return SimilaritySeries(sims, unpaired)


def rolling_mean(series, window: int) -> np.ndarray:
    """Windowed mean, no edge padding; output length max(len - window + 1, 0)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=float)
    if len(x) < window:
        return np.empty(0)
    return np.lib.stride_tricks.sliding_window_view(x, window).mean(axis=1)
