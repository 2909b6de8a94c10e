from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detoxaudit import (
    clean_tokens,
    line_similarity,
    ngram_counts,
    parse_lyrics,
    percent_decrease,
    rolling_mean,
    score_document,
    sentiment_table,
    standardize_sentiment,
    StubEmbedder,
    StubSentimentClassifier,
)
from detoxaudit.lyrics import SECTION_ORDER, default_stopwords


# one piece per line: (text, the label a header piece starts, or None)
_HEADERS = st.builds(
    lambda name, number, pad: (f"{pad}[{name}{number}]{pad}", name.lower()),
    st.sampled_from(["Verse", "CHORUS", "bridge", "Intro", "outro", "Hook", "Pre-Chorus"]),
    st.sampled_from(["", " 2", " 10"]),
    st.sampled_from(["", " ", "\t"]),
)
_BLANKS = st.sampled_from(["", " ", "\t  "])
_WORDS = st.builds(
    lambda words, pad: pad + " ".join(words) + pad,
    st.lists(st.sampled_from(["the", "Fox", "don't", "wet-*ss", "[]", "run!"]), min_size=1),
    st.sampled_from(["", "  "]),
)
_PIECES = st.one_of(_HEADERS, st.one_of(_BLANKS, _WORDS).map(lambda text: (text, None)))


class TestParseLyrics:
    def test_single_chorus(self):
        doc = parse_lyrics("[Chorus]\nhello world")
        assert doc.lines == ("hello world",)
        assert doc.line_labels == ("chorus",)

    def test_numbered_labels_fold(self):
        doc = parse_lyrics("[Verse 2]\na\n[Outro]\nb")
        assert doc.lines == ("a", "b")
        assert doc.line_labels == ("verse", "outro")

    def test_lines_before_header_are_unknown(self):
        doc = parse_lyrics("stray line\n[Verse]\nreal line")
        assert doc.lines == ("stray line", "real line")
        assert doc.line_labels == ("unknown", "verse")

    def test_blank_lines_dropped(self):
        doc = parse_lyrics("[Verse]\n\nfirst\n\n\nsecond\n")
        assert doc.lines == ("first", "second")
        assert doc.line_labels == ("verse", "verse")

    def test_empty_input(self):
        doc = parse_lyrics("")
        assert len(doc) == 0

    def test_case_insensitive_labels(self):
        doc = parse_lyrics("[CHORUS]\nx\n[bridge]\ny\n[Intro]\nz")
        assert doc.line_labels == ("chorus", "bridge", "intro")

    def test_unrecognized_label_becomes_unknown(self):
        doc = parse_lyrics("[Hook]\nline")
        assert doc.line_labels == ("unknown",)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        pieces=st.lists(_PIECES, max_size=12),
        newline=st.sampled_from(["\n", "\r\n"]),
    )
    def test_lines_labels_and_tokens_align(self, pieces, newline):
        doc = parse_lyrics(newline.join(text for text, _ in pieces))
        want_labels, label = [], "unknown"
        for text, starts in pieces:
            if starts is not None:
                label = starts if starts in SECTION_ORDER else "unknown"
            elif text.strip():
                want_labels.append(label)
        assert len(doc.lines) == len(doc.line_labels) == len(doc.tokens) == len(doc)
        assert all(line and line == line.strip() for line in doc.lines)
        assert doc.line_labels == tuple(want_labels)


class TestCleanTokens:
    def test_punctuation_and_stopwords(self):
        assert clean_tokens("The Quick, Fox!", {"the"}) == ["quick", "fox"]

    def test_censoring_asterisks_kept_hyphen_splits(self):
        assert clean_tokens("wet-*ss p*ssy", set()) == ["wet", "*ss", "p*ssy"]

    def test_empty_line(self):
        assert clean_tokens("", set()) == []

    def test_apostrophes_kept(self):
        assert clean_tokens("don't stop believin'", set()) == ["don't", "stop", "believin'"]

    def test_idempotent(self):
        tokens = clean_tokens("Ain't no mountain high-enough!", set())
        again = [tok for t in tokens for tok in clean_tokens(t, set())]
        assert tokens == again

    def test_default_stopwords_include_basics(self):
        sw = default_stopwords()
        assert "the" in sw and "a" in sw

    def test_stopwords_read_once_per_process(self, monkeypatch):
        reads = []
        files = resources.files

        def counting_files(package):
            reads.append(package)
            return files(package)

        default_stopwords.cache_clear()
        monkeypatch.setattr(resources, "files", counting_files)
        parse_lyrics("[Chorus]\nthe night is young")
        parse_lyrics("[Verse]\na day in the life")
        assert reads == ["detoxaudit.data"]


class TestNgramCounts:
    def test_bigram_counts(self):
        doc = parse_lyrics("[Chorus]\nheil hitler heil hitler")
        table = ngram_counts(doc, 2)
        assert table.counts[("heil", "hitler")] == 2
        assert table.counts[("hitler", "heil")] == 1

    def test_no_cross_line_grams(self):
        doc = parse_lyrics("[Verse]\nalpha beta\ngamma delta")
        table = ngram_counts(doc, 2)
        assert ("beta", "gamma") not in table.counts

    def test_empty_doc(self):
        assert ngram_counts(parse_lyrics(""), 2).counts == {}

    def test_total_tuple_identity(self):
        doc = parse_lyrics("[Verse]\none two three four\nfive six\nseven")
        for n in (1, 2, 3):
            table = ngram_counts(doc, n)
            expected = sum(max(len(t) - n + 1, 0) for t in doc.tokens)
            assert sum(table.counts.values()) == expected

    def test_top_k_tie_break_lexicographic(self):
        doc = parse_lyrics("[Verse]\nzz aa\nzz aa\nbb cc\nbb cc")
        top = ngram_counts(doc, 2).top(1)
        assert top[0][0] == ("bb", "cc")

    def test_bad_order(self):
        with pytest.raises(ValueError):
            ngram_counts(parse_lyrics(""), 0)


class TestStandardizeSentiment:
    def test_worked_positive_example(self):
        assert standardize_sentiment("POSITIVE", 0.999) == pytest.approx(0.001, abs=1e-12)

    def test_worked_negative_example(self):
        assert standardize_sentiment("NEGATIVE", 0.992) == pytest.approx(0.992, abs=1e-12)

    def test_boundary_agreement(self):
        assert standardize_sentiment("POSITIVE", 0.5) == 0.5
        assert standardize_sentiment("NEGATIVE", 0.5) == 0.5

    def test_label_halves_cover_unit_interval(self):
        for score in np.linspace(0, 1, 11):
            pos = standardize_sentiment("POSITIVE", score)
            neg = standardize_sentiment("NEGATIVE", score)
            assert 0.0 <= pos <= 0.5 or score < 0.5
            assert 0.0 <= pos <= 1.0 and 0.0 <= neg <= 1.0
        assert standardize_sentiment("POSITIVE", 1.0) == 0.0
        assert standardize_sentiment("NEGATIVE", 1.0) == 1.0

    def test_out_of_range_score(self):
        with pytest.raises(ValueError):
            standardize_sentiment("POSITIVE", 1.2)

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            standardize_sentiment("NEUTRAL", 0.5)


class TestScoreDocument:
    def test_order_and_count(self):
        doc = parse_lyrics("[Verse]\nfirst line\nsecond line\nthird line")
        scores = score_document(doc, StubSentimentClassifier())
        assert len(scores) == 3

    def test_cache_one_call_per_unique_line(self):
        doc = parse_lyrics("[Chorus]\nsame line\nsame line\nsame line")
        classifier = StubSentimentClassifier()
        score_document(doc, classifier)
        assert classifier.call_count == 1

    def test_stub_profanity_negative(self):
        doc = parse_lyrics("[Verse]\nyou are a bitch")
        scores = score_document(doc, StubSentimentClassifier())
        assert scores[0].label == "NEGATIVE"
        assert scores[0].score == 0.99
        assert scores[0].standardized == pytest.approx(0.99)

    def test_stub_clean_positive(self):
        doc = parse_lyrics("[Verse]\nwhat a lovely day")
        scores = score_document(doc, StubSentimentClassifier())
        assert scores[0].label == "POSITIVE"
        assert scores[0].standardized == pytest.approx(0.1)


class TestSentimentTable:
    def test_grouping(self):
        doc = parse_lyrics("[Intro]\nkill them all\n[Verse]\nnice sunny day\n[Verse]\nhate hate hate")
        scores = score_document(doc, StubSentimentClassifier())
        table = sentiment_table(scores, doc)
        assert table["sections"]["intro"] == pytest.approx(0.99)
        assert table["sections"]["verse"] == pytest.approx((0.1 + 0.99) / 2)
        assert table["sections"]["bridge"] is None

    def test_absent_bridge(self):
        doc = parse_lyrics("[Chorus]\nhello")
        table = sentiment_table(score_document(doc, StubSentimentClassifier()), doc)
        assert table["sections"]["bridge"] is None
        assert table["sections"]["outro"] is None

    def test_misaligned_scores_rejected(self):
        doc = parse_lyrics("[Verse]\na line")
        with pytest.raises(ValueError):
            sentiment_table([], doc)


class TestPercentDecrease:
    @pytest.mark.parametrize(
        "orig,trans,expected",
        [(0.938, 0.344, 63.3), (0.744, 0.107, 85.6), (0.235, 0.063, 73.2), (0.685, 0.250, 63.5)],
    )
    def test_reported_rows(self, orig, trans, expected):
        assert percent_decrease(orig, trans) == pytest.approx(expected, abs=0.1)

    def test_identical_means(self):
        assert percent_decrease(0.42, 0.42) == 0.0

    def test_zero_original_rejected(self):
        with pytest.raises(ValueError):
            percent_decrease(0.0, 0.1)

    def test_round_trip(self):
        orig, trans = 0.81, 0.27
        d = percent_decrease(orig, trans)
        assert orig * (1 - d / 100) == pytest.approx(trans, abs=orig * 0.0005)


class TestLineSimilarity:
    def test_identical_docs_all_ones(self):
        doc = parse_lyrics("[Verse]\nline one\nline two\nline three")
        series = line_similarity(doc, doc, StubEmbedder())
        assert np.allclose(series.per_line, 1.0, atol=1e-12)
        assert series.mean == pytest.approx(1.0)

    def test_unpaired_surplus_counted(self):
        a = parse_lyrics("[Verse]\nx\ny\nz")
        b = parse_lyrics("[Verse]\nx")
        series = line_similarity(a, b, StubEmbedder())
        assert len(series.per_line) == 1
        assert series.unpaired == 2

    def test_orthogonal_stub(self):
        class Orthogonal:
            def embed(self, text):
                return np.array([1.0, 0.0]) if "a" in text else np.array([0.0, 1.0])

        a = parse_lyrics("[Verse]\naaa")
        b = parse_lyrics("[Verse]\nbbb")
        series = line_similarity(a, b, Orthogonal())
        assert series.per_line[0] == pytest.approx(0.0)

    def test_empty_doc_rejected(self):
        doc = parse_lyrics("[Verse]\nx")
        with pytest.raises(ValueError):
            line_similarity(doc, parse_lyrics(""), StubEmbedder())

    def test_non_finite_embedding_rejected(self):
        class NaNEmbedder:
            def embed(self, text):
                return np.array([np.nan, 1.0])

        doc = parse_lyrics("[Verse]\nline one")
        with pytest.raises(ValueError, match="non-finite"):
            line_similarity(doc, doc, NaNEmbedder())

    def test_zero_embedding_rejected(self):
        class ZeroEmbedder:
            def embed(self, text):
                return np.zeros(3) if "two" in text else np.ones(3)

        doc = parse_lyrics("[Verse]\nline one\nline two")
        with pytest.raises(ValueError, match="zero-norm embedding for line pair 1"):
            line_similarity(doc, doc, ZeroEmbedder())


class TestRollingMean:
    def test_constant_series(self):
        out = rolling_mean(np.full(12, 0.4), 5)
        assert np.allclose(out, 0.4)
        assert len(out) == 8

    def test_five_values_window_five(self):
        assert rolling_mean([1, 2, 3, 4, 5], 5).tolist() == [3.0]

    def test_window_one_identity(self):
        x = [0.3, 0.9, 0.1]
        assert rolling_mean(x, 1).tolist() == x

    def test_short_series_empty(self):
        assert len(rolling_mean([1.0, 2.0], 5)) == 0

    def test_bounded_by_series_range(self):
        rng = np.random.RandomState(17)
        x = rng.uniform(-1, 1, 50)
        out = rolling_mean(x, 5)
        assert out.min() >= x.min() - 1e-12
        assert out.max() <= x.max() + 1e-12

    def test_matches_brute_force(self):
        rng = np.random.RandomState(19)
        x = rng.uniform(0, 1, 40)
        window = 5
        brute = [np.mean(x[i : i + window]) for i in range(len(x) - window + 1)]
        assert np.allclose(rolling_mean(x, window), brute, atol=1e-12)

    def test_bad_window(self):
        with pytest.raises(ValueError):
            rolling_mean([1.0], 0)

    @staticmethod
    def index_matrix_mean(x, window):
        """Oracle: the mean of each row of an index matrix over x."""
        x = np.asarray(x, dtype=float)
        if window == 1:
            return x.copy()
        if len(x) < window:
            return np.empty(0)
        n = len(x) - window + 1
        idx = np.arange(window)[None, :] + np.arange(n)[:, None]
        return x[idx].mean(axis=1)

    @settings(max_examples=300, deadline=None, database=None)
    @given(
        x=st.lists(st.floats(-1e300, 1e300, allow_nan=False), max_size=60),
        window=st.integers(1, 10),
    )
    def test_equals_index_matrix_bit_for_bit(self, x, window):
        got, want = rolling_mean(x, window), self.index_matrix_mean(x, window)
        if window == 1:
            # the oracle copies x, keeping a -0.0, where the mean of a lone -0.0 is +0.0
            want = want + 0.0
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
