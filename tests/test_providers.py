import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detoxaudit import (
    EmbeddingClient,
    ProviderConfig,
    ProviderError,
    RewriteClient,
    RewriteRequest,
    SentimentClient,
    StubEmbedder,
    StubRewriter,
    StubSentimentClassifier,
)


class MockProvider:
    """Local HTTP endpoint with a programmable failure budget."""

    def __init__(self, response, fail_first=0, status_on_fail=503):
        self.response = response
        self.fail_first = fail_first
        self.status_on_fail = status_on_fail
        self.requests_seen = 0
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                outer.requests_seen += 1
                length = int(self.headers.get("Content-Length", 0))
                self.rfile.read(length)
                if outer.requests_seen <= outer.fail_first:
                    self.send_response(outer.status_on_fail)
                    self.end_headers()
                    return
                body = json.dumps(outer.response).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        self.server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/"

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture
def mock_provider():
    servers = []

    def factory(response, **kwargs):
        server = MockProvider(response, **kwargs)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        server.close()


def fast_cfg(endpoint, **kw):
    params = dict(endpoint=endpoint, timeout=2.0, max_retries=3, backoff_base=0.05)
    params.update(kw)
    return ProviderConfig(**params)


class TestSentimentClient:
    def test_success(self, mock_provider):
        server = mock_provider({"label": "NEGATIVE", "score": 0.992})
        client = SentimentClient(fast_cfg(server.url))
        assert client.classify("f*ck you") == ("NEGATIVE", 0.992)

    def test_empty_text_rejected(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        client = SentimentClient(fast_cfg(server.url))
        with pytest.raises(ValueError, match="empty text"):
            client.classify("")

    def test_two_failures_then_success(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9}, fail_first=2)
        client = SentimentClient(fast_cfg(server.url))
        assert client.classify("hello") == ("POSITIVE", 0.9)
        assert client.last_retries == 2
        assert server.requests_seen == 3

    def test_permanent_failure_exhausts_budget(self, mock_provider):
        server = mock_provider({}, fail_first=10**6)
        cfg = fast_cfg(server.url, max_retries=2)
        client = SentimentClient(cfg)
        backoff_sum = cfg.backoff_base * (2**cfg.max_retries - 1)
        start = time.monotonic()
        with pytest.raises(ProviderError):
            client.classify("hello")
        elapsed = time.monotonic() - start
        assert server.requests_seen == cfg.max_retries + 1
        assert elapsed <= cfg.timeout * (cfg.max_retries + 1) + backoff_sum

    def test_malformed_response(self, mock_provider):
        server = mock_provider({"unexpected": 1})
        client = SentimentClient(fast_cfg(server.url))
        with pytest.raises(ProviderError, match="malformed"):
            client.classify("hello")

    def test_out_of_contract_label(self, mock_provider):
        server = mock_provider({"label": "MEH", "score": 0.5})
        client = SentimentClient(fast_cfg(server.url))
        with pytest.raises(ProviderError):
            client.classify("hello")

    def test_memory_cache_avoids_second_call(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        client = SentimentClient(fast_cfg(server.url))
        client.classify("hello")
        client.classify("hello")
        assert server.requests_seen == 1

    def test_disk_cache_survives_new_client(self, mock_provider, tmp_path):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        cfg = fast_cfg(server.url, cache_dir=str(tmp_path / "cache"))
        SentimentClient(cfg).classify("hello")
        SentimentClient(cfg).classify("hello")
        assert server.requests_seen == 1

    def test_out_of_contract_response_never_cached(self, mock_provider, tmp_path):
        server = mock_provider({"label": "MAYBE", "score": 0.5})
        cache = tmp_path / "cache"
        client = SentimentClient(fast_cfg(server.url, cache_dir=str(cache)))
        for _ in range(2):
            with pytest.raises(ProviderError, match="out-of-contract"):
                client.classify("hello")
        assert server.requests_seen == 2
        assert list(cache.iterdir()) == []

    def test_rejected_cache_file_fetched_again(self, mock_provider, tmp_path):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        cfg = fast_cfg(server.url, cache_dir=str(tmp_path / "cache"))
        SentimentClient(cfg).classify("hello")
        (cached,) = (tmp_path / "cache").iterdir()
        cached.write_text(json.dumps({"label": "MAYBE", "score": 0.5}))
        client = SentimentClient(cfg)
        assert client.classify("hello") == ("POSITIVE", 0.9)
        assert client.classify("hello") == ("POSITIVE", 0.9)
        assert server.requests_seen == 2
        assert json.loads(cached.read_text())["label"] == "POSITIVE"

    def test_undecodable_cache_file_fetched_again(self, mock_provider, tmp_path):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        cfg = fast_cfg(server.url, cache_dir=str(tmp_path / "cache"))
        SentimentClient(cfg).classify("hello")
        (cached,) = (tmp_path / "cache").iterdir()
        cached.write_text("{")
        client = SentimentClient(cfg)
        assert client.classify("hello") == ("POSITIVE", 0.9)
        assert server.requests_seen == 2
        assert json.loads(cached.read_text()) == {"label": "POSITIVE", "score": 0.9}


class TestEmbeddingClient:
    def test_unit_normalization(self, mock_provider):
        server = mock_provider({"vector": [3.0, 4.0]})
        client = EmbeddingClient(fast_cfg(server.url))
        vec = client.embed("text")
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-6)

    def test_identical_text_identical_vector(self, mock_provider):
        server = mock_provider({"vector": [1.0, 2.0, 3.0]})
        client = EmbeddingClient(fast_cfg(server.url))
        assert np.array_equal(client.embed("same"), client.embed("same"))
        assert server.requests_seen == 1

    @pytest.mark.parametrize(
        "vector", [[float("nan"), 1.0], [1.0, float("inf")], [], [[1.0, 2.0], [3.0, 4.0]], 1.0]
    )
    def test_out_of_contract_vector_never_cached(self, mock_provider, tmp_path, vector):
        server = mock_provider({"vector": vector})
        cache = tmp_path / "cache"
        client = EmbeddingClient(fast_cfg(server.url, cache_dir=str(cache)))
        for _ in range(2):
            with pytest.raises(ProviderError, match="out-of-contract"):
                client.embed("text")
        assert server.requests_seen == 2
        assert list(cache.iterdir()) == []

    def test_zero_vector_never_cached(self, mock_provider, tmp_path):
        server = mock_provider({"vector": [0, 0, 0]})
        cache = tmp_path / "cache"
        client = EmbeddingClient(fast_cfg(server.url, cache_dir=str(cache)))
        for _ in range(2):
            with pytest.raises(ProviderError, match="out-of-contract zero-norm vector"):
                client.embed("text")
        assert server.requests_seen == 2
        assert list(cache.iterdir()) == []

    def test_returned_vector_is_read_only(self, mock_provider):
        server = mock_provider({"vector": [3.0, 4.0]})
        client = EmbeddingClient(fast_cfg(server.url))
        vec = client.embed("text")
        with pytest.raises(ValueError):
            vec *= 0
        assert client.embed("text").tolist() == [0.6, 0.8]


class TestRewriteClient:
    def test_passthrough(self, mock_provider):
        server = mock_provider({"text": "clean line one\nclean line two"})
        client = RewriteClient(fast_cfg(server.url))
        req = RewriteRequest("dirty line one\ndirty line two")
        assert client.rewrite(req) == "clean line one\nclean line two"

    def test_line_count_drift_warns_but_returns(self, mock_provider):
        server = mock_provider({"text": "only\nthree\nlines"})
        client = RewriteClient(fast_cfg(server.url))
        req = RewriteRequest("\n".join(f"line {i}" for i in range(10)))
        with pytest.warns(UserWarning, match="line count"):
            result = client.rewrite(req)
        assert result == "only\nthree\nlines"

    def test_empty_response_surfaced(self, mock_provider):
        server = mock_provider({"text": ""})
        client = RewriteClient(fast_cfg(server.url))
        with pytest.raises(ProviderError, match="empty or refused"):
            client.rewrite(RewriteRequest("some lyrics"))

    def test_template_placeholder_required(self):
        with pytest.raises(ValueError):
            RewriteRequest("x", prompt_template="no placeholder here")
        with pytest.raises(ValueError):
            RewriteRequest("x", prompt_template="[lyrics] twice [lyrics]")

    def test_prompt_substitution(self):
        req = RewriteRequest("la la la", prompt_template="Fix: [lyrics]")
        assert req.prompt() == "Fix: la la la"


class TestStubs:
    def test_stub_sentiment_deterministic(self):
        a, b = StubSentimentClassifier(), StubSentimentClassifier()
        for text in ("hate you", "sunny day", "kill the lights"):
            assert a.classify(text) == b.classify(text)

    def test_stub_sentiment_lexicon_hit(self):
        assert StubSentimentClassifier().classify("i hate this") == ("NEGATIVE", 0.99)

    def test_stub_sentiment_clean_text(self):
        assert StubSentimentClassifier().classify("what a day") == ("POSITIVE", 0.9)

    def test_stub_embedder_unit_and_deterministic(self):
        emb = StubEmbedder()
        v1, v2 = emb.embed("hello"), StubEmbedder().embed("hello")
        assert np.array_equal(v1, v2)
        assert np.linalg.norm(v1) == pytest.approx(1.0, abs=1e-9)
        assert v1.shape == (768,)

    def test_stub_embedder_memo_cannot_be_changed_through_result(self):
        emb = StubEmbedder()
        vec = emb.embed("hello")
        with pytest.raises(ValueError):
            vec *= 0
        assert np.linalg.norm(emb.embed("hello")) == pytest.approx(1.0, abs=1e-9)

    def test_stub_embedder_distinct_texts_differ(self):
        emb = StubEmbedder()
        assert abs(float(emb.embed("aaa") @ emb.embed("bbb"))) < 0.5

    def test_stub_rewriter_lexicon_replacement(self):
        out = StubRewriter().rewrite(RewriteRequest("i hate you\nclean line"))
        assert out == "i doubt you\nclean line"

    def test_stub_rewriter_deterministic(self):
        req = RewriteRequest("kill the gun violence")
        assert StubRewriter().rewrite(req) == StubRewriter().rewrite(req)


@st.composite
def texts_with_repeats(draw):
    pool = draw(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=24))


@settings(max_examples=40, deadline=None, database=None)
@given(texts=texts_with_repeats())
def test_memoized_stubs_match_fresh_instances(texts):
    classifier, embedder = StubSentimentClassifier(), StubEmbedder(dimension=16)
    for text in texts:
        assert classifier.classify(text) == StubSentimentClassifier().classify(text)
        assert np.array_equal(embedder.embed(text), StubEmbedder(dimension=16).embed(text))
    assert classifier.call_count == len(set(texts))


def test_memo_counts_every_text_under_threads():
    classifier = StubSentimentClassifier()
    texts = [f"line {i}" for i in range(1600)]

    def classify_all(part):
        for text in part:
            classifier.classify(text)

    workers = [threading.Thread(target=classify_all, args=(texts[k::8],)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert classifier.call_count == len(texts)
    assert all(classifier.classify(t) == ("POSITIVE", 0.9) for t in texts)
    assert classifier.call_count == len(texts)


class TestProviderConfig:
    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            ProviderConfig(timeout=0)

    def test_invalid_retries(self):
        with pytest.raises(ValueError):
            ProviderConfig(max_retries=-1)

    @pytest.mark.parametrize("timeout", (float("nan"), float("inf"), -1.0))
    def test_non_finite_or_negative_timeout(self, timeout):
        with pytest.raises(ValueError, match="timeout"):
            ProviderConfig(timeout=timeout)

    @pytest.mark.parametrize("backoff", (-1.0, float("nan"), float("inf")))
    def test_negative_or_non_finite_backoff(self, backoff):
        with pytest.raises(ValueError, match="backoff_base"):
            ProviderConfig(backoff_base=backoff)

    def test_zero_backoff_allowed(self):
        assert ProviderConfig(backoff_base=0.0).backoff_base == 0.0
