import hashlib
import json
import os
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
    line_similarity,
    parse_lyrics,
    score_document,
)
from detoxaudit.providers import DEFAULT_REWRITE_TEMPLATE, FETCH_WORKERS, STUB_DIMENSION
from conftest import mode_of, plain_write_mode, pool_threads


class MockProvider:
    """Local HTTP endpoint with a programmable failure budget.

    The first fail_first requests get status_on_fail, sent with a Location
    header when redirect_to is set; when status_on_fail is None, a connection
    closed without an answer; when it is bytes, those bytes verbatim and then
    the connection closed. A GET, as a followed redirect sends, is handled as
    a POST. requests_seen counts the requests, and headers_seen and
    bodies_seen hold each one's request headers (looked up without regard to
    case) and body, in arrival order; peak_in_flight is the most requests
    handled at once, each counted until its response is about to be sent
    (after an optional delay_s), so that a client's next request never
    overlaps its last one in the count.
    """

    def __init__(self, response, fail_first=0, status_on_fail=503, redirect_to=None, delay_s=0.0):
        self.response = response
        self.fail_first = fail_first
        self.status_on_fail = status_on_fail
        self.redirect_to = redirect_to
        self.delay_s = delay_s
        self.requests_seen = 0
        self.headers_seen = []
        self.bodies_seen = []
        self.peak_in_flight = 0
        self._in_flight = 0
        self._lock = threading.Lock()
        outer = self

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                posted = self.rfile.read(length)
                with outer._lock:
                    outer.requests_seen += 1
                    outer.headers_seen.append(self.headers)
                    outer.bodies_seen.append(posted)
                    seen = outer.requests_seen
                    outer._in_flight += 1
                    outer.peak_in_flight = max(outer.peak_in_flight, outer._in_flight)
                time.sleep(outer.delay_s)
                with outer._lock:
                    outer._in_flight -= 1
                if seen <= outer.fail_first:
                    if outer.status_on_fail is None:
                        self.close_connection = True
                        return
                    if isinstance(outer.status_on_fail, bytes):
                        self.wfile.write(outer.status_on_fail)
                        self.close_connection = True
                        return
                    self.send_response(outer.status_on_fail)
                    if outer.redirect_to is not None:
                        self.send_header("Location", outer.redirect_to)
                    self.end_headers()
                    return
                body = json.dumps(outer.response).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            do_GET = do_POST

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
        assert client.retries == 2
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

    def test_bearer_token_sent_exactly_when_set(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        SentimentClient(fast_cfg(server.url, auth_token="s3cret")).classify("hello")
        SentimentClient(fast_cfg(server.url)).classify("hello")
        with_token, without = server.headers_seen
        assert with_token["Authorization"] == "Bearer s3cret"
        assert "Authorization" not in without

    def test_post_body_is_the_input_as_json(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        SentimentClient(fast_cfg(server.url)).classify("naïve \"line\" ♥")
        (headers,), (body,) = server.headers_seen, server.bodies_seen
        assert json.loads(body) == {"input": "naïve \"line\" ♥"}
        assert headers["Content-Type"] == "application/json"

    @pytest.mark.parametrize(
        "endpoint",
        ["", "http://", "localhost:8000", "ftp://example.invalid/x", "file:///etc/hostname",
         "http://127.0.0.1:99999/", "http://user@127.0.0.1/", "http://user:pw@127.0.0.1/",
         "http://127.0.0.1/a b"],
    )
    def test_malformed_endpoint_fails_at_once(self, endpoint):
        cfg = ProviderConfig(endpoint=endpoint, timeout=2.0, max_retries=2, backoff_base=1.0)
        client = SentimentClient(cfg)
        start = time.monotonic()
        with pytest.raises(ProviderError, match="bad response"):
            client.classify("hello")
        assert time.monotonic() - start < cfg.backoff_base / 2
        assert client.retries == 0

    def test_file_url_is_never_read(self, tmp_path):
        answer = tmp_path / "answer.json"
        answer.write_text(json.dumps({"label": "POSITIVE", "score": 0.9}))
        client = SentimentClient(fast_cfg(answer.as_uri()))
        with pytest.raises(ProviderError, match="bad response"):
            client.classify("hello")

    def test_server_slower_than_timeout_is_retried(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9}, delay_s=1.0)
        cfg = fast_cfg(server.url, timeout=0.2, max_retries=1)
        client = SentimentClient(cfg)
        with pytest.raises(ProviderError, match="giving up"):
            client.classify("hello")
        assert client.retries == cfg.max_retries
        assert server.requests_seen == cfg.max_retries + 1

    def test_connection_closed_without_answer_is_retried(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9}, fail_first=2, status_on_fail=None)
        client = SentimentClient(fast_cfg(server.url))
        assert client.classify("hello") == ("POSITIVE", 0.9)
        assert client.retries == 2
        assert server.requests_seen == 3

    def test_malformed_status_line_is_retried(self, mock_provider):
        server = mock_provider(
            {"label": "POSITIVE", "score": 0.9}, fail_first=2, status_on_fail=b"garbage\r\n"
        )
        client = SentimentClient(fast_cfg(server.url))
        assert client.classify("hello") == ("POSITIVE", 0.9)
        assert client.retries == 2
        assert server.requests_seen == 3

    def test_truncated_body_raises_without_retry(self, mock_provider):
        truncated = b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{"
        server = mock_provider({}, fail_first=10**6, status_on_fail=truncated)
        client = SentimentClient(fast_cfg(server.url))
        with pytest.raises(ProviderError, match="bad response"):
            client.classify("hello")
        assert server.requests_seen == 1
        assert client.retries == 0

    @pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
    def test_redirect_raises_and_token_never_leaves(self, mock_provider, status):
        elsewhere = mock_provider({"label": "POSITIVE", "score": 0.9})
        server = mock_provider(
            {}, fail_first=10**6, status_on_fail=status, redirect_to=elsewhere.url
        )
        client = SentimentClient(fast_cfg(server.url, auth_token="s3cret"))
        with pytest.raises(ProviderError, match=f"bad response.*{status}"):
            client.classify("hello")
        assert server.requests_seen == 1
        assert elsewhere.requests_seen == 0
        assert client.retries == 0

    def test_client_error_raises_without_retry(self, mock_provider):
        server = mock_provider({}, fail_first=10**6, status_on_fail=404)
        client = SentimentClient(fast_cfg(server.url))
        with pytest.raises(ProviderError, match="bad response.*404"):
            client.classify("hello")
        assert server.requests_seen == 1
        assert client.retries == 0

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

    def test_cache_file_name_is_stable(self, mock_provider, tmp_path):
        # sha256 of "sentiment|default|<text>": the name caches written so far carry
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        cache = tmp_path / "cache"
        SentimentClient(fast_cfg(server.url, cache_dir=str(cache))).classify("hello")
        name = hashlib.sha256(b"sentiment|default|hello").hexdigest() + ".json"
        assert [p.name for p in cache.iterdir()] == [name]

    def test_cache_file_gets_the_mode_of_a_plain_write(self, mock_provider, tmp_path, umask_022):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        cache = tmp_path / "cache"
        SentimentClient(fast_cfg(server.url, cache_dir=str(cache))).classify("hello")
        assert [mode_of(p) for p in cache.iterdir()] == [plain_write_mode(cache)] == [0o644]

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

    def test_two_writers_of_one_key_both_succeed(self, mock_provider, tmp_path, monkeypatch):
        server = mock_provider({"label": "POSITIVE", "score": 0.9})
        cache = tmp_path / "cache"
        cfg = fast_cfg(server.url, cache_dir=str(cache))
        # both writers reach the rename with their payload written before either renames
        barrier = threading.Barrier(2, timeout=5)
        replace = os.replace

        def replace_after_both_wrote(src, dst):
            if os.path.dirname(os.fspath(dst)) == str(cache):
                barrier.wait()
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_both_wrote)
        results, errors = [], []

        def write():
            try:
                results.append(SentimentClient(cfg).classify("hello"))
            except Exception as exc:  # noqa: BLE001 - the assertion below reports it
                errors.append(exc)

        writers = [threading.Thread(target=write) for _ in range(2)]
        for w in writers:
            w.start()
        for w in writers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in writers)
        assert errors == []
        assert results == [("POSITIVE", 0.9)] * 2
        assert server.requests_seen == 2
        assert [p.suffix for p in cache.iterdir()] == [".json"]
        assert SentimentClient(cfg).classify("hello") == ("POSITIVE", 0.9)
        assert server.requests_seen == 2


class TestPrefetch:
    def test_keeps_at_most_fetch_workers_in_flight(self, mock_provider):
        server = mock_provider({"label": "POSITIVE", "score": 0.9}, delay_s=0.02)
        client = SentimentClient(fast_cfg(server.url))
        texts = [f"line {i}" for i in range(20)]
        client.prefetch(texts)
        assert 2 <= server.peak_in_flight <= FETCH_WORKERS
        assert server.requests_seen == len(texts)
        assert all(client.classify(t) == ("POSITIVE", 0.9) for t in texts)
        assert server.requests_seen == len(texts)
        assert pool_threads() == []

    def test_fetches_each_distinct_miss_once(self, mock_provider):
        server = mock_provider({"vector": [3.0, 4.0]})
        client = EmbeddingClient(fast_cfg(server.url))
        client.embed("b")
        client.prefetch(["a", "b", "a", "c", "c", "b"])
        assert server.requests_seen == 3
        client.prefetch(["c", "a"])
        assert server.requests_seen == 3

    @pytest.mark.parametrize("failures, n_texts", [(3, 20), (40, 40)])
    def test_retries_counted_across_pool_threads(self, mock_provider, failures, n_texts):
        # every failed request is retried once, whichever thread made it; no text
        # can use up a budget of `failures` retries
        server = mock_provider({"label": "POSITIVE", "score": 0.9}, fail_first=failures)
        client = SentimentClient(fast_cfg(server.url, max_retries=failures, backoff_base=0.0))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            client.prefetch([f"line {i}" for i in range(n_texts)])
        finally:
            sys.setswitchinterval(interval)
        assert client.retries == failures
        assert server.requests_seen == n_texts + failures

    def test_failure_costs_one_retry_budget(self, mock_provider):
        server = mock_provider({}, fail_first=10**9)
        cfg = fast_cfg(server.url, max_retries=2)
        client = SentimentClient(cfg)
        with pytest.raises(ProviderError, match="giving up"):
            client.prefetch([f"line {i}" for i in range(40)])
        assert server.requests_seen <= FETCH_WORKERS * (cfg.max_retries + 1)
        assert pool_threads() == []

    def test_raises_error_of_earliest_failing_text(self, stub_server):
        client = EmbeddingClient(fast_cfg(stub_server + "embedding"))
        # the first text fails last: the error raised follows the text order, not the clock
        texts = ["slow bad first", "a", "b", "bad second", "c", "d"]
        with pytest.raises(ProviderError, match="slow bad first"):
            client.prefetch(texts)
        assert pool_threads() == []


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

    def test_prompt_substitution(self):
        head, tail = DEFAULT_REWRITE_TEMPLATE.split("[lyrics]")
        assert RewriteRequest("la la la").prompt() == head + "la la la" + tail


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
        assert v1.shape == (STUB_DIMENSION,)

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

    def test_stubs_share_one_read_only_lexicon(self):
        lexicon = StubSentimentClassifier()._lexicon
        assert StubRewriter()._lexicon is lexicon is StubSentimentClassifier()._lexicon
        with pytest.raises(TypeError):
            lexicon["hate"] = "love"


@st.composite
def texts_with_repeats(draw):
    pool = draw(st.lists(st.text(min_size=1, max_size=12), min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), max_size=24))


@pytest.fixture(scope="module")
def stub_server():
    """Base URL of a loopback service answering ``sentiment`` and ``embedding``
    from the offline stubs. An embedding input containing "bad" gets an
    out-of-contract answer that quotes it, one containing "slow" waits 0.2 s."""
    classifier, embedder = StubSentimentClassifier(), StubEmbedder()

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            text = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["input"]
            if self.path.endswith("sentiment"):
                label, score = classifier.classify(text)
                payload = {"label": label, "score": score}
            else:
                time.sleep(0.2 if "slow" in text else 0.0)
                vector = [] if "bad" in text else embedder.embed(text).tolist()
                payload = {"vector": vector, "input": text}
            body = json.dumps(payload).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address
    yield f"http://{host}:{port}/"
    server.shutdown()
    server.server_close()


@st.composite
def lyric_docs_with_repeats(draw):
    pool = draw(st.lists(
        st.text(alphabet="abcxyz !'", min_size=1, max_size=10).filter(str.strip),
        min_size=1, max_size=6,
    ))
    lines = draw(st.lists(st.sampled_from(pool + ["[Chorus]"]), min_size=1, max_size=30))
    return parse_lyrics("\n".join(["first line"] + lines))


@settings(max_examples=25, deadline=None, database=None)
@given(orig=lyric_docs_with_repeats(), trans=lyric_docs_with_repeats())
def test_http_clients_match_stubs_on_lyric_docs(stub_server, orig, trans):
    classifier = SentimentClient(fast_cfg(stub_server + "sentiment"))
    embedder = EmbeddingClient(fast_cfg(stub_server + "embedding"))
    stub_classifier, stub_embedder = StubSentimentClassifier(), StubEmbedder()
    for doc in (orig, trans):
        assert score_document(doc, classifier) == score_document(doc, stub_classifier)
    got = line_similarity(orig, trans, embedder).per_line
    want = line_similarity(orig, trans, stub_embedder).per_line
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None, database=None)
@given(texts=texts_with_repeats())
def test_memoized_stubs_match_fresh_instances(texts):
    classifier, embedder = StubSentimentClassifier(), StubEmbedder()
    for text in texts:
        assert classifier.classify(text) == StubSentimentClassifier().classify(text)
        assert np.array_equal(embedder.embed(text), StubEmbedder().embed(text))
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
