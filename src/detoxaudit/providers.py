"""Clients for the external inference services, plus deterministic offline stubs.

Three services are wrapped: sentiment classification, text embedding, and
LLM lyric rewriting. All speak the same minimal protocol: POST
``{"input": <text>}``; responses are ``{"label", "score"}``,
``{"vector": [...]}`` and ``{"text": "..."}`` respectively. Each client
retries transient failures with exponential backoff and caches the
responses that meet its contract on disk, keyed by (provider, input hash).
All but the stub rewriter memoize their results by input text. An HTTP
client fetches a batch of texts (``prefetch``) through a fixed pool
of FETCH_WORKERS threads; the stubs compute serially.
"""

from __future__ import annotations

import functools
import hashlib
import http.client
import json
import math
import os
import threading
import time
import urllib.error
import urllib.parse
import urllib.request
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np

ENV_SENTIMENT_URL = "DETOX_SENTIMENT_URL"
ENV_EMBED_URL = "DETOX_EMBED_URL"
ENV_REWRITE_URL = "DETOX_REWRITE_URL"
ENV_API_TOKEN = "DETOX_API_TOKEN"

FETCH_WORKERS = 4  # requests in flight per HTTP client during a prefetch
LENGTH_TOLERANCE = 0.2  # relative change in non-blank lines a rewrite makes without a warning
STUB_DIMENSION = 768  # length of StubEmbedder's vectors

DEFAULT_REWRITE_TEMPLATE = (
    "Rewrite the lyrics so that it is not abusive and make sure it has "
    "the same length and flow: [lyrics]"
)


class ProviderError(RuntimeError):
    """Raised when a provider call fails after exhausting retries."""


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = ""
    auth_token: str = ""
    timeout: float = 30.0
    max_retries: int = 3
    backoff_base: float = 1.0
    cache_dir: str | None = None

    def __post_init__(self):
        if not (math.isfinite(self.timeout) and self.timeout > 0):
            raise ValueError("timeout must be positive and finite")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if not (math.isfinite(self.backoff_base) and self.backoff_base >= 0):
            raise ValueError("backoff_base must be >= 0 and finite")


@dataclass(frozen=True)
class RewriteRequest:
    lyrics: str

    def prompt(self) -> str:
        return DEFAULT_REWRITE_TEMPLATE.replace("[lyrics]", self.lyrics)


def _cache_key(provider: str, text: str) -> str:
    # the literal "default" keeps the file names of existing caches valid
    return hashlib.sha256(f"{provider}|default|{text}".encode("utf-8")).hexdigest()


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    """Follows no redirect, so the Authorization header never reaches another URL."""

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return None  # the 3xx is raised as an HTTPError


_OPENER = urllib.request.build_opener(_NoRedirect)


class _Provider:
    """One memo per provider instance, keyed by the input text, behind one lock."""

    def __init__(self):
        self._memo = {}
        self._lock = threading.Lock()

    def _memoized(self, text: str, compute):
        """The memoized result for text, or compute(text), stored for the next call."""
        if not text:
            raise ValueError("empty text")
        with self._lock:
            if text in self._memo:
                return self._memo[text]
        value = compute(text)
        if isinstance(value, np.ndarray):
            value.setflags(write=False)  # a caller must not change what later calls return
        with self._lock:
            self._memo[text] = value
        return value


class _HttpProvider(_Provider):
    """Shared retry / backoff / disk cache machinery for the HTTP clients.

    Each subclass defines ``_parse``, which checks a payload against the
    service contract and raises ProviderError when it does not hold.
    """

    name = "provider"

    def __init__(self, cfg: ProviderConfig):
        super().__init__()
        self.cfg = cfg
        self.retries = 0  # retry attempts over the client's lifetime

    def prefetch(self, texts):
        """Fetch the memo misses among texts, FETCH_WORKERS at a time.

        Each distinct miss is requested once. Once a fetch fails, no further
        text is started; the error of the earliest failing text in the
        order given is raised, after every pool thread has finished.
        """
        with self._lock:
            misses = [t for t in dict.fromkeys(texts) if t not in self._memo]
        stop = threading.Event()

        def fetch(text):
            if stop.is_set():
                return
            try:
                self._memoized(text, self._request)
            except BaseException:
                stop.set()
                raise

        with ThreadPoolExecutor(FETCH_WORKERS, thread_name_prefix=f"{self.name}-fetch") as pool:
            for _ in pool.map(fetch, misses):
                pass

    def _cache_path(self, key: str) -> Path | None:
        if not self.cfg.cache_dir:
            return None
        d = Path(self.cfg.cache_dir)
        d.mkdir(parents=True, exist_ok=True)
        return d / f"{key}.json"

    def _request(self, text: str):
        """_parse of the disk-cached payload for text, or POST with retries.

        A payload is written to disk only after _parse accepts it, and _parse
        runs again on every disk read.
        """
        path = self._cache_path(_cache_key(self.name, text))
        if path is not None and path.exists():
            try:
                return self._parse(json.loads(path.read_text("utf-8")))
            except (ProviderError, ValueError):
                pass  # a file that does not decode or breaks the contract: fetch it again
        endpoint = self.cfg.endpoint
        try:  # the opener would retry a malformed endpoint, or read a file: URL
            url = urllib.parse.urlsplit(endpoint)  # raises for e.g. "http://[::1"
            url.port  # raises unless the port is absent or a number in 0-65535
            has_user = url.username is not None  # urllib would take "user@" for the host
            if url.scheme not in ("http", "https") or not url.hostname or has_user:
                raise ValueError(f"{endpoint!r} is not an http or https URL with a host, no user")
        except ValueError as exc:
            raise ProviderError(f"{self.name}: bad response: {exc}") from exc
        headers = {"Content-Type": "application/json"}
        if self.cfg.auth_token:
            headers["Authorization"] = f"Bearer {self.cfg.auth_token}"
        body = json.dumps({"input": text}).encode("utf-8")
        last_error = None
        for attempt in range(self.cfg.max_retries + 1):
            if attempt > 0:
                time.sleep(self.cfg.backoff_base * 2 ** (attempt - 1))
                with self._lock:
                    self.retries += 1
            req = urllib.request.Request(endpoint, body, headers, method="POST")
            try:
                resp = _OPENER.open(req, timeout=self.cfg.timeout)
            except urllib.error.HTTPError as exc:  # any status but 2xx, a redirect included
                exc.close()  # it holds the open response
                if exc.code >= 500 or exc.code == 429:
                    last_error = ProviderError(f"{self.name}: HTTP {exc.code} from {endpoint}")
                    continue
                raise ProviderError(f"{self.name}: bad response: {exc}") from exc
            except http.client.InvalidURL as exc:  # e.g. a space in the path; no retry mends it
                raise ProviderError(f"{self.name}: bad response: {exc}") from exc
            except (OSError, http.client.HTTPException) as exc:
                # refused, DNS, TLS, timeout, or no status line and headers that parse
                last_error = exc
                continue
            try:
                with resp:
                    payload = json.loads(resp.read())
            except OSError as exc:  # timeout or dropped connection in the body
                last_error = exc
                continue
            except (http.client.HTTPException, ValueError) as exc:
                raise ProviderError(f"{self.name}: bad response: {exc}") from exc
            value = self._parse(payload)
            if path is not None:
                _write_atomic(path, [json.dumps(payload, sort_keys=True)])
            return value
        raise ProviderError(
            f"{self.name}: giving up after {self.cfg.max_retries + 1} attempts: {last_error}"
        )


def _write_atomic(path: Path, chunks):
    """Publish the strings of chunks, written in order, at path through a temp
    file of this writer's own, so that concurrent writers of one key never tear
    or steal each other's file. If chunks raises, nothing is published."""
    tmp = path.with_name(f"{path.stem}{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # the umask applies, as to open()
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class SentimentClient(_HttpProvider):
    name = "sentiment"

    def classify(self, text: str) -> tuple:
        return self._memoized(text, self._request)

    @staticmethod
    def _parse(payload) -> tuple:
        try:
            label = payload["label"]
            score = float(payload["score"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"sentiment: malformed response {payload!r}") from exc
        if label not in ("POSITIVE", "NEGATIVE") or not 0 <= score <= 1:
            raise ProviderError(f"sentiment: out-of-contract response {payload!r}")
        return label, score


class EmbeddingClient(_HttpProvider):
    name = "embedding"

    def embed(self, text: str) -> np.ndarray:
        return self._memoized(text, self._request)

    def _parse(self, payload) -> np.ndarray:
        try:
            vec = np.asarray(payload["vector"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise ProviderError(f"embedding: malformed response {payload!r}") from exc
        if vec.ndim != 1 or vec.size == 0 or not np.isfinite(vec).all():
            raise ProviderError(f"embedding: out-of-contract response {payload!r}")
        norm = np.linalg.norm(vec)
        if norm == 0:  # no direction, so no cosine to score
            raise ProviderError(f"embedding: out-of-contract zero-norm vector {payload!r}")
        return vec / norm


class RewriteClient(_HttpProvider):
    name = "rewrite"

    def rewrite(self, req: RewriteRequest) -> str:
        text = self._memoized(req.prompt(), self._request)
        _check_length_contract(req.lyrics, text)
        return text

    @staticmethod
    def _parse(payload) -> str:
        text = payload.get("text") if isinstance(payload, dict) else None
        if not text:
            raise ProviderError(f"rewrite: empty or refused response {payload!r}")
        return text


def _check_length_contract(original: str, rewritten: str):
    n_in = len([l for l in original.splitlines() if l.strip()])
    n_out = len([l for l in rewritten.splitlines() if l.strip()])
    if n_in and abs(n_out - n_in) / n_in > LENGTH_TOLERANCE:
        warnings.warn(
            f"rewrite changed line count from {n_in} to {n_out} "
            f"(> {LENGTH_TOLERANCE:.0%}); length-and-flow contract likely broken"
        )


@functools.cache
def _load_lexicon() -> MappingProxyType:
    """The bundled lexicon, word -> replacement, read once per process."""
    text = resources.files("detoxaudit.data").joinpath("profanity_lexicon.txt").read_text("utf-8")
    lexicon = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        word, _, replacement = line.partition("\t")
        lexicon[word.lower()] = replacement or "friend"
    return MappingProxyType(lexicon)


class StubSentimentClassifier(_Provider):
    """Offline deterministic classifier backed by the bundled lexicon.

    Any lexicon hit scores NEGATIVE 0.99; everything else POSITIVE 0.9.
    call_count counts the texts scored, not the memo hits.
    """

    def __init__(self):
        super().__init__()
        self._lexicon = _load_lexicon()
        self.call_count = 0

    def classify(self, text: str) -> tuple:
        return self._memoized(text, self._score)

    def _score(self, text: str) -> tuple:
        words = {w.strip(".,!?\"()") for w in text.lower().split()}
        hit = bool(words & self._lexicon.keys())
        with self._lock:
            self.call_count += 1
        return ("NEGATIVE", 0.99) if hit else ("POSITIVE", 0.9)


class StubEmbedder(_Provider):
    """Deterministic pseudo-random unit vectors of STUB_DIMENSION, seeded by the input hash."""

    def embed(self, text: str) -> np.ndarray:
        return self._memoized(text, self._vector)

    def _vector(self, text: str) -> np.ndarray:
        seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:4], "big")
        rng = np.random.RandomState(seed)
        vec = rng.standard_normal(STUB_DIMENSION)
        vec /= np.linalg.norm(vec)
        return vec


class StubRewriter:
    """Replaces lexicon-listed words with fixed neutral tokens, all else verbatim."""

    def __init__(self):
        self._lexicon = _load_lexicon()

    def rewrite(self, req: RewriteRequest) -> str:
        out_lines = []
        for line in req.lyrics.splitlines():
            words = line.split(" ")
            replaced = []
            for w in words:
                stripped = w.strip(".,!?\"()").lower()
                if stripped in self._lexicon:
                    replaced.append(self._lexicon[stripped])
                else:
                    replaced.append(w)
            out_lines.append(" ".join(replaced))
        result = "\n".join(out_lines)
        _check_length_contract(req.lyrics, result)
        return result


def client_from_env(cls, url_var: str):
    """An HTTP client of class cls for $url_var and $DETOX_API_TOKEN, other settings default."""
    return cls(ProviderConfig(os.environ.get(url_var, ""), os.environ.get(ENV_API_TOKEN, "")))
