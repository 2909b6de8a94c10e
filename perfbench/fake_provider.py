"""Loopback stand-in for the three inference services.

    python3 perfbench/fake_provider.py --delay-ms 2 --fail-share 0.1

Speaks the README wire format: ``POST {"input": <text>}`` to a path ending
in ``/sentiment``, ``/embedding`` or ``/rewrite``. Answers come from the
offline stubs of the seed snapshot in ``perfbench/seed``, so lyric results
fetched over HTTP must equal those of the stubs. Every POST waits a fixed
service delay. A fixed share of inputs, chosen by hash, gets a 503 the
first time it is asked for on a given path, so the client's retry path
runs; a caller that wants the same failures again uses a new path prefix.
``GET /stats`` returns the counters. The port is printed on the first line
of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent / "seed"))

from detoxaudit import providers as stubs  # noqa: E402  (the seed snapshot)

_PROMPT_HEAD, _PROMPT_TAIL = stubs.DEFAULT_REWRITE_TEMPLATE.split("[lyrics]")


def fails_first(service: str, text: str, share: float) -> bool:
    """Whether this input gets a 503 on its first request; fixed by hash."""
    digest = hashlib.sha256(f"{service}|{text}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big") < share * 2**32


class FakeService:
    """Stub answers plus the request counters, shared by the handler threads."""

    def __init__(self, delay_s: float, fail_share: float):
        self.delay_s = delay_s
        self.fail_share = fail_share
        self.classifier = stubs.StubSentimentClassifier()
        self.embedder = stubs.StubEmbedder()
        self.rewriter = stubs.StubRewriter()
        self.requests = 0
        self.unavailable = 0
        self._seen = set()
        self._lock = threading.Lock()

    def answer(self, path: str, text: str) -> tuple:
        """(HTTP status, JSON payload) for one POST."""
        service = path.rstrip("/").rsplit("/", 1)[-1]
        with self._lock:
            self.requests += 1
            first = (path, text) not in self._seen
            self._seen.add((path, text))
            refuse = first and fails_first(service, text, self.fail_share)
            if refuse:
                self.unavailable += 1
        time.sleep(self.delay_s)
        if refuse:
            return 503, {"error": "busy"}
        if service == "sentiment":
            label, score = self.classifier.classify(text)
            return 200, {"label": label, "score": score}
        if service == "embedding":
            return 200, {"vector": self.embedder.embed(text).tolist()}
        if service == "rewrite":
            if not (text.startswith(_PROMPT_HEAD) and text.endswith(_PROMPT_TAIL)):
                return 400, {"error": "prompt does not follow the rewrite template"}
            lyrics = text[len(_PROMPT_HEAD) : len(text) - len(_PROMPT_TAIL)]
            return 200, {"text": self.rewriter.rewrite(stubs.RewriteRequest(lyrics))}
        return 404, {"error": f"unknown service {service!r}"}

    def stats(self) -> dict:
        with self._lock:
            return {"requests": self.requests, "unavailable": self.unavailable}


def make_server(delay_s: float, fail_share: float, port: int = 0) -> ThreadingHTTPServer:
    service = FakeService(delay_s, fail_share)

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            try:
                body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
                text = json.loads(body)["input"]
            except (ValueError, KeyError, TypeError):
                self._send(400, {"error": "expected {\"input\": <text>}"})
                return
            self._send(*service.answer(self.path, text))

        def do_GET(self):
            if self.path == "/stats":
                self._send(200, service.stats())
            else:
                self._send(404, {"error": "not found"})

        def _send(self, status: int, payload: dict):
            body = json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", port), Handler)
    server.daemon_threads = True
    server.service = service
    return server


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--delay-ms", type=float, default=2.0, help="service delay per POST")
    ap.add_argument("--fail-share", type=float, default=0.1, help="share of inputs 503'd once")
    args = ap.parse_args(argv)
    server = make_server(args.delay_ms / 1000, args.fail_share)
    print(server.server_address[1], flush=True)
    server.serve_forever()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
