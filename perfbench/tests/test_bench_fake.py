"""The loopback provider fake: answers, one 503 per failing input and path, counters."""

import json
import threading
import urllib.error
import urllib.request

import pytest

import fake_provider


@pytest.fixture
def fake():
    server = fake_provider.make_server(delay_s=0.0, fail_share=0.5)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)
    assert not thread.is_alive()


def _post(url, text):
    req = urllib.request.Request(
        url, data=json.dumps({"input": text}).encode(), headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _stats(base):
    with urllib.request.urlopen(f"{base}/stats", timeout=5) as resp:
        return json.loads(resp.read())


def _texts(service, failing, n=3):
    out = [t for t in (f"line number {i}" for i in range(200))
           if fake_provider.fails_first(service, t, 0.5) == failing]
    return out[:n]


def test_failing_input_gets_one_503_per_path(fake):
    text = _texts("sentiment", failing=True)[0]
    assert _post(f"{fake}/p0/sentiment", text)[0] == 503
    assert _post(f"{fake}/p0/sentiment", text)[0] == 200
    assert _post(f"{fake}/p0/sentiment", text)[0] == 200
    assert _post(f"{fake}/p1/sentiment", text)[0] == 503
    assert _stats(fake) == {"requests": 4, "unavailable": 2}


def test_other_inputs_never_fail(fake):
    for text in _texts("embedding", failing=False):
        status, payload = _post(f"{fake}/p0/embedding", text)
        assert status == 200 and len(payload["vector"]) == 768
    assert _stats(fake) == {"requests": 3, "unavailable": 0}


def test_fail_share_sets_the_failing_fraction():
    texts = [f"t{i}" for i in range(4000)]
    share = sum(fake_provider.fails_first("sentiment", t, 0.1) for t in texts) / len(texts)
    assert share == pytest.approx(0.1, abs=0.02)


def test_answers_follow_the_wire_format(fake):
    text = _texts("sentiment", failing=False)[0]
    assert _post(f"{fake}/p/sentiment", "I hate this") in (
        (200, {"label": "NEGATIVE", "score": 0.99}), (503, {"error": "busy"}))
    assert _post(f"{fake}/p/sentiment", text) == (200, {"label": "POSITIVE", "score": 0.9})
    head, tail = fake_provider._PROMPT_HEAD, fake_provider._PROMPT_TAIL
    prompt = f"{head}you damn fool\nsecond line{tail}"
    status, payload = _post(f"{fake}/q/rewrite", prompt)
    if status == 503:
        status, payload = _post(f"{fake}/q/rewrite", prompt)
    assert (status, payload) == (200, {"text": "you darn fool\nsecond line"})
    assert _post(f"{fake}/q/rewrite", "no template")[0] in (400, 503)
    assert _post(f"{fake}/q/unknown", text)[0] == 404


def test_stats_do_not_count_themselves(fake):
    _stats(fake)
    assert _stats(fake) == {"requests": 0, "unavailable": 0}
