"""Record the reference outputs of one workload's inputs with the seed snapshot.

    python3 perfbench/reference.py --inputs DIR --out DIR

``perfbench/seed/detoxaudit`` is a byte-for-byte copy of the package at
the commit that defined this benchmark. Running it on the same generated
inputs gives the outputs the code under test must reproduce, for any
seed. Audio pairs run through the offline stubs as in the benchmark; the
lyric corpus runs through the stubs that the loopback fake also answers
with. The snapshot's pipeline pool is replaced by a serial executor, which
gives the same report in less time.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import Future
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "seed"))

import detoxaudit as da  # noqa: E402  (the seed snapshot)
from detoxaudit import report as seed_report  # noqa: E402

import items  # noqa: E402

if not Path(da.__file__).resolve().is_relative_to(HERE / "seed"):
    raise SystemExit(f"reference: imported detoxaudit from {da.__file__}, not the seed snapshot")


class _SerialExecutor:
    """Runs each submitted call at once, in the caller's thread."""

    def __init__(self, max_workers=None):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        fut = Future()
        fut.set_result(fn(*args))
        return fut


def record(inputs: Path, out: Path) -> None:
    manifest = items.read_manifest(inputs)
    out.mkdir(parents=True, exist_ok=True)
    if "songs" in manifest["files"]:
        rewriter, classifier = da.StubRewriter(), da.StubSentimentClassifier()
        embedder = da.StubEmbedder()
        with open(out / "lyrics.jsonl", "w", encoding="utf-8") as fh:
            for name in manifest["files"]["songs"]:
                text = (inputs / name).read_text(encoding="utf-8")
                fh.write(json.dumps(items.lyric_item(text, rewriter, classifier, embedder)) + "\n")
    else:
        seed_report.ThreadPoolExecutor = _SerialExecutor
        items.audio_item(
            items.audio_bundles(inputs, manifest), da.PreprocessConfig(),
            da.StubSentimentClassifier(), da.StubEmbedder(), out,
        )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--inputs", required=True, type=Path)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    record(args.inputs, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
