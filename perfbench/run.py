"""detoxaudit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload dense_pair --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout that holds ``src/detoxaudit``. The run
generates the workload's inputs from the seed, records the seed snapshot's
reference outputs for them (cached per seed under ``.perfbench_work/``),
starts the loopback provider fake when the workload needs it, then starts
the measured worker in a fresh interpreter. Every output the worker wrote
is checked against the reference. The metrics are printed as a table, and
the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are its per-layer metrics, from
a run that records a span around every public call. The exit code is 0
when the check passed and 1 when it did not; 2 means the run could not be
made at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import gen  # noqa: E402

WORK = ROOT / ".perfbench_work"
SETUP_TRIALS = 3  # worker starts per untraced run whose set-up time is measured
FAKE_DELAY_MS = 2.0
FAKE_FAIL_SHARE = 0.1
DEADLINE_S = 170.0  # the whole run, so that it ends inside three minutes


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


def _digest() -> str:
    """Hash of the benchmark's own files, which alone decide the reference."""
    h = hashlib.sha256()
    for p in sorted(HERE.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(str(p.relative_to(HERE)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:16]


def _child(args: list, timeout: float, **kw) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *map(str, args)], timeout=timeout, **kw)
    if proc.returncode != 0:
        raise BenchError(f"{Path(str(args[0])).name} exited with {proc.returncode}")
    return proc


class Fake:
    """The loopback provider fake in a child process, stopped on exit."""

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "fake_provider.py"),
             "--delay-ms", str(FAKE_DELAY_MS), "--fail-share", str(FAKE_FAIL_SHARE)],
            stdout=subprocess.PIPE, text=True,
        )
        port = self.proc.stdout.readline().strip()
        if not port.isdigit():
            self.__exit__()
            raise BenchError("provider fake did not start")
        self.url = f"http://127.0.0.1:{port}"
        return self

    def stats(self) -> dict:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=10) as resp:
            return json.loads(resp.read())

    def __exit__(self, *exc):
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class NoFake:
    url = ""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def stats(self) -> dict:
        return {"requests": 0, "unavailable": 0}


def reference(workload: str, seed: int, inputs: Path, left: float) -> Path:
    """The seed snapshot's outputs for these inputs, recorded once per seed."""
    ref = WORK / "ref" / f"{workload}-{seed}-{_digest()}"
    if not (ref / "done").exists():
        tmp = ref.with_name(ref.name + ".tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        _child([HERE / "reference.py", "--inputs", inputs, "--out", tmp], left)
        (tmp / "done").touch()
        shutil.rmtree(ref, ignore_errors=True)
        tmp.rename(ref)
    return ref


def check_outputs(workload: str, run_dir: Path, ref: Path) -> tuple:
    """(outputs checked, mismatches) for everything the worker wrote."""
    problems, checked = [], 0
    if workload in ("dense_pair", "sparse_pair"):
        kinds = sorted(p.stem for p in ref.glob("*.csv"))
        for item in sorted((run_dir / "items").iterdir()):
            problems += check.check_audio_item(item, ref, kinds)
            if workload == "dense_pair":
                rep = json.loads((item / "report.json").read_text(encoding="utf-8"))
                problems += check.all_voice_metrics(rep)
            checked += 1
    else:
        expected = [
            json.loads(line)
            for line in (ref / "lyrics.jsonl").read_text(encoding="utf-8").splitlines()
        ]
        outputs = run_dir / "outputs.jsonl"
        lines = outputs.read_text(encoding="utf-8").splitlines() if outputs.exists() else []
        for line in lines:
            rec = json.loads(line)
            check.diff(rec["output"], expected[rec["song"]], f"pass{rec['pass']}.song{rec['song']}",
                       problems)
            checked += 1
    return checked, problems


def self_time_table(path: Path, top: int = 8) -> list:
    """(span name, self seconds per traced pass) for the names with the most."""
    totals, passes = {}, set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            totals[span["name"]] = totals.get(span["name"], 0.0) + span["self"]
            passes.add(span["trace"])
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [(name, secs / len(passes)) for name, secs in ranked]


def run(args) -> dict:
    t_start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - t_start)

    if not (ROOT / "src" / "detoxaudit" / "__init__.py").is_file():
        raise BenchError(f"no src/detoxaudit under {ROOT}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    run_dir = WORK / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    inputs = run_dir / "inputs"
    gen.generate(args.workload, args.seed, inputs)
    ref = reference(args.workload, args.seed, inputs, left())

    lyric = args.workload.startswith("lyrics_")
    with (Fake() if lyric else NoFake()) as fake:

        def worker(work_dir: Path, *extra) -> list:
            return [HERE / "worker.py", "--workload", args.workload, "--inputs", inputs,
                    "--run-dir", work_dir, "--seconds", args.seconds, "--fake", fake.url, *extra]

        opts = []
        if args.workload == "lyrics_warm_cache":
            cache = run_dir / "warm_cache"
            (run_dir / "fill").mkdir()
            _child(worker(run_dir / "fill", "--cache-dir", cache, "--fill"), left())
            opts = ["--cache-dir", cache]
        setups = []
        if not args.trace:
            for i in range(SETUP_TRIALS - 1):
                result = run_dir / f"setup{i}.json"
                t0 = time.monotonic()
                _child(worker(run_dir, *opts, "--setup-only", "--result", result), left())
                setups.append(json.loads(result.read_text())["ready"] - t0)
        before = fake.stats()
        result = run_dir / "worker.json"
        t0 = time.monotonic()
        _child(worker(run_dir, *opts, "--result", result, *(["--trace"] if args.trace else [])),
               left())
        after = fake.stats()
    res = json.loads(result.read_text(encoding="utf-8"))
    setups.append(res["ready"] - t0)

    checked, problems = check_outputs(args.workload, run_dir, ref)
    requests = after["requests"] - before["requests"]
    retries = after["unavailable"] - before["unavailable"]
    if checked == 0:
        problems.append("no outputs to check")
    if args.workload == "lyrics_warm_cache" and requests:
        problems.append(f"warm cache run made {requests} HTTP requests, expected 0")
    if args.workload == "lyrics_cold_http" and not retries:
        problems.append("cold run saw no 503 retries; the retry path did not run")

    if not res["walls"]:
        raise BenchError("no item completed")
    attempted = res["items"] + res["calls"]
    failed = res["failed_items"] + res["failed_calls"]
    if args.trace:
        layer = res["layer"]
        layer["error_rate"] = failed / attempted
        values = {m["name"]: (layer[m["name"]], m["unit"]) for m in spec["per_layer"]}
        notes = {
            "providers.call_ms_p50": f"n={layer['providers.call_samples']}",
            "providers.call_ms_p99": f"n={layer['providers.call_samples']}",
            "providers.cache_hit_ratio": f"base: {layer['providers.calls']:g} calls per pass",
        }
    else:
        e2e = {
            "setup_s": statistics.median(setups),
            "pair_wall_s": statistics.median(res["walls"]),
            "lines_per_s": res["lines"] / res["timed_s"],
            "peak_rss_mb": res["rss_kb"] / 1024,
        }
        values = {m["name"]: (e2e[m["name"]], m["unit"]) for m in spec["end_to_end"]}
        notes = {
            "setup_s": f"median of n={len(setups)} starts",
            "pair_wall_s": f"median of n={len(res['walls'])} items",
            "lines_per_s": f"{res['lines']} lines in {res['timed_s']:.3f} s",
        }
    notes["error_rate"] = f"{failed} of {attempted} operations"

    print(f"{args.workload} seed={args.seed} trace={int(args.trace)} passes={res['passes']} "
          f"http_requests={requests} retries={retries} outputs_checked={checked}")
    for name, (value, unit) in values.items():
        print(f"  {name:32s} {value:14.6g} {unit:8s} {notes.get(name, '')}")
    if not args.trace:
        print(f"  {'error_rate':32s} {failed / attempted:14.6g} {'fraction':8s} "
              f"{notes['error_rate']}")
    else:
        print(f"  {'busiest spans by self time':32s} {'s/pass':>14s}")
        for name, secs in self_time_table(run_dir / "spans.jsonl"):
            print(f"  {name:32s} {secs:14.6g}")
    for p in problems[: check.MAX_REPORTED]:
        print(f"  MISMATCH {p}")
    if len(problems) > check.MAX_REPORTED:
        print(f"  ... {len(problems) - check.MAX_REPORTED} more mismatches")
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
