"""One short traced run of the lyric workload, end to end, as a subprocess."""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parents[1] / "run.py"


def test_traced_cold_run_passes_its_check_and_reports_every_layer_metric():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "lyrics_cold_http", "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    bench = json.loads((RUN.parents[1] / "BENCHMARK.json").read_text())
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in bench["per_layer"])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["providers.retries"] > 0
    assert metrics["providers.http_requests"] == metrics["providers.cache_files"] + metrics[
        "providers.retries"]
    assert metrics["lyrics.lines"] > 0 and metrics["voice.frames"] == 0
