"""Import hygiene: no run of the package loads SciPy or requests.

load_track reads WAV files with numpy, and the resampler, the filters and the
windows are numpy code, so neither a lyric run nor an audio run loads any of
scipy. The HTTP clients speak through urllib.request. Each check runs in a
fresh interpreter, because this suite imports scipy itself, as the writer of
its WAV fixtures and as the oracle of the numpy code.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LYRICS = Path(__file__).resolve().parent / "fixtures" / "lyrics.txt"

# makes any import of requests fail, imports the package, report and cli,
# runs the CLI on argv when given, and prints which of the watched modules
# were loaded, as a JSON list on the last line of stderr
PROBE = """\
import json, sys
sys.modules["requests"] = None
import detoxaudit, detoxaudit.cli, detoxaudit.report
code = detoxaudit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
watched = ("scipy", "scipy.signal", "scipy.fft", "requests", "urllib3")
print(json.dumps([m for m in watched if sys.modules.get(m) is not None]), file=sys.stderr)
sys.exit(code)
"""


def probe(*argv):
    """The watched modules that PROBE loaded, run on argv; it must exit 0."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stderr.splitlines()[-1])


@pytest.mark.parametrize(
    "argv",
    [(), ("analyze-lyrics", LYRICS, "--offline"), ("rewrite", LYRICS, "--offline")],
    ids=["import", "analyze-lyrics", "rewrite"],
)
def test_lyric_run_loads_no_scipy(argv):
    assert probe(*argv) == []


def test_audio_run_loads_no_scipy(voiced_wav):
    assert probe("analyze-audio", voiced_wav) == []


def test_offline_compare_loads_no_scipy(voiced_wav):
    sides = ("--original-stem", voiced_wav, "--original-lyrics", LYRICS)
    sides += ("--transformed-stem", voiced_wav, "--transformed-lyrics", LYRICS)
    assert probe("compare", *sides, "--artist", "probe", "--offline") == []
