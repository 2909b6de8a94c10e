"""Import hygiene: a lyric-only run never loads SciPy.

SciPy is imported inside the audio functions that call it. Each check runs
in a fresh interpreter, because this suite's conftest imports
scipy.io.wavfile itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
LYRICS = Path(__file__).resolve().parent / "fixtures" / "lyrics.txt"

# imports the package, report and cli, runs the CLI on argv when given, and
# prints whether scipy was loaded as the last line of stderr
PROBE = """\
import sys
import detoxaudit, detoxaudit.cli, detoxaudit.report
code = detoxaudit.cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print("scipy" in sys.modules, file=sys.stderr)
sys.exit(code)
"""


def probe(*argv):
    """(exit code, whether scipy was loaded) of PROBE run on argv."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, argv)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stderr.splitlines()[-1] == "True"


@pytest.mark.parametrize(
    "argv",
    [(), ("analyze-lyrics", LYRICS, "--offline"), ("rewrite", LYRICS, "--offline")],
    ids=["import", "analyze-lyrics", "rewrite"],
)
def test_lyric_run_loads_no_scipy(argv):
    code, scipy_loaded = probe(*argv)
    assert code == 0
    assert not scipy_loaded


def test_audio_run_still_works(voiced_wav):
    code, scipy_loaded = probe("analyze-audio", voiced_wav)
    assert code == 0
    assert scipy_loaded  # the probe does see an import made on first use
