"""Output check: compare what the code under test wrote with the seed's reference.

Numbers match when ``math.isclose(actual, expected, rel_tol=REL_TOL,
abs_tol=ABS_TOL)`` holds. The absolute floor covers values the program
itself rounds to 12 decimals. Everything else (keys, lengths, strings,
``None``, booleans) must match exactly.
"""

from __future__ import annotations

import csv
import json
import math
import re
from pathlib import Path

REL_TOL = 1e-9
ABS_TOL = 1e-12
MAX_REPORTED = 10


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def diff(actual, expected, path: str = "$", out: list | None = None) -> list:
    """Mismatches between two JSON-like values, as readable strings."""
    out = [] if out is None else out
    if _number(actual) and _number(expected):
        if not math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            out.append(f"{path}: {actual!r} != {expected!r}")
    elif isinstance(actual, dict) and isinstance(expected, dict):
        if actual.keys() != expected.keys():
            out.append(f"{path}: keys {sorted(actual)} != {sorted(expected)}")
        for key in sorted(actual.keys() & expected.keys()):
            diff(actual[key], expected[key], f"{path}.{key}", out)
    elif isinstance(actual, list) and isinstance(expected, list):
        if len(actual) != len(expected):
            out.append(f"{path}: length {len(actual)} != {len(expected)}")
        for i, (a, e) in enumerate(zip(actual, expected)):
            diff(a, e, f"{path}[{i}]", out)
    elif type(actual) is not type(expected) or actual != expected:
        out.append(f"{path}: {actual!r} != {expected!r}")
    return out


def report_body(report: dict) -> dict:
    """The report without its creation time, the one field that may differ."""
    provenance = {k: v for k, v in report.get("provenance", {}).items() if k != "created_at"}
    return {**report, "provenance": provenance}


def read_csv(path: Path) -> list:
    """CSV rows with every cell that parses as a number turned into one."""
    def cell(text):
        try:
            return float(text)
        except ValueError:
            return text

    with open(path, newline="", encoding="utf-8") as fh:
        return [[cell(c) for c in row] for row in csv.reader(fh)]


_CREATED_AT = re.compile(rb'^\s*"created_at": .*$', re.MULTILINE)


def check_audio_item(item_dir: Path, ref_dir: Path, kinds) -> list:
    """Mismatches of one audio item's report and plot CSVs against the reference.

    Files equal to the reference byte for byte (the report but for its
    creation time) pass without being parsed.
    """
    problems = []
    mine, ref = (d / "report.json" for d in (item_dir, ref_dir))
    if _CREATED_AT.sub(b"", mine.read_bytes()) != _CREATED_AT.sub(b"", ref.read_bytes()):
        diff(report_body(json.loads(mine.read_text(encoding="utf-8"))),
             report_body(json.loads(ref.read_text(encoding="utf-8"))), "report", problems)
    for kind in kinds:
        mine, ref = (d / f"{kind}.csv" for d in (item_dir, ref_dir))
        if mine.read_bytes() != ref.read_bytes():
            diff(read_csv(mine), read_csv(ref), kind, problems)
    return problems


def all_voice_metrics(report: dict) -> list:
    """Problems when any of the four voice metrics or the radar data is None."""
    problems = []
    for side in ("original", "transformed"):
        voice = report[side]["audio"]["voice"]
        for name in ("hnr_db", "cpp", "jitter", "shimmer"):
            if voice.get(name) is None:
                problems.append(f"{side}.voice.{name} is None")
    if report["comparison"]["radar"] is None:
        problems.append("comparison.radar is None")
    return problems
