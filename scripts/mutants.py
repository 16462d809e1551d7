#!/usr/bin/env python3
"""Run each catalogued mutant against the test suite and record what kills it.

    python3 scripts/mutants.py      # writes MUTANTS.json

Each CATALOGUE entry names a file under the repository root, an anchor (an
exact text that occurs once in that file), the text that replaces it, a
label, and the expected outcome: "killed", or "equivalent: <reason>" for a
mutant that computes the same results, so that no test can kill it.  Each
mutant is applied to a fresh copy of the repository in a temporary
directory, never to the working tree, and `python -m pytest -x -q` runs
there under TIMEOUT seconds, without ANCHOR_TEST, which checks the
catalogue against the unmutated source.  MUTANTS.json at the repository
root lists per mutant its outcome (killed, survived or timeout), the first
failing test and the seconds taken.  Exits 1 when an outcome differs from
the expected one: a survivor that is not equivalent is a test gap, to be
closed by a test that kills it.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str
    anchor: str
    replacement: str
    label: str
    expect: str


CATALOGUE = (
    Mutant(
        "src/fdcache/harness.py",
        "(f - 1) * per_file, f * per_file)",
        "(f - 1) * per_file, f * per_file - 1)",
        "oracle block bound hi -> hi - 1",
        "killed",
    ),
    Mutant(
        "src/fdcache/algebra.py",
        "part = pivot & below",
        "part = 0",
        "block test skips the below-lo reduction",
        "killed",
    ),
    Mutant(
        "src/fdcache/harness.py",
        "if len(symbol_rows) > spans[0][0].rank:",
        "if len(symbol_rows) >= spans[0][0].rank:",
        "oracle larger-side join > -> >=",
        "equivalent: both joins give the same span, so every verdict is the same",
    ),
)

# checks the catalogue against the unmutated source, so it would kill every mutant
ANCHOR_TEST = "tests/test_source.py::test_every_mutant_anchor_occurs_once"
# seconds per suite run; the unmutated suite takes about 20
TIMEOUT = 600.0
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", "MUTANTS.json")


def _first_failure(output: str) -> str | None:
    """The first test pytest names as FAILED or ERROR in its -q summary."""
    for line in output.splitlines():
        for prefix in ("FAILED ", "ERROR "):
            if line.startswith(prefix):
                return line[len(prefix):].split(" - ", 1)[0]
    return None


def run_mutant(mutant: Mutant) -> dict:
    """Apply mutant to a copy of the repository and run the suite there."""
    with tempfile.TemporaryDirectory(prefix="fdcache-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        target = copy / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.anchor) != 1:
            raise SystemExit(f"{mutant.label}: anchor occurs {text.count(mutant.anchor)} times in {mutant.path}")
        target.write_text(text.replace(mutant.anchor, mutant.replacement), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", ANCHOR_TEST]
        started = time.perf_counter()
        try:
            done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            outcome, killed_by = "timeout", None
        else:
            outcome = "survived" if done.returncode == 0 else "killed"
            killed_by = _first_failure(done.stdout) if done.returncode else None
        seconds = round(time.perf_counter() - started, 1)
    expected = "survived" if mutant.expect.startswith("equivalent") else "killed"
    return {
        "label": mutant.label,
        "path": mutant.path,
        "anchor": mutant.anchor,
        "replacement": mutant.replacement,
        "expect": mutant.expect,
        "outcome": outcome,
        "killed_by": killed_by,
        "seconds": seconds,
        "as_expected": outcome == expected,
    }


def main() -> int:
    results = []
    for mutant in CATALOGUE:
        result = run_mutant(mutant)
        results.append(result)
        print(f"{result['outcome']:>8} {result['seconds']:7.1f}s  {mutant.label}  [{result['killed_by']}]")
    (ROOT / "MUTANTS.json").write_text(json.dumps(results, indent=2) + "\n", encoding="utf-8")
    return 0 if all(result["as_expected"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
