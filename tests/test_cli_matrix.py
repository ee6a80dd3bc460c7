"""Byte-for-byte golden of the whole CLI: every subcommand and format.

``cli_matrix.json`` holds, for each invocation, the exit code and the
sha256 of stdout and stderr.  Each runs in-process through ``main``, with
the terminal width pinned so argparse's usage text does not depend on the
console.  Re-record after an intended output change with

    PYTHONPATH=src python tests/test_cli_matrix.py

The benchmark's own CLI menu, ``perfbench/cli_goldens.json`` (exit code and
stdout sha256), is checked here read-only, so an output change that would
fail the benchmark fails this suite first.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from bohrmap.cli import main

MATRIX = Path(__file__).with_name("cli_matrix.json")
ENTRIES = json.loads(MATRIX.read_text())
BENCH_GOLDENS = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "cli_goldens.json").read_text()
)


def outcome(argv):
    """(exit code, sha256 of stdout, sha256 of stderr) of one invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    digest = lambda s: hashlib.sha256(s.getvalue().encode()).hexdigest()  # noqa: E731
    return code, digest(out), digest(err)


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_invocation_matches_golden(entry, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, stderr = outcome(entry["argv"])
    assert (code, stdout, stderr) == (entry["code"], entry["stdout"], entry["stderr"])


@pytest.mark.parametrize("key", sorted(BENCH_GOLDENS))
def test_benchmark_golden_matches(key, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, stdout, _ = outcome(key.split(" "))
    want = BENCH_GOLDENS[key]
    assert (code, stdout) == (want["code"], want["sha256"])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    for entry in ENTRIES:
        entry["code"], entry["stdout"], entry["stderr"] = outcome(entry["argv"])
        print(entry["code"], " ".join(entry["argv"]), file=sys.stderr)
    MATRIX.write_text("[\n" + ",\n".join(json.dumps(e) for e in ENTRIES) + "\n]\n")
