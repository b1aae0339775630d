"""Every (fixture, command) run of tools/fixture_reports.py prints the same
bytes and exit code as when ``fixture_digests.json`` was recorded.

The runs call ``cli.main`` in process, from the repository root with the
relative fixture path, as the tool's subprocesses do.  The table holds the
SHA-256 of each run's stdout and stderr and its exit code, keyed by
``<fixture> <command>``.  When a change means to alter report bytes, it
records the table again and explains each changed run:

    PYTHONPATH=src python3 tests/test_fixture_digests.py \
        > tests/fixture_digests.json
"""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib

import pytest

from algcalc import cli

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "fixture_reports.py"
TABLE = pathlib.Path(__file__).resolve().parent / "fixture_digests.json"


def load_tool():
    spec = importlib.util.spec_from_file_location("fixture_reports", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool()

RUNS = [(fixture.stem, command)
        for fixture in sorted((ROOT / "fixtures").glob("*.json"))
        for command in tool.COMMANDS]


def digest_run(fixture, command):
    """{"stdout", "stderr": SHA-256 hex, "exit": code} of one run; the
    working directory must be the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, f"fixtures/{fixture}.json"])
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest(),
            "stderr": hashlib.sha256(err.getvalue().encode()).hexdigest(),
            "exit": code}


def run_key(fixture, command):
    return f"{fixture} {' '.join(command)}"


def test_table_lists_every_run():
    table = json.loads(TABLE.read_text())
    assert len(RUNS) == 88
    assert sorted(table) == sorted(run_key(*run) for run in RUNS)


@pytest.mark.parametrize("fixture, command", RUNS,
                         ids=[run_key(*run) for run in RUNS])
def test_run_matches_recorded_digest(fixture, command, monkeypatch):
    monkeypatch.chdir(ROOT)
    want = json.loads(TABLE.read_text())[run_key(fixture, command)]
    assert digest_run(fixture, command) == want


if __name__ == "__main__":
    os.chdir(ROOT)
    print(json.dumps({run_key(*run): digest_run(*run) for run in RUNS},
                     indent=1, sort_keys=True))
