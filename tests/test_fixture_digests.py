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
TABLE = pathlib.Path(__file__).resolve().parent / "fixture_digests.json"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tool = load_tool("fixture_reports")
checker = load_tool("check_fixture_digests")

RUNS = [(fixture.stem, command)
        for fixture in sorted((ROOT / "fixtures").glob("*.json"))
        for command in tool.COMMANDS]


def output_run(fixture, command):
    """(stdout bytes, stderr bytes, exit code) of one run; the working
    directory must be the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*command, f"fixtures/{fixture}.json"])
    return out.getvalue().encode(), err.getvalue().encode(), code


def digest_run(fixture, command):
    """{"stdout", "stderr": SHA-256 hex, "exit": code} of one run; the
    working directory must be the repository root."""
    out, err, code = output_run(fixture, command)
    return {"stdout": hashlib.sha256(out).hexdigest(),
            "stderr": hashlib.sha256(err).hexdigest(), "exit": code}


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


def test_the_checker_names_a_missing_or_changed_run(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    fixture, command = "degenerate", ["connection", "base-deform"]
    key = run_key(fixture, command)
    table = {key: json.loads(TABLE.read_text())[key]}
    out, err, code = output_run(fixture, command)
    assert err and code == 2
    stem = tmp_path / fixture / "connection-base-deform"
    assert checker.unlike(tmp_path, table) == [key]
    stem.parent.mkdir()
    stem.with_suffix(".stdout").write_bytes(out)
    stem.with_suffix(".stderr").write_bytes(err)
    stem.with_suffix(".exit").write_text(f"{code}\n")
    assert checker.unlike(tmp_path, table) == []
    stem.with_suffix(".stderr").write_bytes(err + b" ")
    assert checker.unlike(tmp_path, table) == [key]


if __name__ == "__main__":
    os.chdir(ROOT)
    print(json.dumps({run_key(*run): digest_run(*run) for run in RUNS},
                     indent=1, sort_keys=True))
