"""Every operation of ``tools/bench_reports.py`` at seeds 1, 5 and 9 writes
the same bytes and exits with the same code as when
``bench_report_digests.json`` was recorded.

The operations run in process, through the tool's ``run_workload``, into a
temporary directory.  The table holds the SHA-256 of each operation's
report (null where it wrote none) and of its stderr, and its exit code,
keyed by ``<workload>-s<seed> <k> <operation>``.  ``perfbench/workloads.py``
is read without writing bytecode, so nothing is left under ``perfbench/``.
When a change means to alter report bytes, it records the table again and
explains each changed operation:

    PYTHONPATH=src python3 tests/test_bench_report_digests.py \
        > tests/bench_report_digests.json
"""

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from algcalc import cli
from conftest import load_module

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = pathlib.Path(__file__).resolve().parent / "bench_report_digests.json"
SEEDS = (1, 5, 9)

tool = load_module(ROOT / "tools" / "bench_reports.py", "bench_reports")
workloads = load_module(ROOT / "perfbench" / "workloads.py",
                        "perfbench_workloads")
TREES = [(name, seed) for seed in SEEDS for name in workloads.BUILDERS]


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digest_tree(name, seed, outdir):
    """{"<name>-s<seed> <k> <operation>": {"report", "stderr": SHA-256 hex
    or None, "exit": code}} of one round of ``name`` at ``seed``, run into
    ``outdir``."""
    target = outdir / f"{name}-s{seed}"
    with contextlib.redirect_stdout(io.StringIO()):
        tool.run_workload(cli, workloads, name, seed, target)
    digests = {}
    for k, op in enumerate(workloads.build(name, seed).ops):
        report = target / f"{k}.report"
        digests[f"{name}-s{seed} {k} {op.name}"] = {
            "report": sha256(report) if report.exists() else None,
            "stderr": sha256(target / f"{k}.stderr"),
            "exit": int((target / f"{k}.exit").read_text())}
    return digests


def perfbench_files():
    return sorted((ROOT / "perfbench").rglob("*"))


def test_table_lists_every_operation():
    table = json.loads(TABLE.read_text())
    keys = {f"{name}-s{seed} {k} {op.name}" for name, seed in TREES
            for k, op in enumerate(workloads.build(name, seed).ops)}
    assert sorted(table) == sorted(keys)


@pytest.mark.parametrize("name, seed", TREES,
                         ids=[f"{name}-s{seed}" for name, seed in TREES])
def test_round_matches_recorded_digests(name, seed, tmp_path):
    before = perfbench_files()
    got = digest_tree(name, seed, tmp_path)
    table = json.loads(TABLE.read_text())
    assert got == {key: table[key] for key in got}
    assert perfbench_files() == before


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as outdir:
        table = {}
        for name, seed in TREES:
            table.update(digest_tree(name, seed, pathlib.Path(outdir)))
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    print()
