"""Check a tree of tools/fixture_reports.py against tests/fixture_digests.json.

    python3 tools/check_fixture_digests.py OUTDIR

Each run in ``OUTDIR`` must print the bytes and exit with the code that
``tests/fixture_digests.json`` records for it in process: the SHA-256 of
its stdout and stderr, and its exit code.  The tree must hold one run per
row of the table.  Prints the runs that differ and exits 1 if any does,
0 otherwise.  Needs only the standard library.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "fixture_digests.json"


def unlike(tree, table):
    """The keys of ``table`` whose run in ``tree`` is missing, printed
    other bytes or exited with another code, in sorted order."""
    bad = []
    for key, want in sorted(table.items()):
        fixture, command = key.split(" ", 1)
        stem = tree / fixture / command.replace(" ", "-")
        try:
            got = {stream: hashlib.sha256(
                stem.with_suffix("." + stream).read_bytes()).hexdigest()
                for stream in ("stdout", "stderr")}
            got["exit"] = int(stem.with_suffix(".exit").read_text())
        except FileNotFoundError:
            got = None
        if got != want:
            bad.append(key)
    return bad


def main(argv):
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    tree = pathlib.Path(argv[0])
    table = json.loads(TABLE.read_text())
    runs = len(list(tree.glob("*/*.exit")))
    bad = unlike(tree, table)
    print(f"{runs} runs in {tree}, {len(table)} rows in {TABLE.name}")
    print(f"fixture runs unlike {TABLE.name}:", bad or "none")
    return 0 if runs == len(table) and not bad else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
