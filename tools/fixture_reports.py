"""Run every command on every fixture and keep what each run printed.

    python3 tools/fixture_reports.py OUTDIR

Runs ``python3 -m algcalc.cli <command> fixtures/<name>.json`` for the 11
commands (check-structure, metrizability, finsler-check, transform-check,
report, and connection of each of its 6 kinds) on each fixture, one after
the other, with the package imported from this checkout's ``src``.  Each
run writes ``OUTDIR/<fixture>/<command>.stdout``, ``.stderr`` and
``.exit``.  Two checkouts give byte-comparable trees: ``diff -r OUT1 OUT2``.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

CONNECTION_KINDS = ("berwald", "canonical", "obata", "base-deform",
                    "levi-civita", "torsion-deform")

COMMANDS = [["check-structure"], ["metrizability"], ["finsler-check"],
            ["transform-check"], ["report"]] + \
    [["connection", kind] for kind in CONNECTION_KINDS]


def main(argv):
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    outdir = pathlib.Path(argv[0])
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for fixture in sorted((ROOT / "fixtures").glob("*.json")):
        target = outdir / fixture.stem
        target.mkdir(parents=True, exist_ok=True)
        for command in COMMANDS:
            run = subprocess.run(
                [sys.executable, "-m", "algcalc.cli", *command,
                 str(fixture.relative_to(ROOT))],
                cwd=ROOT, env=env, capture_output=True)
            stem = target / "-".join(command)
            stem.with_suffix(".stdout").write_bytes(run.stdout)
            stem.with_suffix(".stderr").write_bytes(run.stderr)
            stem.with_suffix(".exit").write_text(f"{run.returncode}\n")
            print(f"{fixture.stem} {' '.join(command)}: {run.returncode}",
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
