"""Run every benchmark operation once and keep what each run wrote.

    python3 tools/bench_reports.py OUTDIR [SEED ...]

For each seed (1 5 9 when none is given) and each workload of
``perfbench/workloads.py``, writes the generated configs to
``OUTDIR/<workload>-s<seed>/`` and runs every operation of one round in
this process through ``algcalc.cli.main``, imported from this checkout's
``src``.  Operation ``k`` leaves ``<k>.report`` (the ``-o`` file, if the
run wrote one), ``<k>.stderr`` and ``<k>.exit`` beside the configs.
Configs are passed by relative path from that directory, so two checkouts
give byte-comparable trees: ``diff -r OUT1 OUT2``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_SEEDS = (1, 5, 9)


def run_op(cli, argv):
    """(exit code, stderr text) of one in-process CLI run."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue()


def run_workload(cli, workloads, name, seed, target):
    workload = workloads.build(name, seed)
    target.mkdir(parents=True, exist_ok=True)
    for config, body in workload.configs.items():
        (target / f"{config}.json").write_text(json.dumps(body, indent=1))
    cwd = os.getcwd()
    os.chdir(target)
    try:
        for index, op in enumerate(workload.ops):
            code, stderr = run_op(cli, op.argv(f"{op.config}.json",
                                               f"{index}.report"))
            pathlib.Path(f"{index}.stderr").write_text(stderr)
            pathlib.Path(f"{index}.exit").write_text(f"{code}\n")
            print(f"{name} s{seed} {index} {op.name}: {code}", flush=True)
    finally:
        os.chdir(cwd)


def main(argv):
    if not argv or not all(arg.isdigit() for arg in argv[1:]):
        sys.stderr.write(__doc__)
        return 2
    outdir = pathlib.Path(argv[0]).resolve()
    seeds = [int(arg) for arg in argv[1:]] or DEFAULT_SEEDS
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    sys.dont_write_bytecode = True   # leave perfbench/ as it is
    import workloads
    from algcalc import cli
    for seed in seeds:
        for name in workloads.BUILDERS:
            run_workload(cli, workloads, name, seed,
                         outdir / f"{name}-s{seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
