"""Reference figures that sit beside the benchmark.

    python3 perfbench/reference.py [--seed N] [--seconds S]

Run from the root of an algcalc checkout.  Prints, as markdown tables:

- the metric-sweep workload with every operation at ``--threads 1``, the
  single-threaded baseline of the threaded workload;
- wall time, peak RSS and exit code of each command on each
  ``fixtures/*.json`` at the fixture's own sample count, each command in a
  fresh process, for continuity with the fixture timings in ROADMAP.md.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import subprocess
import sys
import time

import run
import workloads

COMMANDS = (["check-structure"], ["metrizability"], ["finsler-check"],
            ["transform-check"], ["connection", "canonical"], ["report"])


def single_threaded_metric_sweep(root, seed, seconds):
    workload = workloads.build("metric-sweep", seed)
    for op in workload.ops:
        op.threads = 1
    workdir = os.path.join(root, run.RUNS_DIR, f"reference-{os.getpid()}")
    os.makedirs(workdir)
    try:
        paths = []
        for name, config in workload.configs.items():
            paths.append(os.path.join(workdir, f"{name}.json"))
            with open(paths[-1], "w") as handle:
                json.dump(config, handle)
        return run.timed_run(root, workload, workdir, paths, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# Runs one CLI command and reports the peak RSS of its own address space:
# VmHWM starts afresh at exec, where ru_maxrss of a child would also count
# the parent it was forked from.
CHILD = """import sys
from algcalc.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status") as status:
    hwm = [line for line in status if line.startswith("VmHWM")][0]
sys.stderr.write(hwm)
sys.exit(code)
"""


def fixture_command(root, fixture, command):
    """(exit code, wall seconds, peak RSS in MB) of one CLI command."""
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", CHILD, *command, fixture],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env)
    wall = time.perf_counter() - start
    hwm_kb = int(proc.stderr.strip().splitlines()[-1].split()[1])
    return proc.returncode, wall, hwm_kb / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    root = os.getcwd()

    result = single_threaded_metric_sweep(root, args.seed, args.seconds)
    print(f"metric-sweep at --threads 1, seed {args.seed}, "
          f"{args.seconds:g} s: attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}\n")
    print("| metric | value | unit |\n|---|---|---|")
    for name, entry in result["metrics"].items():
        print(f"| {name} | {entry['value']:.4g} | {entry['unit']} |")

    fixtures = sorted(glob.glob(os.path.join(root, "fixtures", "*.json")))
    print("\n| fixture | command | exit | wall s | peak RSS MB |")
    print("|---|---|---|---|---|")
    for fixture in fixtures:
        for command in COMMANDS:
            code, wall, rss = fixture_command(root, fixture, command)
            print(f"| {os.path.basename(fixture)[:-5]} | {' '.join(command)}"
                  f" | {code} | {wall:.2f} | {rss:.0f} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
