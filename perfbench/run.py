"""algcalc benchmark: time to verdict, sweep rate, set-up time and memory.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S \
        --trace 0|1

Run from the root of an algcalc checkout; the program is imported from
``src/``.  The seed generates the workload's configurations (see
``workloads.py``).  One client drives ``algcalc.cli.main`` in a closed loop,
in this process: each operation is one CLI command, timed from its argv
until its report file is written, and every report is checked
(``checks.py``).  Whole rounds of the workload's operations run for up to
``--seconds``: a round that would end later, going by the last round, is
not started, but the first round always runs.

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics.  With ``--trace 1`` every operation runs once untraced
and once with spans around every layer (``tracing.py``), then one round runs
with call counters, and the object holds the per-layer metrics; the spans
are written to ``.perfbench_runs/``.  Exit status: 0 with a result, 2 when the checkout
has no program or a set-up probe fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
RUNS_DIR = ".perfbench_runs"
SETUP_REPEATS = 11
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "verdict_p50_s": "s",
                    "points_per_s": "points/s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def per_layer_unit(name):
    if name == "trace.overhead_pct":
        return "%"
    if name.endswith("_s"):
        return "s"
    if name == "cli.report_bytes":
        return "bytes"
    return "count"


# -- the program under test ----------------------------------------------------


def import_cli(root):
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "algcalc", "cli.py")):
        raise BenchError(f"no algcalc sources under {src}")
    sys.path.insert(0, src)
    from algcalc import cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"algcalc was imported from {cli.__file__}")
    return cli


def peak_rss_mb():
    """Peak resident set of this process (VmHWM).  ``ru_maxrss`` would also
    count the process that launched this one: Linux carries it across
    exec, so a large launcher would hide the workload's own peak."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM in /proc/self/status")


def measure_setup(root, config_paths):
    """Median over SETUP_REPEATS fresh processes of the time from launch
    until every config is loaded."""
    probe = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, root, *config_paths],
                              capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return statistics.median(times)


# -- running operations --------------------------------------------------------


class Runner:
    """Runs and checks operations; keeps the tallies of one benchmark run."""

    def __init__(self, cli, workload, workdir):
        self.cli = cli
        self.ops = workload.ops
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.walls = []          # wall time of each completed operation
        self.points = []         # its sample points
        self.references = {}     # op index -> report of a --threads 1 run
        self.controlled = set()  # checks whose negative control has run
        self.vacuous = []        # checks that accepted a damaged output
        self.spans = None        # a tracing.Spans while tracing

    def _invoke(self, argv):
        """(exit code or None, wall seconds)."""
        start = time.perf_counter()
        try:
            code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else None
        except Exception:
            traceback.print_exc()
            code = None
        return code, time.perf_counter() - start

    def _paths(self, index, suffix=""):
        op = self.ops[index]
        return (os.path.join(self.workdir, f"{op.config}.json"),
                os.path.join(self.workdir, f"report-{index}{suffix}.json"))

    def _read(self, path):
        try:
            with open(path) as handle:
                return handle.read()
        except OSError:
            return None

    def run_op(self, index):
        """Run, time and check one operation; returns its wall time."""
        op = self.ops[index]
        config, output = self._paths(index)
        if os.path.exists(output):
            os.remove(output)
        self.attempted += 1
        # untimed: the command starts on a clean heap, as in a fresh process,
        # instead of collecting the garbage of earlier commands and checks
        gc.collect()
        if self.spans is not None:
            self.spans.op = index
            with self.spans.span(f"op:{op.name}"):
                code, wall = self._invoke(op.argv(config, output))
        else:
            code, wall = self._invoke(op.argv(config, output))
        text = self._read(output)
        if code not in (0, 1) or text is None:
            self._fail(op, [f"exit code {code}, report "
                            f"{'missing' if text is None else 'written'}"])
            return wall
        if op.threads_ref and index not in self.references:
            _, ref_path = self._paths(index, "-threads1")
            self._invoke(op.argv(config, ref_path, threads=1))
            self.references[index] = self._read(ref_path)
        problems, report = checks.run_checks(op, code, text,
                                             self.references.get(index))
        if problems:
            self.incorrect += 1
            self._fail(op, problems)
            return wall
        self._negative_controls(op, code, text, report, index)
        self.walls.append(wall)
        self.points.append(op.points)
        return wall

    def _fail(self, op, problems):
        self.failed += 1
        sys.stderr.write(f"FAILED {op.name}:\n")
        for problem in problems:
            sys.stderr.write(f"  {problem}\n")

    def _negative_controls(self, op, code, text, report, index):
        """Once per run and check: a damaged copy of this accepted output
        must be rejected."""
        for name in checks.checks_for(op):
            if name in self.controlled:
                continue
            self.controlled.add(name)
            if not checks.negative_control(op, name, code, text, report):
                self.vacuous.append(name)
        if op.threads_ref and "threads" not in self.controlled:
            self.controlled.add("threads")
            if not checks.threads_negative_control(
                    text, self.references[index]):
                self.vacuous.append("threads")

    def run_round(self):
        """Every operation once; returns the summed operation wall time."""
        return sum(self.run_op(index) for index in range(len(self.ops)))

    @property
    def correct(self):
        if self.vacuous:
            sys.stderr.write("negative control: checks that accepted damaged"
                             f" output: {', '.join(self.vacuous)}\n")
        else:
            sys.stderr.write("negative control: every check rejected damaged"
                             f" output ({', '.join(sorted(self.controlled))})"
                             "\n")
        return self.incorrect == 0 and not self.vacuous

    def result(self, metrics, units):
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {name: {"value": value, "unit": units(name)}
                            for name, value in metrics.items()}}


def timed_run(root, workload, workdir, config_paths, seconds):
    setup = measure_setup(root, config_paths)
    runner = Runner(import_cli(root), workload, workdir)
    start = time.perf_counter()
    while True:
        round_s = runner.run_round()
        # no round that would end past --seconds, going by the last one
        if time.perf_counter() - start + round_s > seconds:
            break
    walls = runner.walls or [0.0]
    metrics = {
        "setup_s": setup,
        "verdict_p50_s": statistics.median(walls),
        "points_per_s": sum(runner.points) / sum(walls) if sum(walls) else 0.0,
        "peak_rss_mb": peak_rss_mb(),
    }
    return runner.result(metrics, END_TO_END_UNITS.get)


def traced_run(root, workload, workdir, trace_path, header):
    """Each operation runs twice back to back, untraced and with spans, the
    order alternating, so that drift in machine speed cancels out of the
    overhead; then one round runs with call counters."""
    runner = Runner(import_cli(root), workload, workdir)
    spans = tracing.Spans()
    untraced = traced = 0.0
    for index in range(len(workload.ops)):
        for with_spans in ((False, True) if index % 2 else (True, False)):
            if not with_spans:
                untraced += runner.run_op(index)
                continue
            with spans:
                runner.spans = spans
                traced += runner.run_op(index)
                runner.spans = None
    with tracing.Counts() as counts:
        runner.run_round()
    metrics = spans.metrics()
    metrics.update(counts.metrics())
    metrics["trace.untraced_round_s"] = untraced
    metrics["trace.traced_round_s"] = traced
    metrics["trace.overhead_pct"] = 100.0 * (traced / untraced - 1.0)
    spans.write(trace_path, dict(header, ops=[op.name for op in workload.ops],
                                 metrics=metrics))
    return runner.result(metrics, per_layer_unit)


# -- command line --------------------------------------------------------------


def run_all(args):
    """Every workload, each in a fresh process; one line per workload, then
    the totals with metric names prefixed by the workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.BUILDERS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: {json.dumps(result)}")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(total))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.BUILDERS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "algcalc", "cli.py")):
        sys.stderr.write("run from the root of an algcalc checkout: "
                         "src/algcalc is missing\n")
        return 2
    workload = workloads.build(args.workload, args.seed)
    runs = os.path.join(root, RUNS_DIR)
    workdir = os.path.join(runs, f"{args.workload}-s{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        config_paths = []
        for name, config in workload.configs.items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as handle:
                json.dump(config, handle, indent=1)
            config_paths.append(path)
        if args.trace:
            trace_path = os.path.join(
                runs, f"trace-{args.workload}-s{args.seed}.json")
            result = traced_run(root, workload, workdir, trace_path,
                                {"workload": args.workload,
                                 "seed": args.seed})
        else:
            result = timed_run(root, workload, workdir, config_paths,
                               args.seconds)
    except BenchError as err:
        sys.stderr.write(f"error: {err}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
