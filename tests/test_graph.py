"""The expression graph that commands sweep: interned nodes, and partials
built as graph nodes rather than numeric layers at each point."""

import contextlib
import gc
import io
import json
import pathlib
import sys

from algcalc import cli, jets, linalg, sampling
from algcalc.exprlang import parse_field
from algcalc.jets import ScalarField
from conftest import load_module

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Ops of nodes that run a numeric Taylor layer (or a nested evaluation, or
# a caller's function) at each point instead of being graph nodes
# themselves; a sweep over one of them goes point by point.
NUMERIC = {jets._layer_at, jets._pulled_back, jets._opaque}


def fixture_runs():
    """argv of every (fixture, command) run of tools/fixture_reports.py."""
    tool = load_module(ROOT / "tools" / "fixture_reports.py", "fixture_reports")
    return [[*command, str(fixture)]
            for fixture in sorted((ROOT / "fixtures").glob("*.json"))
            for command in tool.COMMANDS]


def benchmark_runs(tmp_path, seed=5):
    """argv of every operation of one perfbench round at ``seed``, with its
    config written under ``tmp_path``."""
    workloads = load_module(ROOT / "perfbench" / "workloads.py",
                     "perfbench_workloads")
    runs = []
    for name in workloads.BUILDERS:
        workload = workloads.build(name, seed)
        for config, body in workload.configs.items():
            (tmp_path / f"{name}-{config}.json").write_text(json.dumps(body))
        runs += [op.argv(str(tmp_path / f"{name}-{op.config}.json"),
                         str(tmp_path / "report.json"))
                 for op in workload.ops]
    return runs


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:
            return exc.code


def swept_nodes(monkeypatch):
    """A list that collects every node of every graph ``sampling.sweep``
    is given, through every module that binds it."""
    nodes = []
    original = sampling.sweep

    def recording(groups, points):
        groups = [list(group) for group in groups]
        root = jets.pack([f for group in groups for f in group])
        nodes.extend(jets._topological(root))
        return original(groups, points)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("algcalc") and \
                vars(mod).get("sweep") is original:
            monkeypatch.setattr(mod, "sweep", recording)
    return nodes


def test_commands_sweep_no_numeric_layer(monkeypatch, tmp_path):
    assert not hasattr(jets, "_compose_at")
    nodes = swept_nodes(monkeypatch)
    runs = fixture_runs() + benchmark_runs(tmp_path)
    swept = 0
    for argv in runs:
        nodes.clear()
        assert run(argv) in (0, 1, 2)
        numeric = [node for node in nodes if node.op in NUMERIC]
        assert numeric == [], argv
        swept += len(nodes)
    assert len(runs) > 77 and swept > 10 ** 4


def test_commands_invert_each_matrix_once_per_point(monkeypatch, tmp_path):
    # a node function is keyed by its code, so that two equal lambdas made
    # by two calls count as one function
    nodes = swept_nodes(monkeypatch)
    matrices = 0
    for argv in fixture_runs() + benchmark_runs(tmp_path):
        nodes.clear()
        assert run(argv) in (0, 1, 2)
        keys = [(spec[0].__code__, *spec[1:], *map(id, node.args))
                for node in nodes if node.op is linalg._matrices_at
                for spec in [node.param]]
        assert len(keys) == len(set(keys)), argv
        matrices += len(keys)
    assert matrices > 50


def interned():
    return {ref() for ref in jets._NODES.values()} - {None}


def test_a_command_leaves_none_of_its_nodes_interned(monkeypatch):
    nodes = swept_nodes(monkeypatch)
    gc.collect()
    before = interned()
    assert run(["report", str(ROOT / "fixtures" / "randers.json")]) == 0
    made = [jets.weakref.ref(node) for node in nodes if node not in before]
    assert made
    nodes.clear()
    gc.collect()
    assert [ref for ref in made if ref() is not None] == []
    assert interned() <= before


def test_equal_nodes_are_one_node():
    assert parse_field("x1*sin(y1) + 2", 1, 1) is \
        parse_field("x1*sin(y1) + 2", 1, 1)
    assert ScalarField.coordinate(1, 1, 0) is parse_field("x1", 1, 1)
    assert ScalarField.const(1, 1, 2) is ScalarField.const(1, 1, 2.0)
    nan = float("nan")
    assert ScalarField.const(1, 1, nan) is ScalarField.const(1, 1, nan)
    # the same key over other coordinates is another node
    assert ScalarField.const(1, 2, 2.0) is not ScalarField.const(1, 1, 2.0)


def test_minus_zero_and_zero_stay_distinct_constants():
    zero, minus = ScalarField.const(1, 1, 0.0), ScalarField.const(1, 1, -0.0)
    assert zero is not minus
    assert minus.constant.hex() == "-0x0.0p+0"
    x = parse_field("x1", 1, 1)
    assert x + zero is not x + minus
    assert (x + minus)([-0.0, 1.0]).hex() == "-0x0.0p+0"
    assert (x + zero)([-0.0, 1.0]).hex() == "0x0.0p+0"
    assert parse_field("-0.0", 1, 1) is minus


def test_a_second_partial_is_built_of_graph_nodes():
    f = parse_field("sqrt(x1^2 + y1^2)*exp(x1*y1)", 1, 1)
    h = f.partial(1).partial(1)
    assert not any(node.op in NUMERIC for node in jets._topological(h))
