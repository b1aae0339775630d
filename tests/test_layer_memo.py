"""The layer over graph nodes behind ``partial``: each node is lifted once
per coordinate while it lives, and what a node keeps of its lift is what a
walk that lifts every node again gives."""

import gc
import operator
import pathlib

from algcalc import cli, jets, linalg
from algcalc.exprlang import parse_field
from algcalc.jets import ScalarField, Taylor
from algcalc.lagrange import levi_civita_normal
from conftest import count_calls, load_module, reference_layer

ROOT = pathlib.Path(__file__).resolve().parent.parent


def same(a, b):
    """Whether ``a`` and ``b`` are one object, floats of one bit pattern,
    Taylors of the same parts, or nodes that differ only where a node that
    raises was built again (a ``_raise`` node is not interned, so each walk
    of the reference builds a new one, of the same error)."""
    if a is b:
        return True
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    if isinstance(a, Taylor) and isinstance(b, Taylor):
        return a.tag == b.tag and same(a.value, b.value) and \
            same(a.coef, b.coef)
    if isinstance(a, ScalarField) and isinstance(b, ScalarField) and \
            a.op is b.op:
        if a.op is jets._raise:
            return a.param[0] is b.param[0] and a.param[1] == b.param[1]
        return a.param == b.param and len(a.args) == len(b.args) and \
            all(map(same, a.args, b.args))
    return False


def memo_graphs():
    """Fields (m = 1, r = 1) that reach every kind of node the layer meets,
    with their first partials, so that second partials are walked too."""
    def field(text):
        return parse_field(text, 1, 1)

    leaf = ScalarField(1, 1, lambda c: c[0] * c[1], deps=(0, 1))
    mat = [[field("2 + x1^2"), field("x1*y1")],
           [field("y1"), field("3 + sin(x1)*y1^2")]]
    inverse = linalg.field_matrix_inverse(mat)
    fields = [
        field("sqrt(x1^2 + y1^2)*abs(x1*y1) + sqrt(x1)"),   # kinks
        field("x1^0*y1 + (x1*y1)^0"),                       # constant values
        field("(x1 + 2)^y1 + x1^1.5"),                      # variable pow
        leaf * field("exp(y1)") + leaf,                     # opaque leaf
        inverse[0][1] * inverse[1][1] + inverse[0][0],      # inverse entries
        field("x1*y1 + 1/0") * field("sin(y1)"),            # folded error
    ]
    return fields + [f.partial(k) for f in fields for k in (0, 1)]


def test_kept_lifts_are_the_lifts_of_a_fresh_walk():
    kinds = set()
    for f in memo_graphs():
        for index in (0, 1):
            out, guards = jets._layer(f, index)
            again, guards_again = jets._layer(f, index)
            want, want_guards = reference_layer(f, index)
            # a second walk reads every lift and guard off the nodes
            assert again is out
            assert len(guards_again) == len(guards)
            assert all(map(operator.is_, guards_again, guards))
            assert same(jets._value(out), jets._value(want))
            assert same(jets._coef(out), jets._coef(want))
            assert len(guards) == len(want_guards)
            assert all(map(same, guards, want_guards))
            built = [v for v in (jets._value(out), jets._coef(out), *guards)
                     if isinstance(v, ScalarField)]
            kinds |= {node.op for node in
                      jets._topological(jets.pack(built))}
    # the graphs reach kink checks, numeric layers and errors, and a
    # power with a constant value keeps its argument as a guard
    assert {jets._sqrt_kink, jets._abs_kink, jets._layer_at,
            jets._raise} <= kinds
    x = ScalarField.coordinate(1, 1, 0)
    assert jets._layer(parse_field("x1^0*y1", 1, 1), 0)[1] == [x]


def test_a_kept_raise_node_is_reused():
    f = parse_field("x1*y1 + 1/0", 1, 1)
    out, _ = jets._layer(f, 0)
    assert jets._layer(f, 0)[0] is out
    raising = [node for node in jets._topological(jets._value(out))
               if node.op is jets._raise]
    assert len(raising) == 1
    want = [node for node in
            jets._topological(jets._value(reference_layer(f, 0)[0]))
            if node.op is jets._raise]
    assert want[0] is not raising[0]
    assert same(want[0], raising[0])


def randers_levi_civita_lifts(monkeypatch, seed=37):
    """(``_lift`` calls, distinct (node, coordinate) pairs among them) in
    building ``levi_civita_normal`` of the finsler-nested Randers config."""
    workloads = load_module(ROOT / "perfbench" / "workloads.py",
                            "perfbench_workloads")
    config = workloads.build("finsler-nested", seed).configs["randers"]
    gc.collect()
    calls = count_calls(monkeypatch, jets, "_lift")
    geometry = cli.load_config(config)
    levi_civita_normal(geometry.connection, cli._require_metric(geometry))
    # the calls hold their nodes, so no id is reused among them
    pairs = {(id(node), index) for node, index, _ in calls}
    monkeypatch.undo()
    return len(calls), len(pairs)


def test_each_node_is_lifted_once_per_coordinate(monkeypatch):
    assert randers_levi_civita_lifts(monkeypatch) == (663, 663)


def test_a_walk_that_lifts_every_node_again_lifts_pairs_again(
        monkeypatch):
    monkeypatch.setattr(jets, "_layer", reference_layer)
    calls, pairs = randers_levi_civita_lifts(monkeypatch)
    assert (calls, pairs) == (1409, 663)

