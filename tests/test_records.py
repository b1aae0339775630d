"""The value semantics that callers, caches and messages rely on in the
package's record classes: frozen fields, equality and hashing by field,
``__post_init__`` checks, fresh mutable defaults, a printable ``repr``, and
a ``__dict__`` for ``cached_property``."""

import pytest

from conftest import (box_samples, count_calls, fixture_path,
                      identity_algebroid, poincare_geometry)
from algcalc import cli, jets, metric, sampling
from algcalc.errors import EmptyBox, ShapeError
from algcalc.exprlang import Bin, Call, Const, Neg, Num, Var, parse, \
    to_source
from algcalc.jets import Jet, Point, eval_jet
from algcalc.lagrange import FundamentalFunction, TorsionPair
from algcalc.nlconn import default_chart
from algcalc.sampling import ResidualCheck, SampleBox, ValidationReport


def geometry_record(index):
    """A record of ``poincare_geometry``, built when a test asks for it, so
    that no graph node outlives the test."""
    return lambda: poincare_geometry()[index]


# (a builder of a record of each frozen kind, one of its field names)
FROZEN = [
    (lambda: Point((0.5,), (1.0,)), "x"),
    (lambda: Jet(0, 1.0), "value"),
    (lambda: Num(1.0), "value"), (lambda: Const("pi"), "name"),
    (lambda: Var("x1", 0), "index"), (lambda: Neg(Num(1.0)), "operand"),
    (lambda: Bin("+", Num(1.0), Num(2.0)), "op"),
    (lambda: Call("sin", (Num(1.0),)), "args"),
    (geometry_record(0), "rho"), (geometry_record(1), "gamma"),
    (geometry_record(2), "gh"),
    (lambda: SampleBox(x=((0.0, 1.0),), y=()), "x"),
    (lambda: ResidualCheck("r", 0.0, None, 1e-8), "value"),
    (lambda: FundamentalFunction(identity_algebroid(2),
                                 jets.ScalarField.const(2, 2, 1.0)), "kind"),
    (lambda: TorsionPair(t=(), s=()), "t"),
    (lambda: default_chart(identity_algebroid(2)), "fiber"),
]


@pytest.mark.parametrize("build, name", FROZEN, ids=[
    "Point", "Jet", "Num", "Const", "Var", "Neg", "Bin", "Call",
    "GeneralizedAlgebroid", "NonlinearConnection", "MetricStructure",
    "SampleBox", "ResidualCheck", "FundamentalFunction", "TorsionPair",
    "ChartFrame"])
def test_a_frozen_record_refuses_assignment(build, name):
    record = build()
    before = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, before)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) is before


@pytest.mark.parametrize("source", [
    "x1 + 2*y1", "-(x1 - y2)^2", "sin(x1)*exp(-y1) / (1 + x2^2)",
    "pi*x1 - e", "2^3^x1", "sqrt(x1^2 + y1^2) + 0.3*y1"])
def test_a_printed_tree_parses_to_an_equal_tree_with_an_equal_hash(source):
    tree = parse(source, (2, 2))
    again = parse(to_source(tree), (2, 2))
    assert again == tree and again is not tree
    assert hash(again) == hash(tree)
    assert {tree: 1}[again] == 1


def test_trees_that_differ_are_unequal():
    assert parse("x1 + y1", (2, 2)) != parse("y1 + x1", (2, 2))
    assert Num(1.0) != Const("1.0")
    assert Num(1.0) != 1.0


def test_equal_points_are_equal_and_hash_equal():
    a, b = Point((0.5, 1), (2,)), Point([0.5, 1.0], [2.0])
    assert a == b and hash(a) == hash(b)
    assert a != Point((0.5, 1.0), (2.5,))
    assert len({a, b, Point((0.5, 1.0), (2.5,))}) == 2


def test_equal_jets_are_equal_and_hash_equal():
    x = jets.ScalarField.coordinate(1, 1, 0)
    field = x * x
    point = Point((0.5,), (1.0,))
    a, b = eval_jet(field, point, 2), eval_jet(field, point, 2)
    assert a == b and hash(a) == hash(b)
    assert a != eval_jet(field, point, 1)


def test_a_record_prints_its_fields_by_name():
    assert repr(Point((0.5,), (-1,))) == "Point(x=(0.5,), y=(-1.0,))"
    assert repr(Bin("+", Num(1.0), Var("x1", 0))) == \
        "Bin(op='+', left=Num(value=1.0), right=Var(name='x1', index=0))"
    assert repr(ResidualCheck("r", 0.5, None, 1e-8)) == \
        "ResidualCheck(name='r', value=0.5, argmax=None, tol=1e-08)"


def test_a_record_binds_its_fields_by_position_or_keyword():
    assert Jet(1, 2.0, (3.0,)) == Jet(order=1, value=2.0, first=(3.0,))
    assert Jet(0, 2.0).second is None
    with pytest.raises(TypeError):
        Point((0.0,))
    with pytest.raises(TypeError):
        Point((0.0,), (1.0,), (2.0,))
    with pytest.raises(TypeError):
        Point((0.0,), x=(1.0,))


def test_post_init_checks_and_normalizes_the_fields():
    assert Point([1], [2]).x == (1.0,)
    with pytest.raises(ValueError, match="point coordinates must be finite"):
        Point((float("nan"),), ())
    with pytest.raises(EmptyBox, match=r"invalid interval \[1.0, 0.0\]"):
        SampleBox(x=((1.0, 0.0),), y=())
    A = identity_algebroid(2)
    with pytest.raises(ShapeError,
                       match="kind must be 'lagrange' or 'finsler'"):
        FundamentalFunction(A, A.zero_field(), "energy")
    assert FundamentalFunction(A, A.zero_field()).kind == "lagrange"


def test_the_inverse_metric_blocks_are_built_once_per_instance(monkeypatch):
    calls = count_calls(monkeypatch, metric, "_inverse")
    _, _, G = poincare_geometry()
    first = G.gh_inv()
    assert G.gh_inv() is first and G._gh_inv is first
    assert len(calls) == 1
    G.gv_inv()
    G.gv_inv()
    assert len(calls) == 2
    assert "_gh_inv" in vars(G)


def test_the_samples_of_a_geometry_are_drawn_once(monkeypatch):
    calls = count_calls(monkeypatch, sampling, "generate")
    geometry = cli.load_config(fixture_path("flat.json"))
    samples = geometry.samples
    assert geometry.samples is samples
    assert len(calls) == 1
    assert samples == box_samples(geometry.m, geometry.r, geometry.count,
                                  geometry.seed, geometry.box.x,
                                  geometry.box.y, geometry.fiber_floor)


def test_a_geometry_takes_assignment():
    geometry = cli.load_config(fixture_path("flat.json"))
    geometry.count = 3
    assert geometry.count == 3 and len(geometry.samples) == 3


def test_default_lists_and_dicts_are_not_shared():
    a, b = ValidationReport(), ValidationReport()
    a.add("r", 0.0, None, 1e-8)
    a.metadata["k"] = 1
    assert b.checks == [] and b.metadata == {}
    assert a.checks is not b.checks and a.metadata is not b.metadata
