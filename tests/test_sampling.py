import gc
import math
import tracemalloc

import pytest

from algcalc.errors import EmptyBox
from algcalc.exprlang import parse_field
from algcalc.jets import ScalarField
from algcalc.sampling import (SampleBox, ValidationReport, fields_sweep_max,
                              generate, sweep, sweep_max)


def unit_box(m=2, r=2):
    return SampleBox(x=((-1.0, 1.0),) * m, y=((-1.0, 1.0),) * r)


def test_generation_is_deterministic():
    box = unit_box()
    a = generate(box, 20, seed=42)
    b = generate(box, 20, seed=42)
    assert a == b
    c = generate(box, 20, seed=43)
    assert a != c


def test_points_respect_the_box():
    box = SampleBox(x=((0.0, 1.0), (2.0, 3.0)), y=((-2.0, -1.0),))
    for pt in generate(box, 50, seed=0):
        assert 0.0 <= pt.x[0] <= 1.0
        assert 2.0 <= pt.x[1] <= 3.0
        assert -2.0 <= pt.y[0] <= -1.0


def test_prefix_stability():
    # the first k points do not depend on the requested count
    box = unit_box()
    assert generate(box, 30, seed=7)[:10] == generate(box, 10, seed=7)


def test_fiber_floor_excludes_zero_section():
    box = unit_box()
    for pt in generate(box, 100, seed=1, fiber_floor=0.5):
        assert math.sqrt(sum(v * v for v in pt.y)) >= 0.5


def test_unreachable_floor_raises():
    box = SampleBox(x=((-1.0, 1.0),), y=((-0.001, 0.001),))
    with pytest.raises(EmptyBox):
        generate(box, 5, seed=0, fiber_floor=0.5)


def test_invalid_interval_rejected():
    with pytest.raises(EmptyBox):
        SampleBox(x=((1.0, 0.0),), y=())


def test_sweep_max_finds_argmax():
    box = unit_box(1, 1)
    pts = generate(box, 50, seed=3, fiber_floor=None)
    value, arg = sweep_max(lambda p: p.x[0] ** 2, pts)
    assert arg is not None
    assert value == max(p.x[0] ** 2 for p in pts)
    assert value == arg.x[0] ** 2


def test_fields_sweep_max_over_fields():
    f = parse_field("x1", 1, 1)
    g = parse_field("2*y1", 1, 1)
    pts = generate(unit_box(1, 1), 30, seed=4, fiber_floor=None)
    value, arg = fields_sweep_max([f, g], pts)
    want = max(max(abs(p.x[0]), 2 * abs(p.y[0])) for p in pts)
    assert value == pytest.approx(want)


def test_non_finite_residual_wins_the_sweep():
    pts = generate(unit_box(1, 1), 2, seed=3, fiber_floor=None)
    for bad in (math.nan, math.inf):
        values = {pts[0]: 0.5, pts[1]: bad}
        value, arg = sweep_max(lambda p: values[p], pts)
        assert not math.isfinite(value) and arg == pts[1]
        second = ScalarField(1, 1, lambda c: bad if c[0] == pts[1].x[0]
                             else 0.25)
        value, arg = fields_sweep_max(
            [ScalarField.const(1, 1, 0.5), second], pts)
        assert not math.isfinite(value) and arg == pts[1]


def test_report_accessors_and_serialization():
    report = ValidationReport()
    report.add("alpha", 1e-12, None, 1e-8)
    report.add("beta", 0.5, None, 1e-8)
    assert report["alpha"].passed
    assert not report["beta"].passed
    assert not report.passed
    payload = report.to_dict()
    assert payload["pass"] is False
    assert payload["residuals"]["alpha"]["pass"] is True
    with pytest.raises(KeyError):
        report["missing"]


def test_sweep_evaluates_a_shared_leaf_once_per_point():
    calls = []

    def fn(coords):
        calls.append(1)
        return coords[0]

    leaf = ScalarField(1, 1, fn, deps=(0,))
    y = parse_field("y1", 1, 1)
    pts = generate(unit_box(1, 1), 7, seed=5, fiber_floor=None)
    (first, arg1), (second, arg2) = sweep([[leaf * y], [leaf + y]], pts)
    assert len(calls) == len(pts)
    assert (first, arg1) == fields_sweep_max([leaf * y], pts)
    assert (second, arg2) == fields_sweep_max([leaf + y], pts)


def test_nan_group_is_settled_and_others_sweep_on():
    pts = generate(unit_box(1, 1), 3, seed=6, fiber_floor=None)
    calls = []

    def fn(coords):
        calls.append(1)
        return math.nan if coords[0] == pts[1].x[0] else 0.5

    bad = ScalarField(1, 1, fn, deps=(0,))
    x = parse_field("x1", 1, 1)
    (value, arg), (good, good_arg) = sweep([[bad], [x]], pts)
    assert math.isnan(value) and arg == pts[1]
    assert len(calls) == 2
    assert (good, good_arg) == fields_sweep_max([x], pts)


def test_sweep_memory_does_not_grow_with_points():
    pts = generate(unit_box(1, 1), 440, seed=7, fiber_floor=None)
    field = parse_field("x1*y1 + sin(x1)*exp(y1)", 1, 1)
    fields = [field.partial(0), field]
    # 40 points first, so free lists and cached node orders are in place
    fields_sweep_max(fields, pts[:40])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fields_sweep_max(fields, pts[40:])
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096
