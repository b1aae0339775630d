import gc
import itertools
import math
import tracemalloc

import pytest

from algcalc import jets, linalg, sampling
from algcalc.errors import EmptyBox, NonSmoothPoint
from algcalc.exprlang import parse_field
from algcalc.jets import Point, ScalarField, evaluate
from algcalc.sampling import (SampleBox, ValidationReport, fields_sweep_max,
                              generate, sweep, sweep_max)
from conftest import count_calls


def unit_box(m=2, r=2):
    return SampleBox(x=((-1.0, 1.0),) * m, y=((-1.0, 1.0),) * r)


# two base and two fiber coordinates of unequal widths
MIXED_BOX = SampleBox(x=((-1.0, 2.0), (0.5, 0.75)), y=((-1.0, 1.0),) * 2)


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
    # the first k points do not depend on the requested count, even where
    # the fiber floor rejects attempts
    box = unit_box()
    assert generate(box, 30, seed=7)[:10] == generate(box, 10, seed=7)
    full = generate(MIXED_BOX, 60, seed=13, fiber_floor=0.8)
    for count in (0, 1, 17, 59):
        assert generate(MIXED_BOX, count, seed=13, fiber_floor=0.8) == \
            full[:count]


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


def reference_sweep(groups, points):
    """(max, argmax point) of each group, one ``evaluate`` call per group
    and point."""
    return [sweep_max(lambda p: sweep_max(float, evaluate(group,
                                                          p.coords()))[0],
                      points)
            for group in groups]


def test_block_sweep_matches_a_per_point_reference(monkeypatch):
    blocks = []
    monkeypatch.setattr(sampling, "evaluate_points",
                        lambda root, coords: blocks.append(len(coords))
                        or jets.evaluate_points(root, coords))
    pts = generate(unit_box(2, 1), 130, seed=8, fiber_floor=None)
    # the largest values come at point 70 and again at an equal point 100,
    # so the argmax is the first of the two
    pts[70] = Point((2.0, -2.0), (2.0,))
    pts[100] = Point((2.0, -2.0), (2.0,))
    field = lambda text: parse_field(text, 2, 1)   # noqa: E731
    mat = [[field("2 + x1^2"), field("x1*y1 - x2")],
           [field("x2*y1"), field("3 + sin(x2)*y1^2")]]
    groups = [
        [f for row in linalg.field_matrix_inverse(mat) for f in row],
        [field("exp(x1*y1) - x2^3"), field("sqrt(x1^2 + y1^2)*cos(x2)")],
        [field("x1*0.0 + 0.25")],     # the same max at every point
        [mat[0][1] * mat[1][0]],
    ]
    got = sweep(groups, pts)
    want = reference_sweep(groups, pts)
    assert blocks == [64, 64]   # the last 2 points go one by one
    for (value, arg), (ref, ref_arg) in zip(got, want):
        assert value.hex() == ref.hex() and arg is ref_arg
    assert got[2][1] is pts[0] and got[3][1] is pts[70]


def test_a_block_raises_the_error_the_point_order_meets():
    # in node order, ln fails first (at x1 = -0.3); in point order, the
    # power fails first (at x1 = 0.2)
    pts = [Point((x,), (0.5,)) for x in (0.5, 0.2, -0.3, 0.9)]
    fields = [parse_field("ln(x1 + 0.1)", 1, 1),
              parse_field("(x1 - 0.5)^0.5", 1, 1)]
    with pytest.raises(NonSmoothPoint,
                       match="non-integer power of a non-positive base"):
        sweep([fields], pts)


def test_a_block_whose_guard_raises_meets_the_point_order_error(
        monkeypatch):
    # the partial's guard, the kink check of abs, fails at x1 = 0 (point
    # 1); ln fails at point 2 but comes first in node order, so the block
    # raises the ln error and the point-by-point sweep the kink's
    blocks = []

    def recorded(root, coords):
        try:
            return jets.evaluate_points(root, coords)
        except NonSmoothPoint as exc:
            blocks.append(str(exc))
            raise

    monkeypatch.setattr(sampling, "evaluate_points", recorded)
    pts = [Point((x,), (0.5,)) for x in (0.3, 0.0, -0.7, 0.9)]
    guarded = parse_field("abs(x1)*y1", 1, 1).partial(0)
    assert guarded.op is jets._then
    with pytest.raises(NonSmoothPoint,
                       match="abs is not differentiable at zero"):
        sweep([[parse_field("ln(x1 + 0.5)", 1, 1), guarded]], pts)
    assert blocks == ["ln of a non-positive argument"]


def test_a_group_settled_in_a_block_is_not_evaluated_later_in_it():
    pts = [Point((x,), (0.5,)) for x in (0.9, -0.3, 0.2, 0.7)]
    nan_first = parse_field("x1*1e308*10 - x1*1e308*10", 1, 1)
    raises_second = parse_field("ln(x1)", 1, 1)
    x = parse_field("x1", 1, 1)
    (value, arg), good = sweep([[nan_first, raises_second], [x]], pts)
    assert math.isnan(value) and arg is pts[0]
    assert good == fields_sweep_max([x], pts) == (0.9, pts[0])


def test_sweep_peak_memory_does_not_grow_with_points():
    terms = " + ".join(f"sin({k}*x1 + y1)*cos(x1 - {k}*y1)*exp(-{k}*x1*y1)"
                       for k in range(1, 11))
    field = parse_field(terms, 1, 1)
    fields = [field, field.partial(0)]
    assert len(jets._topological(jets.pack(fields))) >= 500
    pts = generate(unit_box(1, 1), 1280, seed=9, fiber_floor=None)

    def peak(points):
        fields_sweep_max(fields, points)   # cached orders in place
        gc.collect()
        tracemalloc.start()
        try:
            fields_sweep_max(fields, points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(pts) <= 1.5 * peak(pts[:128])


def splitmix64(state):
    """The SplitMix64 output at ``state``: the golden-ratio step, then the
    finaliser, modulo 2**64."""
    z = (state + 0x9E3779B97F4A7C15) % 2**64
    z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
    z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
    return z ^ z >> 31


def seed_key(seed):
    """The sign of ``seed``, then each 64-bit limb of ``abs(seed)`` from
    the lowest, folded through ``splitmix64``."""
    key = splitmix64(1 if seed < 0 else 0)
    limbs = [abs(seed) % 2**64]
    rest = abs(seed) // 2**64
    while rest:
        limbs.append(rest % 2**64)
        rest //= 2**64
    for limb in limbs:
        key = splitmix64(key ^ limb)
    return key


def keyed_points(box, count, seed, fiber_floor):
    """``generate`` written out from the keyed stream, and the number of
    attempts the fiber floor rejected."""
    key = seed_key(seed)
    intervals = box.x + box.y

    def draw(i, attempt):
        h = splitmix64(splitmix64(key ^ i) ^ attempt)
        return [lo + (hi - lo) * (splitmix64(h ^ k) // 2**11 / 2**53)
                for k, (lo, hi) in enumerate(intervals)]

    points, rejected = [], 0
    for i in range(count):
        for attempt in itertools.count():
            coords = draw(i, attempt)
            xs, ys = coords[:len(box.x)], coords[len(box.x):]
            if fiber_floor is None or \
                    math.sqrt(sum(v * v for v in ys)) >= fiber_floor:
                points.append(Point(tuple(xs), tuple(ys)))
                break
            rejected += 1
    return points, rejected


@pytest.mark.parametrize("floor, rejects", [(None, False), (0.8, True)])
def test_generate_draws_the_keyed_stream(floor, rejects):
    want, rejected = keyed_points(MIXED_BOX, 60, 13, floor)
    assert (rejected > 0) == rejects
    got = generate(MIXED_BOX, 60, seed=13, fiber_floor=floor)
    assert [p.coords() for p in got] == [p.coords() for p in want]


def test_a_rejected_attempt_moves_no_other_point():
    free = generate(MIXED_BOX, 60, seed=13, fiber_floor=None)
    floored = generate(MIXED_BOX, 60, seed=13, fiber_floor=0.8)
    kept = [math.sqrt(sum(v * v for v in p.y)) >= 0.8 for p in free]
    assert 0 < kept.count(False) < len(kept) - 1
    for i, (a, b) in enumerate(zip(free, floored)):
        # a point whose first attempt passes is that attempt, even after
        # points whose first attempts were rejected
        assert (a == b) == kept[i]


# The first three points of seed 13 on MIXED_BOX, the same on every Python.
GOLDEN_SEED_13 = [
    ["-0x1.708851d093565p-1", "0x1.714389ae073c6p-1",
     "0x1.5f6e023057080p-3", "-0x1.77ee5be37c9a0p-2"],
    ["-0x1.677397907b13cp-3", "0x1.47a9b70336242p-1",
     "-0x1.4e5cabd6f102cp-1", "0x1.15d688e88aed0p-1"],
    ["0x1.89da5f141e7a4p+0", "0x1.14f1a303fa4f4p-1",
     "0x1.7706a708b117ap-1", "-0x1.e101e75afecf8p-2"],
]


def test_the_first_points_of_seed_13_are_pinned():
    got = [[v.hex() for v in p.coords()]
           for p in generate(MIXED_BOX, 3, seed=13)]
    assert got == GOLDEN_SEED_13


def test_seeds_that_share_a_limb_or_a_magnitude_draw_apart():
    seeds = (0, 1, -1, 2**64, 2**64 + 1, -2**64)
    firsts = {generate(MIXED_BOX, 1, seed=s)[0] for s in seeds}
    assert len(firsts) == len(seeds)


def test_draws_spread_evenly_over_sixteen_bins():
    box = SampleBox(x=((0.0, 1.0),) * 2, y=((0.0, 1.0),) * 2)
    bins = [0] * 16
    for p in generate(box, 5000, seed=29, fiber_floor=None):
        for v in p.coords():
            bins[int(v * 16)] += 1
    assert sum(bins) == 20000
    assert all(1125 <= n <= 1375 for n in bins), bins


def test_a_sweep_builds_its_block_tables_once(monkeypatch):
    tables = count_calls(monkeypatch, jets, "_last_reads")
    scanned = []

    class Scanned(frozenset):
        def __contains__(self, op):
            scanned.append(op)
            return frozenset.__contains__(self, op)

    monkeypatch.setattr(jets, "_OPAQUE_OPS", Scanned(jets._OPAQUE_OPS))
    fields = [parse_field("x1*y1 + sin(x1)", 1, 1),
              parse_field("exp(y1) - x1^2", 1, 1)]
    pts = generate(unit_box(1, 1), 3 * sampling.BLOCK + 5, seed=4,
                   fiber_floor=None)
    assert sweep([fields], pts) == reference_sweep([fields], pts)
    # four blocks, one packed node: one table of last readers, and one scan
    # of its nodes for an opaque one
    nodes = len(jets._topological(jets.pack(fields))) + 1
    assert len(tables) == 1 and len(scanned) == nodes
