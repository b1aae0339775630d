"""Deterministic sample generation and residual reports.

Points are drawn from a keyed counter-based stream (Salmon et al.,
*Parallel random numbers: as easy as 1, 2, 3*, SC 2011): coordinate k of
point i at resampling attempt a is a hash of (seed, i, a, k), built from
the SplitMix64 mixer (Steele, Lea & Flood, *Fast splittable pseudorandom
number generators*, OOPSLA 2014) in integer arithmetic alone.  The stream
is stateless, so the same (seed, box) always yields the same list,
whatever the evaluation order or the Python version.  These are not the
points that earlier versions, which seeded a Mersenne Twister with the
string ``seed:i:a:k``, drew for the same seed.
"""

from __future__ import annotations

import math

from .errors import EmptyBox
from .jets import Point, calls_out, evaluate, evaluate_points, pack
from .record import FrozenRecord

DEFAULT_FIBER_FLOOR = 1e-3
_MAX_ATTEMPTS = 1000

# Points per ``evaluate_points`` call of a sweep: enough to spread the cost
# of walking the graph, few enough that its columns stay small.  A block of
# fewer than ``MIN_BLOCK`` points goes point by point: on a 758-node graph,
# ``evaluate`` took 0.34 ms a point, and a block 0.83 ms a point at 1
# point, 0.45 ms at 2 and about as long as ``evaluate`` at 3.
BLOCK = 64
MIN_BLOCK = 3


class SampleBox(FrozenRecord):
    """Axis-aligned box: one (lo, hi) interval per coordinate."""

    x: tuple[tuple[float, float], ...]
    y: tuple[tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "x",
                           tuple((float(a), float(b)) for a, b in self.x))
        object.__setattr__(self, "y",
                           tuple((float(a), float(b)) for a, b in self.y))
        for lo, hi in self.x + self.y:
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
                raise EmptyBox(f"invalid interval [{lo}, {hi}]")


_MASK = (1 << 64) - 1
_UNIT = 2.0 ** -53   # a 53-bit integer times this is a float in [0, 1)


def _mix(z):
    """The SplitMix64 output at state ``z``: one golden-ratio step, then
    the finaliser, as a 64-bit int."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _key(seed):
    """``seed``, any int, folded into 64 bits: its sign, then each 64-bit
    limb of its magnitude, lowest first."""
    key = _mix(int(seed < 0))
    magnitude = abs(seed)
    while True:
        key = _mix(key ^ (magnitude & _MASK))
        magnitude >>= 64
        if not magnitude:
            return key


def _draw(key, index, attempt, intervals):
    """The coordinates of point ``index`` at ``attempt``, one in each of
    ``intervals``: coordinate k is ``lo + (hi - lo) * u`` for the top 53
    bits ``u`` of the hash of k under the key of the point and attempt."""
    h = _mix(_mix(key ^ index) ^ attempt)
    return [lo + (hi - lo) * ((_mix(h ^ k) >> 11) * _UNIT)
            for k, (lo, hi) in enumerate(intervals)]


def _max_fiber_norm(box: SampleBox):
    total = 0.0
    for lo, hi in box.y:
        total += max(abs(lo), abs(hi)) ** 2
    return math.sqrt(total)


def generate(box: SampleBox, count: int, seed: int,
             fiber_floor: float | None = DEFAULT_FIBER_FLOOR):
    """``count`` points in ``box``, excluding fibers closer to the zero
    section than ``fiber_floor`` (pass None to disable the exclusion)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if fiber_floor is not None and box.y and \
            _max_fiber_norm(box) < fiber_floor:
        raise EmptyBox(
            f"no point of the fiber box reaches norm {fiber_floor}")
    points = []
    key, m, intervals = _key(seed), len(box.x), box.x + box.y
    for i in range(count):
        for attempt in range(_MAX_ATTEMPTS):
            coords = _draw(key, i, attempt, intervals)
            xs, ys = tuple(coords[:m]), tuple(coords[m:])
            if fiber_floor is None or not ys or \
                    math.sqrt(sum(v * v for v in ys)) >= fiber_floor:
                points.append(Point(xs, ys))
                break
        else:
            raise EmptyBox(
                f"could not sample a fiber with norm >= {fiber_floor}")
    return points


class ResidualCheck(FrozenRecord):
    """One named residual: its max over the sweep, where, and pass/fail."""

    name: str
    value: float
    argmax: Point | None
    tol: float

    @property
    def passed(self):
        return self.value <= self.tol

    def to_dict(self):
        arg = None
        if self.argmax is not None:
            arg = {"x": list(self.argmax.x), "y": list(self.argmax.y)}
        return {"max": self.value, "argmax": arg, "tol": self.tol,
                "pass": self.passed}


class ValidationReport:
    """Ordered collection of residual checks plus run metadata."""

    def __init__(self):
        self.checks = []
        self.metadata = {}

    def add(self, name, value, argmax, tol):
        self.checks.append(ResidualCheck(name, value, argmax, tol))

    def add_all(self, names, sweeps, tol):
        """One check per name from the (max, argmax) pairs of ``sweep``."""
        for name, (value, argmax) in zip(names, sweeps):
            self.add(name, value, argmax, tol)

    def extend(self, other: ValidationReport):
        self.checks.extend(other.checks)

    def __getitem__(self, name):
        for check in self.checks:
            if check.name == name:
                return check
        raise KeyError(name)

    @property
    def passed(self):
        return all(check.passed for check in self.checks)

    def to_dict(self):
        return {
            "residuals": {c.name: c.to_dict() for c in self.checks},
            "pass": self.passed,
            "metadata": dict(self.metadata),
        }


def sweep_max(fn, items):
    """(max |fn(item)|, argmax item) over ``items``; (0.0, None) if empty.

    A non-finite value wins the sweep: the first NaN ends it, and an
    infinity beats every finite value, so a check that sees either fails
    with that item as its argmax.
    """
    best, arg = 0.0, None
    for item in items:
        magnitude = abs(fn(item))
        if math.isnan(magnitude):
            return magnitude, item
        if arg is None or magnitude > best:
            best, arg = magnitude, item
    return best, arg


def sweep(groups, points):
    """``fields_sweep_max`` of each group of fields over the same points:
    one (max, argmax point) per group.

    The points are taken in blocks of ``BLOCK``.  A block takes one
    ``evaluate_points`` call over the fields of every group still open, so
    each node runs once per block, on a column of values, and a node shared
    by fields of several groups runs once per point.  A group whose max is
    NaN is settled at that point: its values at later points of the block
    are ignored, and it is not evaluated at later blocks.

    Three kinds of block are swept point by point instead, one ``evaluate``
    call per point, with each group settled as soon as its max is NaN:
    - a block that raises, so that the first error raised is the one the
      point order meets;
    - a block of fewer than ``MIN_BLOCK`` points, which ``evaluate`` runs
      faster;
    - a block whose graph ``calls_out`` to code that the caller can see
      called, so that a settled group's opaque leaves are called at no
      later point.
    """
    groups = [list(group) for group in groups]
    results = [(0.0, None)] * len(groups)
    live = list(range(len(groups)))
    points = list(points)
    packed = None   # one node over the live fields; keeps its node order
    for start in range(0, len(points), BLOCK):
        if packed is None:
            if not live:
                break
            spans, packed = _pack(groups, live)
        block = points[start:start + BLOCK]
        rows = None
        # a node over no fields has no column to map over
        if len(block) >= MIN_BLOCK and packed.args and \
                not calls_out(packed):
            try:
                rows = evaluate_points(packed, [p.coords() for p in block])
            except Exception:
                # any error: the sweep point by point raises the one the
                # point order meets first, or none if a group settled
                # before that point holds the failing node
                pass
        if rows is None:
            spans, packed = _sweep_pointwise(groups, results, live, spans,
                                             packed, block)
        else:
            for point, row in zip(block, rows):
                if _take(results, live, spans, point, row):
                    packed = None
    return results


def _pack(groups, live):
    """The (group, start, stop) spans of the live groups' fields in one
    packed node, and that node."""
    spans, fields = [], []
    for k in live:
        spans.append((k, len(fields), len(fields) + len(groups[k])))
        fields += groups[k]
    return spans, pack(fields)


def _take(results, live, spans, point, row):
    """Fold ``row``, the values of the packed fields at ``point``, into the
    results of the live groups; settle a group whose max is NaN.  True if
    one settled."""
    settled = False
    for k, start, stop in spans:
        if k not in live:
            continue
        magnitude = sweep_max(float, row[start:stop])[0]
        best, arg = results[k]
        if math.isnan(magnitude):
            live.remove(k)
            settled = True
            results[k] = magnitude, point
        elif arg is None or magnitude > best:
            results[k] = magnitude, point
    return settled


def _sweep_pointwise(groups, results, live, spans, packed, points):
    """Sweep ``points`` one ``evaluate`` call at a time, packing the live
    fields again after a group settles.  Returns the spans and packed node
    left at the end (None if a group settled at the last point)."""
    for point in points:
        if packed is None:
            if not live:
                break
            spans, packed = _pack(groups, live)
        if _take(results, live, spans, point,
                 evaluate([packed], point.coords())[0]):
            packed = None
    return spans, packed


def fields_sweep_max(fields, points):
    """Max |field(point)| over every field in a flat iterable and every
    point.  Returns (max, argmax_point)."""
    return sweep([fields], points)[0]
