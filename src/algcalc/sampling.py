"""Deterministic sample generation and residual reports.

Points are drawn per-index from a counter-based stream: coordinate k of
point i at resampling attempt a is derived from the key ``seed:i:a:k``.
The stream is stateless, so the same (seed, box) always yields the same
list regardless of evaluation order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Optional, Tuple

from .errors import EmptyBox
from .jets import Point, evaluate, pack

DEFAULT_FIBER_FLOOR = 1e-3
_MAX_ATTEMPTS = 1000


@dataclass(frozen=True)
class SampleBox:
    """Axis-aligned box: one (lo, hi) interval per coordinate."""

    x: Tuple[Tuple[float, float], ...]
    y: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "x",
                           tuple((float(a), float(b)) for a, b in self.x))
        object.__setattr__(self, "y",
                           tuple((float(a), float(b)) for a, b in self.y))
        for lo, hi in self.x + self.y:
            if not (math.isfinite(lo) and math.isfinite(hi)) or hi < lo:
                raise EmptyBox(f"invalid interval [{lo}, {hi}]")


def _draw(seed, index, attempt, k, lo, hi):
    rng = random.Random(f"{seed}:{index}:{attempt}:{k}")
    return lo + (hi - lo) * rng.random()


def _max_fiber_norm(box: SampleBox):
    total = 0.0
    for lo, hi in box.y:
        total += max(abs(lo), abs(hi)) ** 2
    return math.sqrt(total)


def generate(box: SampleBox, count: int, seed: int,
             fiber_floor: Optional[float] = DEFAULT_FIBER_FLOOR):
    """``count`` points in ``box``, excluding fibers closer to the zero
    section than ``fiber_floor`` (pass None to disable the exclusion)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    if fiber_floor is not None and box.y and \
            _max_fiber_norm(box) < fiber_floor:
        raise EmptyBox(
            f"no point of the fiber box reaches norm {fiber_floor}")
    points = []
    for i in range(count):
        for attempt in range(_MAX_ATTEMPTS):
            xs = tuple(_draw(seed, i, attempt, k, lo, hi)
                       for k, (lo, hi) in enumerate(box.x))
            ys = tuple(_draw(seed, i, attempt, len(box.x) + k, lo, hi)
                       for k, (lo, hi) in enumerate(box.y))
            if fiber_floor is None or not ys or \
                    math.sqrt(sum(v * v for v in ys)) >= fiber_floor:
                points.append(Point(xs, ys))
                break
        else:
            raise EmptyBox(
                f"could not sample a fiber with norm >= {fiber_floor}")
    return points


@dataclass(frozen=True)
class ResidualCheck:
    """One named residual: its max over the sweep, where, and pass/fail."""

    name: str
    value: float
    argmax: Optional[Point]
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


@dataclass
class ValidationReport:
    """Ordered collection of residual checks plus run metadata."""

    checks: list = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    def add(self, name, value, argmax, tol):
        self.checks.append(ResidualCheck(name, value, argmax, tol))

    def add_all(self, names, sweeps, tol):
        """One check per name from the (max, argmax) pairs of ``sweep``."""
        for name, (value, argmax) in zip(names, sweeps):
            self.add(name, value, argmax, tol)

    def extend(self, other: "ValidationReport"):
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

    Each point takes one ``evaluate`` call over the fields of every group
    still open, so a node shared by fields of several groups runs once per
    point.  A group whose max is NaN is settled and not evaluated at later
    points.
    """
    groups = [list(group) for group in groups]
    results = [(0.0, None)] * len(groups)
    live = list(range(len(groups)))
    packed = None   # one node over the live fields; keeps its node order
    for point in points:
        if packed is None:
            if not live:
                break
            packed = pack([f for k in live for f in groups[k]])
        values = iter(evaluate([packed], point.coords())[0])
        for k in list(live):
            magnitude = sweep_max(float, [next(values) for _ in groups[k]])[0]
            best, arg = results[k]
            if math.isnan(magnitude):
                live.remove(k)
                packed = None
                results[k] = magnitude, point
            elif arg is None or magnitude > best:
                results[k] = magnitude, point
    return results


def fields_sweep_max(fields, points):
    """Max |field(point)| over every field in a flat iterable and every
    point.  Returns (max, argmax_point)."""
    return sweep([fields], points)[0]
