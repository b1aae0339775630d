"""Forward-mode jets for scalar fields on bundle coordinates.

Coordinates are ordered (x1..xm, y1..yr).  Derivatives come from truncated
multivariate Taylor arithmetic: evaluating a field on Taylor seeds yields its
jet in one pass.  A field defined as the partial derivative of another field
adds a nested one-variable first-order Taylor layer per derivative, so derived
fields (e.g. a Hessian entry) remain differentiable themselves.  Each layer
carries a tag so that operands from different layers never merge coefficients.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import DimensionMismatch, GeometryError, NonSmoothPoint

_TAG = itertools.count(1)

MAX_ORDER = 3


def _is_number(v):
    return isinstance(v, (int, float))


def scalar_value(v):
    """Constant term of a possibly nested Taylor scalar, as a float."""
    while isinstance(v, Taylor):
        v = v.value()
    return float(v)


class Taylor:
    """Multivariate Taylor expansion truncated at total degree ``order``.

    ``coeffs`` maps exponent tuples (length ``nvars``) to coefficients, which
    may themselves be Taylor objects from an enclosing layer.
    """

    __slots__ = ("nvars", "order", "tag", "coeffs")

    def __init__(self, nvars, order, tag, coeffs):
        self.nvars = nvars
        self.order = order
        self.tag = tag
        self.coeffs = coeffs

    @classmethod
    def seed(cls, nvars, order, tag, index, value):
        coeffs = {(0,) * nvars: value}
        if order >= 1:
            unit = tuple(1 if i == index else 0 for i in range(nvars))
            coeffs[unit] = 1.0
        return cls(nvars, order, tag, coeffs)

    @classmethod
    def lift(cls, nvars, order, tag, value):
        return cls(nvars, order, tag, {(0,) * nvars: value})

    def value(self):
        return self.coeffs.get((0,) * self.nvars, 0.0)

    def _same_layer(self, other):
        return isinstance(other, Taylor) and other.tag == self.tag

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if self._same_layer(other):
            coeffs = dict(self.coeffs)
            for k, v in other.coeffs.items():
                coeffs[k] = coeffs[k] + v if k in coeffs else v
            return Taylor(self.nvars, self.order, self.tag, coeffs)
        coeffs = dict(self.coeffs)
        zero = (0,) * self.nvars
        coeffs[zero] = coeffs.get(zero, 0.0) + other
        return Taylor(self.nvars, self.order, self.tag, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(self.nvars, self.order, self.tag,
                      {k: -v for k, v in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._same_layer(other):
            order = self.order
            coeffs = {}
            for ka, va in self.coeffs.items():
                for kb, vb in other.coeffs.items():
                    k = tuple(a + b for a, b in zip(ka, kb))
                    if sum(k) > order:
                        continue
                    prod = va * vb
                    coeffs[k] = coeffs[k] + prod if k in coeffs else prod
            return Taylor(self.nvars, order, self.tag, coeffs)
        return Taylor(self.nvars, self.order, self.tag,
                      {k: v * other for k, v in self.coeffs.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        if self._same_layer(other):
            return self * other.reciprocal()
        return self * _inv(other)

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def reciprocal(self):
        c = self.value()
        if scalar_value(c) == 0.0:
            raise NonSmoothPoint("division by zero")
        i1 = _inv(c)
        i2 = i1 * i1
        derivs = [i1, -i2, 2.0 * (i2 * i1), -6.0 * (i2 * i2)]
        return _compose(self, derivs)

    def __repr__(self):
        return f"Taylor(nvars={self.nvars}, order={self.order}, {self.coeffs!r})"


def _compose(u: Taylor, derivs):
    """f(u) for f with derivative list [f(c), f'(c), ...] at c = const term."""
    res = derivs[0]
    w = u - u.value()
    cur = w
    fact = 1.0
    for k in range(1, u.order + 1):
        fact *= k
        res = cur * (derivs[k] * (1.0 / fact)) + res
        cur = cur * w
    return res


def _inv(v):
    if isinstance(v, Taylor):
        return v.reciprocal()
    if v == 0.0:
        raise NonSmoothPoint("division by zero")
    return 1.0 / v


# -- smooth primitives, generic over float / Taylor ------------------------


def t_sin(u):
    if isinstance(u, Taylor):
        c = u.value()
        s, co = t_sin(c), t_cos(c)
        return _compose(u, [s, co, -s, -co])
    return math.sin(u)


def t_cos(u):
    if isinstance(u, Taylor):
        c = u.value()
        s, co = t_sin(c), t_cos(c)
        return _compose(u, [co, -s, -co, s])
    return math.cos(u)


def t_tan(u):
    return t_div(t_sin(u), t_cos(u))


def t_exp(u):
    if isinstance(u, Taylor):
        e = t_exp(u.value())
        return _compose(u, [e, e, e, e])
    try:
        return math.exp(u)
    except OverflowError:
        raise GeometryError(f"exp({u!r}) overflows") from None


def t_ln(u):
    if isinstance(u, Taylor):
        c = u.value()
        if scalar_value(c) <= 0.0:
            raise NonSmoothPoint("ln of a non-positive argument")
        i1 = _inv(c)
        i2 = i1 * i1
        return _compose(u, [t_ln(c), i1, -i2, 2.0 * (i2 * i1)])
    if u <= 0.0:
        raise NonSmoothPoint("ln of a non-positive argument")
    return math.log(u)


def t_sqrt(u):
    if isinstance(u, Taylor):
        c = u.value()
        sv = scalar_value(c)
        if sv < 0.0:
            raise NonSmoothPoint("sqrt of a negative argument")
        if sv == 0.0:
            raise NonSmoothPoint("sqrt is not differentiable at zero")
        s = t_sqrt(c)
        d1 = 0.5 * _inv(s)
        d2 = -0.25 * _inv(c * s)
        d3 = 0.375 * _inv(c * c * s)
        return _compose(u, [s, d1, d2, d3])
    if u < 0.0:
        raise NonSmoothPoint("sqrt of a negative argument")
    return math.sqrt(u)


def t_abs(u):
    if isinstance(u, Taylor):
        sv = scalar_value(u.value())
        if sv == 0.0:
            raise NonSmoothPoint("abs is not differentiable at zero")
        return u if sv > 0.0 else -u
    return abs(u)


def t_div(a, b):
    if isinstance(b, Taylor):
        return (a * b.reciprocal()) if not isinstance(a, Taylor) else a / b
    if b == 0.0:
        raise NonSmoothPoint("division by zero")
    if isinstance(a, Taylor):
        return a * (1.0 / b)
    return a / b


def t_pow(base, exponent):
    """base ** exponent.  Integer exponents work for any base; otherwise the
    base must be positive (exp/ln path)."""
    if _is_number(exponent) and float(exponent).is_integer():
        return _pow_int(base, int(exponent))
    if scalar_value(base) <= 0.0:
        raise NonSmoothPoint("non-integer power of a non-positive base")
    try:
        return t_exp(exponent * t_ln(base))
    except GeometryError:
        raise GeometryError(f"pow({scalar_value(base)!r}, "
                            f"{scalar_value(exponent)!r}) overflows") from None


def _pow_int(base, n):
    if n == 0:
        return 1.0
    if n < 0:
        return _inv(_pow_int(base, -n))
    result = None
    acc = base
    while n:
        if n & 1:
            result = acc if result is None else result * acc
        n >>= 1
        if n:
            acc = acc * acc
    return result


# -- points and jets -------------------------------------------------------


@dataclass(frozen=True)
class Point:
    """A point of the total space, base part ``x`` and fiber part ``y``."""

    x: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "x", tuple(float(v) for v in self.x))
        object.__setattr__(self, "y", tuple(float(v) for v in self.y))
        for v in self.x + self.y:
            if not math.isfinite(v):
                raise ValueError("point coordinates must be finite")

    def coords(self):
        return self.x + self.y


@dataclass(frozen=True)
class Jet:
    """Partial derivatives of a scalar field at a point, up to ``order``.

    ``second`` and ``third`` are fully symmetric nested tuples; symmetric
    entries are produced from the same Taylor coefficient, so symmetry is
    exact, not approximate.
    """

    order: int
    value: float
    first: Optional[tuple] = None
    second: Optional[tuple] = None
    third: Optional[tuple] = None


class ScalarField:
    """A scalar function of the m + r bundle coordinates.

    Wraps a callable that accepts a list of scalars (floats or Taylor
    objects) and returns a scalar of the same kind.  ``deps`` is the set of
    coordinate indices the field can depend on; partials with respect to any
    other coordinate are exactly zero.
    """

    __slots__ = ("m", "r", "deps", "_fn", "_memo")

    def __init__(self, m, r, fn, deps=None):
        self.m = m
        self.r = r
        self._fn = fn
        self.deps = frozenset(deps) if deps is not None else None
        self._memo = {}

    @property
    def n(self):
        return self.m + self.r

    @classmethod
    def const(cls, m, r, value):
        value = float(value)
        return cls(m, r, lambda coords: value, deps=())

    @classmethod
    def coordinate(cls, m, r, index):
        if not 0 <= index < m + r:
            raise DimensionMismatch(f"coordinate index {index} out of range")
        return cls(m, r, lambda coords: coords[index], deps=(index,))

    def __call__(self, coords):
        key = None
        if all(type(c) is float for c in coords):
            key = tuple(coords)
            hit = self._memo.get(key)
            if hit is not None:
                return hit
        out = self._fn(coords)
        if key is not None:
            self._memo[key] = out
        return out

    # -- pointwise algebra -------------------------------------------------

    def _check(self, other):
        if isinstance(other, ScalarField):
            if (other.m, other.r) != (self.m, self.r):
                raise DimensionMismatch("fields live over different coordinates")
            return other
        if _is_number(other):
            return ScalarField.const(self.m, self.r, other)
        return NotImplemented

    def _merge_deps(self, other):
        if self.deps is None or other.deps is None:
            return None
        return self.deps | other.deps

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(self.m, self.r,
                           lambda coords: self(coords) + other(coords),
                           self._merge_deps(other))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(self.m, self.r,
                           lambda coords: self(coords) - other(coords),
                           self._merge_deps(other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return ScalarField(self.m, self.r, lambda coords: -self(coords),
                           self.deps)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(self.m, self.r,
                           lambda coords: self(coords) * other(coords),
                           self._merge_deps(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return ScalarField(self.m, self.r,
                           lambda coords: t_div(self(coords), other(coords)),
                           self._merge_deps(other))

    def __rtruediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    # -- differentiation ---------------------------------------------------

    def partial(self, index):
        """Field of the first partial derivative along coordinate ``index``."""
        if not 0 <= index < self.n:
            raise DimensionMismatch(f"coordinate index {index} out of range")
        if self.deps is not None and index not in self.deps:
            return ScalarField.const(self.m, self.r, 0.0)
        base = self

        def fn(coords):
            tag = next(_TAG)
            lifted = [Taylor.lift(1, 1, tag, c) for c in coords]
            lifted[index] = Taylor.seed(1, 1, tag, 0, coords[index])
            out = base(lifted)
            if isinstance(out, Taylor) and out.tag == tag:
                return out.coeffs.get((1,), 0.0)
            return 0.0

        return ScalarField(self.m, self.r, fn, self.deps)


def compose(outer: ScalarField, inner: Sequence[ScalarField]) -> ScalarField:
    """The pullback ``outer(inner_0, ..., inner_{n-1})``.

    ``inner`` supplies one field per coordinate of ``outer``, all over the
    same source coordinates.
    """
    if len(inner) != outer.n:
        raise DimensionMismatch("compose needs one inner field per coordinate")
    m, r = inner[0].m, inner[0].r
    deps = None
    if outer.deps is not None and all(f.deps is not None for f in inner):
        deps = frozenset().union(*(inner[j].deps for j in outer.deps)) \
            if outer.deps else frozenset()
    return ScalarField(m, r, lambda coords: outer([f(coords) for f in inner]),
                       deps)


def eval_jet(field: ScalarField, point: Point, order: int) -> Jet:
    """Jet of ``field`` at ``point`` up to ``order`` (0..3)."""
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    coords = list(point.coords())
    n = field.n
    if len(coords) != n:
        raise DimensionMismatch(
            f"point has {len(coords)} coordinates, field expects {n}")
    if order == 0:
        return Jet(0, float(field(coords)))

    tag = next(_TAG)
    seeds = [Taylor.seed(n, order, tag, i, coords[i]) for i in range(n)]
    out = field(seeds)

    def coeff(exps):
        if isinstance(out, Taylor) and out.tag == tag:
            return out.coeffs.get(tuple(exps), 0.0)
        return 0.0

    def deriv(*indices):
        exps = [0] * n
        for i in indices:
            exps[i] += 1
        factor = 1.0
        for e in exps:
            factor *= math.factorial(e)
        return coeff(exps) * factor

    value = float(out.value() if isinstance(out, Taylor) and out.tag == tag
                  else out)
    first = tuple(deriv(i) for i in range(n))
    second = third = None
    if order >= 2:
        # build from canonical (sorted) index pairs so symmetry is exact
        pair = {}
        for i in range(n):
            for j in range(i, n):
                pair[(i, j)] = deriv(i, j)
        second = tuple(tuple(pair[tuple(sorted((i, j)))] for j in range(n))
                       for i in range(n))
    if order >= 3:
        trip = {}
        for i in range(n):
            for j in range(i, n):
                for k in range(j, n):
                    trip[(i, j, k)] = deriv(i, j, k)
        third = tuple(tuple(tuple(trip[tuple(sorted((i, j, k)))]
                                  for k in range(n)) for j in range(n))
                      for i in range(n))
    return Jet(order, value, first, second, third)


def fd_partial(field: ScalarField, point: Point, index: int,
               step: float = 1e-5) -> float:
    """Central finite difference, the independent oracle for jet partials."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    coords = list(point.coords())
    if not 0 <= index < len(coords):
        raise DimensionMismatch(f"coordinate index {index} out of range")
    hi = list(coords)
    lo = list(coords)
    hi[index] += step
    lo[index] -= step
    return (float(field(hi)) - float(field(lo))) / (2.0 * step)
