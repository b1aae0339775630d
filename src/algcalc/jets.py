"""Forward-mode jets for scalar fields on bundle coordinates.

Coordinates are ordered (x1..xm, y1..yr).  Derivatives come from truncated
multivariate Taylor arithmetic: evaluating a field on Taylor seeds yields its
jet in one pass.  A field defined as the partial derivative of another field
adds a nested one-variable first-order Taylor layer per derivative, so derived
fields (e.g. a Hessian entry) remain differentiable themselves.  Each layer
carries a tag so that operands from different layers never merge coefficients.

A scalar field is a node of an expression graph; ``evaluate`` computes a
list of fields at a point, each node once.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Optional, Sequence

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


def _opaque(fn, coords):
    return fn(coords)


def _arithmetic(op, reflected=False):
    """The method ``field <op> other`` (``other <op> field`` if
    ``reflected``), with a number taken as a constant field."""
    def method(self, other):
        if isinstance(other, ScalarField):
            if (other.m, other.r) != (self.m, self.r):
                raise DimensionMismatch("fields live over different coordinates")
        elif _is_number(other):
            other = ScalarField.const(self.m, self.r, other)
        else:
            return NotImplemented
        return derived(op, (other, self) if reflected else (self, other))
    return method


class ScalarField:
    """A scalar function of the m + r bundle coordinates: a node of an
    expression graph.

    ``ScalarField(m, r, fn, deps)`` is an opaque leaf whose ``param`` is
    ``fn``: it takes the list of coordinates (floats or Taylor objects) and
    returns a scalar of the same kind.  Every other node applies ``op`` to the values of its
    ``args``; when ``param`` is not None, ``op`` takes ``param`` and the
    coordinates first, as coordinates, partial derivatives, compositions
    and matrix inverses do.  ``deps`` is the set of coordinate indices the
    field can depend on (None when unknown); partials with respect to any
    other coordinate are exactly zero.

    ``constant`` holds the value of a constant field (None otherwise).  A
    node whose inputs are all constant is computed at construction with
    the op it would run at each point, so values agree bit for bit; if
    that raises (division by a constant zero, ``sin(1e400)``), the node
    stays lazy and raises where it is evaluated.  Nothing folds when an
    input is not constant, so ``0 * x`` stays NaN where ``x`` is infinite
    and ``0 + x`` keeps the sign of a zero ``x``.
    """

    __slots__ = ("m", "r", "param", "deps", "op", "args", "constant",
                 "_order")

    def __init__(self, m, r, param, deps=None, op=_opaque, args=(),
                 constant=None):
        self.m, self.r, self.param = m, r, param
        self.deps = None if deps is None else frozenset(deps)
        self.op, self.args, self.constant = op, args, constant
        self._order = None   # set by ``evaluate``

    @property
    def n(self):
        return self.m + self.r

    @classmethod
    def const(cls, m, r, value):
        return cls(m, r, None, (), None, constant=float(value))

    @classmethod
    def coordinate(cls, m, r, index):
        if not 0 <= index < m + r:
            raise DimensionMismatch(f"coordinate index {index} out of range")
        return cls(m, r, operator.itemgetter(index), (index,))

    def __call__(self, coords):
        return evaluate([self], coords)[0]

    # -- pointwise algebra -------------------------------------------------

    __add__ = __radd__ = _arithmetic(operator.add)
    __sub__ = _arithmetic(operator.sub)
    __mul__ = __rmul__ = _arithmetic(operator.mul)
    __truediv__ = _arithmetic(t_div)
    __rtruediv__ = _arithmetic(t_div, reflected=True)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return derived(operator.neg, (self,))

    # -- differentiation ---------------------------------------------------

    def partial(self, index):
        """Field of the first partial derivative along coordinate ``index``."""
        if not 0 <= index < self.n:
            raise DimensionMismatch(f"coordinate index {index} out of range")
        if self.deps is not None and index not in self.deps:
            return ScalarField.const(self.m, self.r, 0.0)
        return ScalarField(self.m, self.r, (self, index), self.deps,
                           _partial_at)


# Errors that leave a node over constant inputs unfolded; it raises them
# again where it is evaluated.
_FOLD_ERRORS = (GeometryError, ArithmeticError, ValueError)


def merge_deps(fields):
    """Union of the dependence sets of ``fields``; None if one is unknown."""
    deps = frozenset()
    for f in fields:
        if f.deps is None:
            return None
        if not f.deps <= deps:
            deps = deps | f.deps if deps else f.deps
    return deps


# ``deps`` of ``derived`` when the node depends on what its arguments do
_MERGED = object()


def derived(op, args, param=None, deps=_MERGED):
    """The node ``op`` over the fields ``args`` (at least one), folded into
    a constant when every argument is constant and the op succeeds."""
    values = []
    for a in args:
        if a.constant is None:
            break
        values.append(a.constant)
    else:
        try:
            value = op(*values) if param is None else op(param, (), *values)
        except _FOLD_ERRORS:
            pass
        else:
            return ScalarField(args[0].m, args[0].r, None, (),
                               constant=value)
    if deps is _MERGED:
        deps = merge_deps(args)
    return ScalarField(args[0].m, args[0].r, param, deps, op, tuple(args))


def _partial_at(spec, coords):
    """One order-1 Taylor layer with a fresh tag, seeded along ``index``."""
    base, index = spec
    tag = next(_TAG)
    lifted = [Taylor.lift(1, 1, tag, c) for c in coords]
    lifted[index] = Taylor.seed(1, 1, tag, 0, coords[index])
    out = evaluate([base], lifted)[0]
    if isinstance(out, Taylor) and out.tag == tag:
        return out.coeffs.get((1,), 0.0)
    return 0.0


def _compose_at(outer, coords, *inner):
    return evaluate([outer], inner)[0]


def compose(outer: ScalarField, inner: Sequence[ScalarField]) -> ScalarField:
    """The pullback ``outer(inner_0, ..., inner_{n-1})``.

    ``inner`` supplies one field per coordinate of ``outer``, all over the
    same source coordinates.
    """
    if len(inner) != outer.n:
        raise DimensionMismatch("compose needs one inner field per coordinate")
    deps = None
    if outer.deps is not None and all(f.deps is not None for f in inner):
        deps = merge_deps([inner[j] for j in outer.deps])
    return derived(_compose_at, tuple(inner), outer, deps)


def _topological(root):
    """The nodes ``root`` reaches through ``args``, each once, depth first
    and left to right, every node after its arguments.  ``root`` itself is
    left out, so a field keeping its order does not refer to itself."""
    order, seen = [], {root}
    stack = [(root, iter(root.args))]
    while stack:
        node, args = stack[-1]
        for a in args:
            if a not in seen:
                seen.add(a)
                stack.append((a, iter(a.args)))
                break
        else:
            stack.pop()
            order.append(node)
    return tuple(order[:-1])


def evaluate(fields, coords):
    """Values of ``fields`` at ``coords`` (floats or Taylor objects).

    Every node reachable from the list is computed once, depth first and
    left to right, in the order the fields come.  A partial derivative or a
    composition runs a nested call on its derived coordinates.  A field
    evaluated on its own keeps that order for its next call; ``pack``
    makes one field of many.
    """
    root = fields[0] if len(fields) == 1 else pack(fields)
    if root._order is None:
        root._order = _topological(root)
    values = {}
    value_of = values.__getitem__
    for node in itertools.chain(root._order, (root,)):
        if node.constant is not None:
            values[node] = node.constant
        elif node.param is None:
            values[node] = node.op(*map(value_of, node.args))
        else:
            values[node] = node.op(node.param, coords,
                                   *map(value_of, node.args))
    return [values[f] for f in fields]


def pack(fields):
    """One node whose value is the tuple of the values of ``fields``."""
    m, r = (fields[0].m, fields[0].r) if fields else (0, 0)
    return ScalarField(m, r, None, None, _tuple, tuple(fields))


def _tuple(*values):
    return values


def leaves(grid):
    """The fields of a field or a nested list of fields, in row-major order."""
    if isinstance(grid, ScalarField):
        yield grid
    else:
        for item in grid:
            yield from leaves(item)


def evaluate_grid(grid, coords):
    """Float values of a field or a nested list of fields, shaped like
    ``grid``, from one ``evaluate`` call."""
    values = iter(evaluate(list(leaves(grid)), coords))

    def build(item):
        if isinstance(item, ScalarField):
            return float(next(values))
        return [build(sub) for sub in item]

    return build(grid)


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
    if not (isinstance(out, Taylor) and out.tag == tag):
        out = Taylor.lift(n, order, tag, out)

    def deriv(indices):
        exps = [0] * n
        for i in indices:
            exps[i] += 1
        factor = 1.0
        for e in exps:
            factor *= math.factorial(e)
        return out.coeffs.get(tuple(exps), 0.0) * factor

    def table(k):
        # every entry reads its sorted index tuple, so symmetry is exact
        values = {idx: deriv(idx) for idx in
                  itertools.combinations_with_replacement(range(n), k)}

        def build(prefix):
            if len(prefix) == k:
                return values[tuple(sorted(prefix))]
            return tuple(build(prefix + (i,)) for i in range(n))

        return build(())

    return Jet(order, float(out.value()),
               *(table(k) if k <= order else None for k in (1, 2, 3)))


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
