"""Forward-mode jets for scalar fields on bundle coordinates.

Coordinates are ordered (x1..xm, y1..yr).  Derivatives come from first-order
Taylor arithmetic, nested once per derivative: a field defined as the partial
derivative of another field adds one layer, so derived fields (e.g. a
Hessian entry) remain differentiable themselves, and ``eval_jet`` nests one
layer per order.  Each layer carries a tag so that operands from different
layers never merge coefficients.  Each primitive (sin, cos, exp, ln, sqrt
and the reciprocal of every division) is declared once, by its value, its
derivative and its domain.

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
        v = v.value
    return float(v)


class Taylor:
    """First-order expansion ``value + sum_k grad[k] * d_k`` in layer ``tag``.

    ``grad`` maps a direction index to its coefficient and has no entry for
    a direction without a term; it is never changed once built.  The value
    and the coefficients may be Taylor objects of an enclosing layer.
    """

    __slots__ = ("value", "grad", "tag")

    def __init__(self, value, grad, tag):
        self.value = value
        self.grad = grad
        self.tag = tag

    def _same_layer(self, other):
        return isinstance(other, Taylor) and other.tag == self.tag

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if self._same_layer(other):
            grad = dict(self.grad)
            for k, v in other.grad.items():
                grad[k] = grad[k] + v if k in grad else v
            return Taylor(self.value + other.value, grad, self.tag)
        return Taylor(self.value + other, self.grad, self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(-self.value, {k: -v for k, v in self.grad.items()},
                      self.tag)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._same_layer(other):
            a, b = self.value, other.value
            grad = {k: a * v for k, v in other.grad.items()}
            for k, v in self.grad.items():
                grad[k] = grad[k] + v * b if k in grad else v * b
            return Taylor(a * b, grad, self.tag)
        return Taylor(self.value * other,
                      {k: v * other for k, v in self.grad.items()}, self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _inv(other)

    def __rtruediv__(self, other):
        return _inv(self) * other

    def __repr__(self):
        return f"Taylor({self.value!r}, {self.grad!r}, tag={self.tag})"


def _chain(u: Taylor, f0, f1):
    """f(u) for f with f(c) = ``f0`` and f'(c) = ``f1`` at c = ``u.value``.

    The value ``(c + (-c)) * f1 + f0`` turns a ``-0.0`` into ``0.0`` and
    an infinite ``c`` into NaN, as the expansion ``f0 + f1 * (u - c)`` does.
    """
    c = u.value
    return Taylor((c + (-c)) * f1 + f0,
                  {k: g * f1 for k, g in u.grad.items()}, u.tag)


# -- smooth primitives, generic over float / Taylor ------------------------


def _primitive(f, df, domain=None):
    """``f`` of a float, extended to a Taylor ``u`` by ``_chain`` with
    f'(c) = ``df(c, f(c))`` at its constant term c.  ``f`` raises outside
    its domain; where ``domain(u)`` is False, f' is not needed and f(u) is
    the constant f(c) of the layer."""
    def primitive(u):
        if isinstance(u, Taylor):
            c = u.value
            f0 = primitive(c)
            if domain is None or domain(u):
                return _chain(u, f0, df(c, f0))
            return Taylor(f0, {}, u.tag)
        return f(u)
    return primitive


def _kink_at_zero(name):
    """Domain rule of a function without a derivative at zero: at zero, a
    ``u`` with a term in its layer raises, and one without needs no f'."""
    def domain(u):
        if scalar_value(u.value) != 0.0:
            return True
        if u.grad:
            raise NonSmoothPoint(f"{name} is not differentiable at zero")
        return False
    return domain


def _exp(u):
    try:
        return math.exp(u)
    except OverflowError:
        raise GeometryError(f"exp({u!r}) overflows") from None


def _ln(u):
    if u <= 0.0:
        raise NonSmoothPoint("ln of a non-positive argument")
    return math.log(u)


def _sqrt(u):
    if u < 0.0:
        raise NonSmoothPoint("sqrt of a negative argument")
    return math.sqrt(u)


def _reciprocal(u):
    if u == 0.0:
        raise NonSmoothPoint("division by zero")
    return 1.0 / u


t_sin = _primitive(math.sin, lambda c, s: t_cos(c))
t_cos = _primitive(math.cos, lambda c, s: -t_sin(c))
t_exp = _primitive(_exp, lambda c, e: e)
t_ln = _primitive(_ln, lambda c, f0: _inv(c))
t_sqrt = _primitive(_sqrt, lambda c, s: 0.5 * _inv(s), _kink_at_zero("sqrt"))
_inv = _primitive(_reciprocal, lambda c, i1: -(i1 * i1))
_abs_domain = _kink_at_zero("abs")


def t_tan(u):
    return t_div(t_sin(u), t_cos(u))


def t_abs(u):
    if isinstance(u, Taylor):
        if not _abs_domain(u):
            return Taylor(t_abs(u.value), {}, u.tag)
        return u if scalar_value(u.value) > 0.0 else -u
    return abs(u)


def t_div(a, b):
    # a Taylor ``b`` is never == 0.0: Taylor division checks it in ``_inv``
    if b == 0.0:
        raise NonSmoothPoint("division by zero")
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
    entries are read from the same nested Taylor coefficient, so symmetry
    is exact, not approximate.
    """

    order: int
    value: float
    first: Optional[tuple] = None
    second: Optional[tuple] = None
    third: Optional[tuple] = None


def _opaque(fn, coords):
    return fn(coords)


def _coordinate(index, coords):
    return coords[index]


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
    returns a scalar of the same kind.  Every other node applies ``op`` to
    the values of its ``args``; when ``param`` is not None, ``op`` takes
    ``param`` and the coordinates first, as coordinates (whose ``param`` is
    the index), partial derivatives, compositions and matrix inverses do.
    ``deps`` is the set of coordinate indices the field can depend on (None
    when unknown); partials with respect to any other coordinate are
    exactly zero.

    ``constant`` holds the value of a constant field (None otherwise).  A
    node whose inputs are all constant is computed at construction with
    the op it would run at each point, so values agree bit for bit; if
    that raises (division by a constant zero, ``sin(1e400)``), the node
    stays lazy and raises where it is evaluated.  Nothing folds when an
    input is not constant, so ``0 * x`` stays NaN where ``x`` is infinite
    and ``0 + x`` keeps the sign of a zero ``x``.
    """

    __slots__ = ("m", "r", "param", "deps", "op", "args", "constant",
                 "_order", "_partials")

    def __init__(self, m, r, param, deps=None, op=_opaque, args=(),
                 constant=None):
        self.m, self.r, self.param = m, r, param
        self.deps = None if deps is None else frozenset(deps)
        self.op, self.args, self.constant = op, args, constant
        self._order = None      # set by ``evaluate``
        self._partials = None   # index -> field, filled by ``partial``

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
        return cls(m, r, index, (index,), _coordinate)

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
        """Field of the first partial derivative along coordinate ``index``,
        built once per index and kept on this node, so that ``evaluate``
        computes a repeated partial once."""
        partials = self._partials = self._partials or {}
        if index not in partials:
            if not 0 <= index < self.n:
                raise DimensionMismatch(
                    f"coordinate index {index} out of range")
            partials[index] = (
                ScalarField.const(self.m, self.r, 0.0)
                if self.deps is not None and index not in self.deps else
                ScalarField(self.m, self.r, (self, index), self.deps,
                            _partial_at))
        return partials[index]


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
    """One first-order Taylor layer with a fresh tag, seeded along ``index``."""
    base, index = spec
    tag = next(_TAG)
    lifted = [Taylor(c, {}, tag) for c in coords]
    lifted[index] = Taylor(coords[index], {index: 1.0}, tag)
    out = evaluate([base], lifted)[0]
    if isinstance(out, Taylor) and out.tag == tag:
        return out.grad.get(index, 0.0)
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
    """Jet of ``field`` at ``point`` up to ``order`` (0..3).

    ``field`` is evaluated once on ``order`` nested layers, each seeded
    along every coordinate.  The derivative along a sorted index tuple
    ``(i, j, ...)`` reads ``grad[i]`` of the innermost layer not read for its
    value, then ``grad[j]`` of the next one out, and so on.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    coords = list(point.coords())
    n = field.n
    if len(coords) != n:
        raise DimensionMismatch(
            f"point has {len(coords)} coordinates, field expects {n}")
    tags = []
    for _ in range(order):
        tags.append(next(_TAG))
        coords = [Taylor(c, {i: 1.0}, tags[-1]) for i, c in enumerate(coords)]
    out = evaluate([field], coords)[0]

    def deriv(indices):
        v = out
        steps = (None,) * (order - len(indices)) + indices
        for tag, i in zip(reversed(tags), steps):
            if isinstance(v, Taylor) and v.tag == tag:
                v = v.value if i is None else v.grad.get(i, 0.0)
            elif i is not None:
                return 0.0
        return float(v)

    def table(k):
        # every entry reads its sorted index tuple, so symmetry is exact
        values = {idx: deriv(idx) for idx in
                  itertools.combinations_with_replacement(range(n), k)}

        def build(prefix):
            if len(prefix) == k:
                return values[tuple(sorted(prefix))]
            return tuple(build(prefix + (i,)) for i in range(n))

        return build(())

    return Jet(order, deriv(()),
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
