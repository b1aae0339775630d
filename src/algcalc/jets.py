"""Jets and derivatives of scalar fields on bundle coordinates.

Coordinates are ordered (x1..xm, y1..yr).  A scalar field is a node of an
expression graph; ``evaluate`` computes a list of fields at a point, each
node once.  Equal nodes are one node: ``derived``, ``ScalarField.const``
and ``ScalarField.coordinate`` return the node already built for the same
key while it lives, from a table that holds nodes weakly.

``partial`` differentiates symbolically.  It builds the derivative as graph
nodes, once per node and coordinate, by running first-order Taylor
arithmetic over graph nodes instead of floats.  A first-order layer is
seeded along one coordinate, and each of its scalars holds a value and one
coefficient along that coordinate, None where it has no term; each value
and coefficient that such a layer computes at a point becomes a node that
computes it.  So a partial agrees with that layer bit for bit and raises
where it raises, and a derived field (e.g. a Hessian entry) is a graph
that is differentiable again.  Each node is lifted into the layer once
per coordinate while it lives: the node keeps its lift and the guards it
adds, and every later partial that reaches it along that coordinate reads
them there.  Each primitive (sin, cos, exp, ln, sqrt and the reciprocal of
every division) is declared once, by its value, its derivative and its
domain, and both kinds of layer read that one derivative.

A numeric layer remains only where no graph can be seen into: the layer
over nodes meets an opaque leaf or a matrix inverse entry as a node that
runs a numeric first-order layer on it at each point.  Each numeric layer
carries a tag so that operands from different layers never merge
coefficients.  ``eval_jet`` reads its tables from partial chains.

``evaluate_points`` computes a node at a block of points in one walk of
its graph, each node taking one column of values; ``sampling.sweep`` runs
each block of its points through it.  The sweep goes point by point,
through ``evaluate``, for a block that raises (so that the error raised is
the first one in point order), for a block of one or two points, and for
a graph that ``calls_out`` to code whose calls a caller can count (opaque
leaves, numeric layers).  ``evaluate`` stays the single-point path of
probes, ``eval_jet`` and the numeric layers.
"""

from __future__ import annotations

import itertools
import math
import operator
import weakref

from .errors import DimensionMismatch, GeometryError, NonSmoothPoint
from .record import FrozenRecord

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
    """First-order expansion ``value + coef * d`` in layer ``tag``, where d
    is the one coordinate the layer is seeded along.

    ``coef`` is None where the expansion has no term.  That is not a zero
    term: the sqrt/abs kink rule and the signs of zeros tell them apart.
    The value and the coefficient may be Taylor objects of an enclosing
    layer.
    """

    __slots__ = ("value", "coef", "tag")

    def __init__(self, value, coef, tag):
        self.value = value
        self.coef = coef
        self.tag = tag

    def _same_layer(self, other):
        return isinstance(other, Taylor) and other.tag == self.tag

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if self._same_layer(other):
            a, b = self.coef, other.coef
            coef = b if a is None else a if b is None else a + b
            return Taylor(self.value + other.value, coef, self.tag)
        return Taylor(self.value + other, self.coef, self.tag)

    __radd__ = __add__

    def __neg__(self):
        return Taylor(-self.value, None if self.coef is None else -self.coef,
                      self.tag)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self._same_layer(other):
            a, b = self.value, other.value
            coef = None if other.coef is None else a * other.coef
            if self.coef is not None:
                coef = (self.coef * b if coef is None
                        else coef + self.coef * b)
            return Taylor(a * b, coef, self.tag)
        return Taylor(self.value * other,
                      None if self.coef is None else self.coef * other,
                      self.tag)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self * _inv(other)

    def __rtruediv__(self, other):
        return _inv(self) * other

    def __repr__(self):
        return f"Taylor({self.value!r}, {self.coef!r}, tag={self.tag})"


def _chain(u: Taylor, f0, f1):
    """f(u) for f with f(c) = ``f0`` and f'(c) = ``f1`` at c = ``u.value``.

    The value ``(c + (-c)) * f1 + f0`` turns a ``-0.0`` into ``0.0`` and
    an infinite ``c`` into NaN, as the expansion ``f0 + f1 * (u - c)`` does.
    """
    c = u.value
    return Taylor((c + (-c)) * f1 + f0,
                  None if u.coef is None else u.coef * f1, u.tag)


# -- smooth primitives, generic over float / Taylor ------------------------


def _primitive(f, df, kink=None):
    """``f`` of a float, extended to a Taylor ``u`` by ``_chain`` with
    f'(c) = ``df(c, f(c))`` at its constant term c, and to a field by a
    node.  ``f`` raises outside its domain.  ``kink``, the op of
    ``_kink_check``, marks a function without a derivative at zero: there
    a ``u`` with a term in its layer raises, and one without needs no f'
    and has the constant f(c)."""
    def primitive(u):
        if type(u) is float:
            return f(u)
        if isinstance(u, Taylor):
            c = u.value
            f0 = primitive(c)
            if kink is None:
                return _chain(u, f0, df(c, f0))
            if isinstance(c, ScalarField):
                return _kinked_chain(u, f0, primitive, df)
            if scalar_value(c) != 0.0:
                return _chain(u, f0, df(c, f0))
            if u.coef is not None:
                kink(c, u)   # raises, as c is zero
            return Taylor(f0, None, u.tag)
        if isinstance(u, ScalarField):
            return derived(primitive, (u,))
        return f(u)
    return primitive


def _kink_check(name):
    """The op ``check(c, x)``: ``x``, after raising where ``c`` is zero."""
    def check(c, x):
        if _over_nodes(c, x):
            return _through(check, (c, x), x)
        if scalar_value(c) == 0.0:
            raise NonSmoothPoint(f"{name} is not differentiable at zero")
        return x
    return check


def _kinked_chain(u, f0, primitive, df):
    """The kinked primitive of a ``u`` over graph nodes.  Which branch the
    numeric layer takes depends on the value c of ``u`` at the point, so
    both are nodes: the chained value where c is nonzero (computed at 1.0
    where c is zero, so that it cannot raise there), else ``f0``.  Where c
    is zero and ``u`` has a term, the check that ``_layer`` adds raises."""
    c = u.value
    nonzero = derived(_nonzero_or_one, (c,))
    chained = _chain(u, f0, df(nonzero, primitive(nonzero)))
    return Taylor(derived(_where_nonzero, (c, chained.value, f0)),
                  chained.coef, u.tag)


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
_sqrt_kink = _kink_check("sqrt")
t_sqrt = _primitive(_sqrt, lambda c, s: 0.5 * _inv(s), _sqrt_kink)
_inv = _primitive(_reciprocal, lambda c, i1: -(i1 * i1))


def t_tan(u):
    return t_div(t_sin(u), t_cos(u))


def t_abs(u):
    if isinstance(u, Taylor):
        c = u.value
        if isinstance(c, ScalarField):
            return Taylor(derived(t_abs, (c,)),
                          None if u.coef is None else
                          derived(_signed, (c, _as_field(u.coef, c))), u.tag)
        if u.coef is None and scalar_value(c) == 0.0:
            return Taylor(t_abs(c), None, u.tag)
        return _signed(c, u)
    if isinstance(u, ScalarField):
        return derived(t_abs, (u,))
    return abs(u)


def _signed(c, g):
    """``g`` or ``-g`` by the sign of ``c``, the value of the argument u of
    abs: abs(u) itself, or its coefficient from the coefficient ``g`` of u.
    Where ``c`` is zero, abs has no derivative."""
    if _over_nodes(c, g):
        cv = _value(c)
        node = derived(_signed, (cv, _as_field(_value(g), cv)))
        if not isinstance(g, Taylor):
            return node
        return Taylor(node, None if g.coef is None else
                      derived(_signed, (cv, _as_field(g.coef, cv))), _NODE_TAG)
    _abs_kink(c, g)
    return g if scalar_value(c) > 0.0 else -g


_abs_kink = _kink_check("abs")
# The check of each kinked primitive, made where its argument has a term
_KINKS = {t_sqrt: _sqrt_kink, t_abs: _abs_kink}


def t_div(a, b):
    # a Taylor or a field ``b`` is never == 0.0: division checks it in
    # ``_inv`` or in the node it builds
    if b == 0.0:
        raise NonSmoothPoint("division by zero")
    return a / b


def t_pow(base, exponent):
    """base ** exponent.  Integer exponents work for any base; otherwise the
    base must be positive (exp/ln path)."""
    if _is_number(exponent) and float(exponent).is_integer():
        return _pow_int(base, int(exponent))
    return _pow_exp(base, exponent, exponent * t_ln(_pow_base(base)))


def _pow_base(base):
    """``base``, after raising where it is not positive."""
    if _over_nodes(base):
        return _through(_pow_base, (base,), base)
    if scalar_value(base) <= 0.0:
        raise NonSmoothPoint("non-integer power of a non-positive base")
    return base


def _pow_exp(base, exponent, w):
    """exp(``w``) for ``w`` = exponent * ln(base), its overflow named as
    one of the power."""
    if _over_nodes(base, exponent, w):
        f0 = _through(_pow_exp, (base, exponent, w), None)
        return _chain(w, f0, f0) if isinstance(w, Taylor) else f0
    try:
        return t_exp(w)
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


class Point(FrozenRecord):
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


class Jet(FrozenRecord):
    """Partial derivatives of a scalar field at a point, up to ``order``.

    ``value`` is the value of the field.  ``second`` and ``third`` are fully
    symmetric nested tuples; symmetric entries are read from the same
    partial chain, over the sorted index tuple, so symmetry is exact, not
    approximate.
    """

    order: int
    value: float
    first: tuple | None = None
    second: tuple | None = None
    third: tuple | None = None


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


# One node per key while the node lives: op, param and the ids of the args
# for ``derived``, op, node id and index for the leaves that partials of
# opaque nodes build, the float.hex of a constant with its dimensions, and
# (m, r, index) for a coordinate.  Keys name nodes by id, not by reference,
# so that no key keeps a node alive; a live node keeps its args, so their
# ids stay theirs while its entry exists.  Each entry holds its node by a
# weak reference that removes the entry when the node dies.
_NODES = {}


def _interned(key):
    """The live node kept under ``key``, or None."""
    ref = _NODES.get(key)
    return None if ref is None else ref()


def _intern(key, node):
    _NODES[key] = weakref.KeyedRef(node, _forget, key)
    return node


def _forget(ref, nodes=_NODES):
    # the table is bound here, so that a node dying while the interpreter
    # clears module globals at exit still finds it
    if nodes.get(ref.key) is ref:
        del nodes[ref.key]


class ScalarField:
    """A scalar function of the m + r bundle coordinates: a node of an
    expression graph.

    ``ScalarField(m, r, fn, deps)`` is an opaque leaf whose ``param`` is
    ``fn``: it takes the list of coordinates (floats or Taylor objects) and
    returns a scalar of the same kind.  Every other node applies ``op`` to
    the values of its ``args``; when ``param`` is not None, ``op`` takes
    ``param`` and the coordinates first, as coordinates (whose ``param`` is
    the index), partials of opaque nodes, pulled-back opaque nodes and
    matrix inverses do.  ``deps`` is the set of coordinate indices the field
    can depend on (None when unknown); partials with respect to any other
    coordinate are exactly zero.

    ``constant`` holds the value of a constant field (None otherwise).  A
    node whose inputs are all constant is computed at construction with
    the op it would run at each point, so values agree bit for bit; if
    that raises (division by a constant zero, ``sin(1e400)``), the node
    stays lazy and raises where it is evaluated.  Nothing folds when an
    input is not constant, so ``0 * x`` stays NaN where ``x`` is infinite
    and ``0 + x`` keeps the sign of a zero ``x``.
    """

    __slots__ = ("m", "r", "param", "deps", "op", "args", "constant",
                 "_order", "_drops", "_calls_out", "_partials", "_lifts",
                 "__weakref__")

    def __init__(self, m, r, param, deps=None, op=_opaque, args=(),
                 constant=None):
        self.m, self.r, self.param = m, r, param
        self.deps = None if deps is None else frozenset(deps)
        self.op, self.args, self.constant = op, args, constant
        self._order = None      # set by ``evaluate``
        self._drops = None      # set by ``evaluate_points``
        self._calls_out = None  # set by ``calls_out``
        self._partials = None   # index -> field, filled by ``partial``
        self._lifts = None      # index -> (lift, own guards), by ``_layer``

    @property
    def n(self):
        return self.m + self.r

    @classmethod
    def const(cls, m, r, value):
        value = float(value)
        key = (m, r, value.hex())
        return _interned(key) or _intern(
            key, cls(m, r, None, (), None, constant=value))

    @classmethod
    def coordinate(cls, m, r, index):
        if not 0 <= index < m + r:
            raise DimensionMismatch(f"coordinate index {index} out of range")
        key = (m, r, index)
        return _interned(key) or _intern(
            key, cls(m, r, index, (index,), _coordinate))

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
        built once per index and kept on this node.

        It is the coefficient of this field in the first-order layer over
        graph nodes seeded along ``index``, computed after the layer's value
        of the field, so that it raises wherever the layer does.  Each node
        is lifted into the layer once per coordinate while it lives, so a
        partial walks the nodes that earlier partials lifted along ``index``
        without lifting them again.  A node the layer cannot see into (an
        opaque leaf, a matrix inverse entry) enters it as a node that runs a
        numeric layer at each point."""
        partials = self._partials = self._partials or {}
        if index not in partials:
            if not 0 <= index < self.n:
                raise DimensionMismatch(
                    f"coordinate index {index} out of range")
            if self.deps is not None and index not in self.deps:
                partials[index] = ScalarField.const(self.m, self.r, 0.0)
            elif self.op is _raise:
                partials[index] = self
            else:
                out, guards = _layer(self, index)
                coef = _coef(out)
                partials[index] = derived(_then, (
                    *guards, _as_field(_value(out), self),
                    _as_field(0.0 if coef is None else coef, self)))
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


def derived(op, args, param=None):
    """The node ``op`` over the fields ``args`` (at least one), folded into
    a constant when every argument is constant and the op succeeds.  While
    it lives, the same op, param and args give the same node."""
    args = tuple(args)
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
            return _constant(args[0].m, args[0].r, value)
    key = (op, param, *map(id, args))
    return _interned(key) or _intern(key, ScalarField(
        args[0].m, args[0].r, param, merge_deps(args), op, args))


def _constant(m, r, value):
    """The constant node of ``value``; a float one is interned."""
    if type(value) is float:
        return ScalarField.const(m, r, value)
    return ScalarField(m, r, None, (), constant=value)


def _leaf(base, index, op):
    """The argument-free node ``op`` with the param ``(base, index)`` over
    the coordinates and the dependence set of ``base``."""
    key = (op, id(base), index)
    return _interned(key) or _intern(
        key, ScalarField(base.m, base.r, (base, index), base.deps, op))


def _as_field(value, like):
    """``value`` if it is a field, else a constant field over the
    coordinates of ``like``."""
    if isinstance(value, ScalarField):
        return value
    return ScalarField.const(like.m, like.r, value)


# -- the first-order layer over graph nodes ---------------------------------

# Tag of every layer over graph nodes; numeric layers count from 1.
_NODE_TAG = 0


def _value(v):
    return v.value if isinstance(v, Taylor) else v


def _coef(v):
    return v.coef if isinstance(v, Taylor) else None


def _over_nodes(*values):
    """Whether any of ``values`` belongs to a layer over graph nodes: a
    Taylor with ``_NODE_TAG``, or a field, which stands for a value without
    a term that the numeric layer would hold as a float."""
    return any(isinstance(v, ScalarField) or
               (isinstance(v, Taylor) and v.tag == _NODE_TAG) for v in values)


def _through(op, args, carrier):
    """In a layer over graph nodes, the node ``op`` over the values of
    ``args`` with the coefficients of ``carrier``: what an op that checks
    its arguments and returns ``carrier`` gives there."""
    like = next(v for v in map(_value, args) if isinstance(v, ScalarField))
    node = derived(op, [_as_field(_value(a), like) for a in args])
    if isinstance(carrier, Taylor):
        return Taylor(node, carrier.coef, _NODE_TAG)
    return node


def _then(*values):
    """The last of ``values``, computed after the others."""
    if _over_nodes(*values):
        return _through(_then, values, values[-1])
    return values[-1]


def _nonzero_or_one(c):
    """``c``, or 1.0 where it is zero."""
    if _over_nodes(c):
        return _through(_nonzero_or_one, (c,), c)
    return c if scalar_value(c) != 0.0 else 1.0


def _where_nonzero(c, a, b):
    """``a`` where ``c`` is nonzero, else ``b``."""
    if _over_nodes(c, a, b):
        cv = _value(c)
        node = derived(_where_nonzero, [cv] + [_as_field(_value(v), cv)
                                               for v in (a, b)])
        if not isinstance(a, Taylor) and not isinstance(b, Taylor):
            return node
        # both branches of a kinked chain have a term where c has one
        return Taylor(node, None if a.coef is None else derived(
            _where_nonzero, (cv, _as_field(a.coef, cv),
                             _as_field(b.coef, cv))), _NODE_TAG)
    return a if scalar_value(c) != 0.0 else b


def _raise(spec, coords):
    cls, args = spec
    raise cls(*args)


# Ops that a layer over graph nodes runs on its values: each one acts on a
# Taylor whose value and coefficients are fields by building nodes.
_LAYER_OPS = frozenset([
    operator.add, operator.sub, operator.mul, operator.neg, t_div, t_tan,
    t_sin, t_cos, t_exp, t_ln, t_sqrt, _inv, t_abs, t_pow, _signed,
    _pow_base, _pow_exp, _then, _nonzero_or_one, _where_nonzero,
    _sqrt_kink, _abs_kink])


def _in_layer(node):
    return node.param is None and node.op in _LAYER_OPS


def _layer(root, index):
    """``root`` in the first-order layer seeded along ``index`` whose
    values and coefficients are graph nodes (a Taylor with ``_NODE_TAG``
    holding a value and one coefficient along ``index``, None where it has
    no term; a float where the numeric layer has a constant; or a field
    where it has a float computed at the point, such as one that raises),
    and the guards: nodes that the numeric layer computes but whose values
    it drops, kept for the errors they raise.  They are the check of each
    kinked primitive whose argument has a term, and the arguments of an op
    with a constant value, such as x^0.  The walk reaches every node after
    its arguments and adds its guards in that order.  A node is lifted, and
    its own guards built, the first time a walk along ``index`` reaches it;
    both are kept in its ``_lifts`` for every later walk."""
    lifted, guards = {}, []
    stack = [root]
    while stack:
        node = stack[-1]
        if node in lifted:
            stack.pop()
            continue
        args = node.args if _in_layer(node) else ()
        todo = [a for a in args if a.constant is None and a not in lifted]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        lifts = node._lifts = node._lifts or {}
        if index not in lifts:
            args = [a.constant if a.constant is not None else lifted[a]
                    for a in args]
            out = _lift(node, index, args)
            own = []
            if node.op in _KINKS and _coef(args[0]) is not None:
                c = args[0].value
                own.append(derived(_KINKS[node.op], (c, c)))
            if not isinstance(out, (Taylor, ScalarField)):
                own += [_value(a) for a in args
                        if isinstance(a, (Taylor, ScalarField))]
            lifts[index] = out, tuple(own)
        lifted[node], own = lifts[index]
        guards += own
    return lifted[root], guards


def _lift(node, index, args):
    """``node`` in the layer along ``index``, its arguments there given."""
    if node.op is _coordinate:
        return Taylor(node, 1.0 if node.param == index else None, _NODE_TAG)
    if node.op is _raise:
        return node
    if not _in_layer(node):
        pair = _leaf(node, index, _layer_at)
        coef = None
        if node.deps is None or index in node.deps:
            coef = derived(_LAYER_COEF, (pair,))
        return Taylor(derived(_LAYER_VALUE, (pair,)), coef, _NODE_TAG)
    try:
        return node.op(*args)
    except _FOLD_ERRORS as err:
        # the layer raises here at every point
        return ScalarField(node.m, node.r, (type(err), err.args), node.deps,
                           _raise)


def _layer_at(spec, coords):
    """(value, coefficient) of ``base`` in a numeric first-order layer with
    a fresh tag, seeded along ``index``: each coordinate is a Taylor with
    no term (coefficient None) but coordinate ``index``, whose coefficient
    is 1.0.  The coefficient is 0.0 where the result has no term."""
    base, index = spec
    tag = next(_TAG)
    lifted = [Taylor(c, None, tag) for c in coords]
    lifted[index] = Taylor(coords[index], 1.0, tag)
    out = evaluate([base], lifted)[0]
    if isinstance(out, Taylor) and out.tag == tag:
        return out.value, 0.0 if out.coef is None else out.coef
    return out, 0.0


_LAYER_VALUE = operator.itemgetter(0)
_LAYER_COEF = operator.itemgetter(1)


def _pulled_back(spec, coords, *values):
    """An opaque node of ``compose``'s outer field, run on the values of
    the inner fields as its coordinates."""
    op, param, n = spec
    return op(param, values[:n], *values[n:])


_OPAQUE_OPS = frozenset({_opaque, _layer_at, _pulled_back})


def compose(outer: ScalarField, inner: list[ScalarField]) -> ScalarField:
    """The pullback ``outer(inner_0, ..., inner_{n-1})``: the nodes of
    ``outer`` built again over the fields ``inner``, one per coordinate of
    ``outer``, all over the same source coordinates.
    """
    if len(inner) != outer.n:
        raise DimensionMismatch("compose needs one inner field per coordinate")
    inner = tuple(inner)
    m, r = inner[0].m, inner[0].r
    built = {}
    for node in _topological(outer) + (outer,):
        if node.constant is not None:
            built[node] = _constant(m, r, node.constant)
        elif node.op is _coordinate:
            built[node] = inner[node.param]
        else:
            args = tuple(built[a] for a in node.args)
            built[node] = (
                derived(node.op, args) if node.param is None else
                derived(_pulled_back, inner + args,
                        (node.op, node.param, len(inner))))
    return built[outer]


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
    left to right, in the order the fields come.  A partial of an opaque
    node runs a nested call on Taylor coordinates.  A field
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


def evaluate_points(root, coords_list):
    """Values of ``root`` at each of ``coords_list``, in that order.

    The nodes are walked once, in ``evaluate``'s order, and each takes one
    column of values, one per point: ``map`` of its op over the columns of
    its arguments (and the param and the coordinates, when it has a
    param), or its constant repeated.  A column is dropped after its last
    reader; the table of last readers is built once and kept on ``root``
    beside its order.  Errors come in node order, not point order, so the
    first error raised may not be the one ``evaluate`` meets at the first
    failing point.
    """
    if root._drops is None:
        root._drops = _last_reads(root)
    n = len(coords_list)
    columns = {}
    column_of = columns.__getitem__
    for node, dropped in zip(itertools.chain(root._order, (root,)),
                             root._drops):
        if node.constant is not None:
            columns[node] = [node.constant] * n
        elif node.param is None:
            columns[node] = list(map(node.op, *map(column_of, node.args)))
        else:
            columns[node] = list(map(node.op, itertools.repeat(node.param, n),
                                     coords_list, *map(column_of, node.args)))
        for a in dropped:
            del columns[a]
    return columns[root]


def _last_reads(root):
    """For each node of ``root``, in ``evaluate``'s order, the arguments
    whose last reader it is."""
    if root._order is None:
        root._order = _topological(root)
    nodes = (*root._order, root)
    last = {}
    for j, node in enumerate(nodes):
        for a in node.args:
            last[a] = j
    drops = [[] for _ in nodes]
    for a, j in last.items():
        drops[j].append(a)
    return drops


def calls_out(root):
    """Whether ``root`` reaches a node that runs code the graph cannot see
    into (an opaque leaf, a numeric layer, a pulled-back opaque node), whose
    calls a caller can count.  The answer is kept on ``root``."""
    if root._calls_out is None:
        if root._order is None:
            root._order = _topological(root)
        root._calls_out = any(
            node.op in _OPAQUE_OPS
            for node in itertools.chain(root._order, (root,)))
    return root._calls_out


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

    The entry of a sorted index tuple ``(i, j, ...)`` is the partial chain
    ``field.partial(i).partial(j)...``; each chain is built once, from the
    chain of its prefix, and the field and all chains are evaluated in one
    ``evaluate`` call, so the jet raises where any of them raises.
    """
    if not 0 <= order <= MAX_ORDER:
        raise ValueError(f"order must be in 0..{MAX_ORDER}")
    coords = list(point.coords())
    n = field.n
    if len(coords) != n:
        raise DimensionMismatch(
            f"point has {len(coords)} coordinates, field expects {n}")
    chains = {(): field}
    for k in range(1, order + 1):
        for idx in itertools.combinations_with_replacement(range(n), k):
            chains[idx] = chains[idx[:-1]].partial(idx[-1])
    values = dict(zip(chains, evaluate(list(chains.values()), coords)))

    def table(k):
        # every entry reads its sorted index tuple, so symmetry is exact
        def build(prefix):
            if len(prefix) == k:
                return float(values[tuple(sorted(prefix))])
            return tuple(build(prefix + (i,)) for i in range(n))

        return build(())

    return Jet(order, float(values[()]),
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
