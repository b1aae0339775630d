import importlib.util
import pathlib
import random
import sys

import pytest

from algcalc.algebroid import (FrameDiffeoData, GeneralizedAlgebroid,
                               from_frame)
from algcalc.exprlang import parse_field
from algcalc import jets
from algcalc.jets import ScalarField
from algcalc.metric import MetricStructure
from algcalc.nlconn import NonlinearConnection, zero_connection
from algcalc.sampling import SampleBox, generate

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fixture_path(name):
    return str(FIXTURES / name)


def load_module(path, name):
    """The module of the file ``path``, run as ``name`` without writing
    bytecode beside it, so that ``perfbench/`` stays as it is."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module   # dataclasses look their module up
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def const(m, r, v):
    return ScalarField.const(m, r, v)


def layer_partial(field, index):
    """The node that runs a numeric first-order layer over the graph of
    ``field`` at each point, seeded along ``index``, and gives its
    coefficient: the reference that ``field.partial(index)`` must equal."""
    pair = jets._leaf(field, index, jets._layer_at)
    return jets.derived(jets._LAYER_COEF, (pair,))


def reference_layer(root, index):
    """``jets._layer`` as a walk that lifts every node it reaches again,
    reading no lift kept on a node: the reference that the kept lifts and
    guards must equal."""
    lifted, guards = {}, []
    stack = [root]
    while stack:
        node = stack[-1]
        if node in lifted:
            stack.pop()
            continue
        args = node.args if jets._in_layer(node) else ()
        todo = [a for a in args if a.constant is None and a not in lifted]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        args = [a.constant if a.constant is not None else lifted[a]
                for a in args]
        out = lifted[node] = jets._lift(node, index, args)
        if node.op in jets._KINKS and jets._coef(args[0]) is not None:
            c = args[0].value
            guards.append(jets.derived(jets._KINKS[node.op], (c, c)))
        if not isinstance(out, (jets.Taylor, ScalarField)):
            guards += [jets._value(a) for a in args
                       if isinstance(a, (jets.Taylor, ScalarField))]
    return lifted[root], guards


def field_grid(strings, m, r):
    """Nested lists of expression strings -> nested lists of fields."""
    if isinstance(strings, (list, tuple)):
        return [field_grid(s, m, r) for s in strings]
    return parse_field(str(strings), m, r)


def identity_algebroid(m=2, r=None):
    r = m if r is None else r
    rho = [[const(m, r, 1.0 if i == a else 0.0) for a in range(m)]
           for i in range(m)]
    zero = const(m, r, 0.0)
    L = [[[zero] * m for _ in range(m)] for _ in range(m)]
    return GeneralizedAlgebroid(m=m, p=m, r=r, rho=rho, L=L)


def random_poly(rng, m, r, x_only=False, scale=0.4):
    names = [f"x{i + 1}" for i in range(m)]
    if not x_only:
        names += [f"y{a + 1}" for a in range(r)]
    terms = [f"({rng.uniform(-1, 1):.4f})"]
    for name in names:
        terms.append(f"({rng.uniform(-scale, scale):.4f}*{name})")
    return parse_field(" + ".join(terms), m, r)


def random_spd_block(rng, m, r, n):
    """A^T A + I from random affine A: symmetric positive definite fields."""
    a = [[random_poly(rng, m, r) for _ in range(n)] for _ in range(n)]
    g = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            f = const(m, r, 1.0 if i == j else 0.0)
            for k in range(n):
                f = f + a[k][i] * a[k][j]
            g[i][j] = f
    return g


def random_geometry(seed):
    """Frame-derived structure with nonzero structure functions, random
    nonlinear connection, and random SPD metric blocks (m = p = r = 2)."""
    rng = random.Random(seed)
    m = p = r = 2
    off = random_poly(rng, m, r, x_only=True)
    one, zero = const(m, r, 1.0), const(m, r, 0.0)
    frame = FrameDiffeoData(m, r, theta=[[one, off], [zero, one]],
                            theta_inv=[[one, -1.0 * off], [zero, one]])
    A = from_frame(frame)
    C = NonlinearConnection(A, [[random_poly(rng, m, r) for _ in range(p)]
                                for _ in range(r)])
    G = MetricStructure(A, gh=random_spd_block(rng, m, r, p),
                        gv=random_spd_block(rng, m, r, r))
    return A, C, G, rng


def poincare_geometry():
    """Hyperbolic half-plane metric on both blocks, trivial structure."""
    m = r = 2
    A = identity_algebroid(m, r)
    g = field_grid([["1/x2^2", "0"], ["0", "1/x2^2"]], m, r)
    G = MetricStructure(A, gh=g, gv=g, h_riemannian=True, v_riemannian=True)
    return A, zero_connection(A), G


def so3_geometry():
    """Constant totally antisymmetric structure functions, zero anchor,
    identity metric (m = 1, p = r = 3)."""
    m, n, r = 1, 3, 3
    eps = {(0, 1, 2): 1.0, (1, 2, 0): 1.0, (2, 0, 1): 1.0,
           (0, 2, 1): -1.0, (2, 1, 0): -1.0, (1, 0, 2): -1.0}
    L = [[[const(m, r, eps.get((g, a, b), 0.0)) for b in range(n)]
          for a in range(n)] for g in range(n)]
    rho = [[const(m, r, 0.0) for _ in range(n)]]
    A = GeneralizedAlgebroid(m=m, p=n, r=r, rho=rho, L=L)
    g_id = [[const(m, r, 1.0 if i == j else 0.0) for j in range(n)]
            for i in range(n)]
    G = MetricStructure(A, gh=g_id, gv=g_id,
                        h_riemannian=True, v_riemannian=True)
    return A, zero_connection(A), G


def box_samples(m, r, count, seed, x_box=None, y_box=None, fiber_floor=None):
    box = SampleBox(x=tuple(x_box or ((-1.0, 1.0),) * m),
                    y=tuple(y_box or ((-1.0, 1.0),) * r))
    return generate(box, count, seed, fiber_floor)


@pytest.fixture
def rng():
    return random.Random(0)


def count_calls(monkeypatch, module, name):
    """The list of the positional arguments of every call of
    ``module.name`` made through any algcalc module that binds it (as an
    import or a module attribute); the bindings are restored after the
    test."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, mod in list(sys.modules.items()):
        if key.split(".")[0] == "algcalc" and \
                vars(mod).get(name) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def count_sweeps(monkeypatch):
    """Call lists of ``sampling.sweep``, which every check sweeps through,
    and of ``jets.evaluate_grid``."""
    from algcalc import jets, sampling
    return (count_calls(monkeypatch, sampling, "sweep"),
            count_calls(monkeypatch, jets, "evaluate_grid"))
