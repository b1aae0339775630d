"""Anchored vector bundles with structure functions, and their sections.

A structure is given in local coordinates by the anchor components
``rho[i][alpha]`` (m x p, functions of x only) and the structure functions
``L[gamma][alpha][beta]`` (p x p x p, functions of x only, antisymmetric in
the lower pair).  Sections of the generalized tangent bundle carry a
horizontal part (p components) and a vertical part (r components), all
scalar fields over the m + r bundle coordinates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence, Tuple

from . import linalg
from .errors import DimensionMismatch, ShapeError, SingularFrame
from .jets import Point, ScalarField
from .sampling import ValidationReport, fields_sweep_max


def _check_grid(name, grid, shape):
    """Validate a nested list of ScalarFields against ``shape``."""
    if len(shape) == 0:
        if not isinstance(grid, ScalarField):
            raise ShapeError(f"{name} entries must be scalar fields")
        return
    if not isinstance(grid, (list, tuple)) or len(grid) != shape[0]:
        raise ShapeError(f"{name} must have length {shape[0]}")
    for item in grid:
        _check_grid(name, item, shape[1:])


def _freeze(grid):
    """A grid given as nested lists, as nested tuples."""
    if isinstance(grid, (list, tuple)):
        return tuple(_freeze(item) for item in grid)
    return grid


def _check_x_only(name, fields, m):
    for f in fields:
        if f.deps is None:
            raise ShapeError(f"{name} must declare its dependence set")
        if any(index >= m for index in f.deps):
            raise ShapeError(f"{name} must depend on base coordinates only")


def _flatten(grid):
    if isinstance(grid, ScalarField):
        yield grid
    else:
        for item in grid:
            yield from _flatten(item)


def contract(shape, sums, start, term):
    """The nested-list grid of ``shape`` (a bare field when ``shape`` is
    empty) whose entry at index tuple ``i`` is ``start(*i)`` plus
    ``term(*i, *k)`` for every index tuple ``k`` over the ranges ``sums``.

    Terms are added one at a time in row-major order of ``k``; with no
    ``sums`` the one term is ``term(*i)``.  The order fixes the field tree,
    so every value comes out bit for bit as the same sum written as loops.
    """
    def entry(i):
        f = start(*i)
        for k in itertools.product(*(range(n) for n in sums)):
            f = f + term(*i, *k)
        return f

    def build(i):
        if len(i) == len(shape):
            return entry(i)
        return [build(i + (j,)) for j in range(shape[len(i)])]

    return build(())


@dataclass(frozen=True)
class GeneralizedAlgebroid:
    """Local-coordinate data of an anchored structure over an m-dim base,
    with p-dim anchor bundle and r-dim fiber bundle."""

    m: int
    p: int
    r: int
    rho: tuple   # rho[i][alpha], i < m, alpha < p
    L: tuple     # L[gamma][alpha][beta], all < p

    def __post_init__(self):
        if min(self.m, self.p, self.r) < 1:
            raise DimensionMismatch("dimensions must be positive")
        _check_grid("rho", self.rho, (self.m, self.p))
        _check_grid("L", self.L, (self.p, self.p, self.p))
        _check_x_only("rho", _flatten(self.rho), self.m)
        _check_x_only("L", _flatten(self.L), self.m)
        object.__setattr__(self, "rho", _freeze(self.rho))
        object.__setattr__(self, "L", _freeze(self.L))

    def zero_field(self):
        return ScalarField.const(self.m, self.r, 0.0)

    def const_field(self, value):
        return ScalarField.const(self.m, self.r, float(value))


@dataclass(frozen=True)
class Section:
    """A section with horizontal components ``z`` and vertical ``y``."""

    z: tuple
    y: tuple

    def __post_init__(self):
        object.__setattr__(self, "z", tuple(self.z))
        object.__setattr__(self, "y", tuple(self.y))

    def components(self):
        return self.z + self.y


def constant_section(A: GeneralizedAlgebroid, z: Sequence[float],
                     y: Sequence[float]) -> Section:
    if len(z) != A.p or len(y) != A.r:
        raise DimensionMismatch("section components must have lengths (p, r)")
    return Section(tuple(A.const_field(v) for v in z),
                   tuple(A.const_field(v) for v in y))


def basis_sections(A: GeneralizedAlgebroid):
    """The p horizontal and r vertical constant basis sections."""
    out = []
    for alpha in range(A.p):
        out.append(constant_section(
            A, [1.0 if i == alpha else 0.0 for i in range(A.p)], [0.0] * A.r))
    for a in range(A.r):
        out.append(constant_section(
            A, [0.0] * A.p, [1.0 if i == a else 0.0 for i in range(A.r)]))
    return out


def anchor_action(A: GeneralizedAlgebroid, X: Section,
                  f: ScalarField) -> ScalarField:
    """The derivation of a scalar field along a section: the anchor pushes
    the horizontal part to a base vector field, the vertical part acts on
    the fiber coordinates directly."""
    out = A.zero_field()
    for alpha in range(A.p):
        for i in range(A.m):
            out = out + X.z[alpha] * A.rho[i][alpha] * f.partial(i)
    for a in range(A.r):
        out = out + X.y[a] * f.partial(A.m + a)
    return out


def bracket(A: GeneralizedAlgebroid, X1: Section, X2: Section) -> Section:
    """Bracket of sections: structure functions on the horizontal pair plus
    derivative terms of each argument's components along the other."""
    z = []
    for gamma in range(A.p):
        f = A.zero_field()
        for alpha in range(A.p):
            for beta in range(A.p):
                f = f + X1.z[alpha] * X2.z[beta] * A.L[gamma][alpha][beta]
        f = f + anchor_action(A, X1, X2.z[gamma])
        f = f - anchor_action(A, X2, X1.z[gamma])
        z.append(f)
    y = [anchor_action(A, X1, X2.y[b]) - anchor_action(A, X2, X1.y[b])
         for b in range(A.r)]
    return Section(tuple(z), tuple(y))


def validate_structure(A: GeneralizedAlgebroid, samples: Sequence[Point],
                       tol: float = 1e-8) -> ValidationReport:
    """Antisymmetry of L and anchor compatibility, as max residuals over
    the samples."""
    report = ValidationReport()

    antisym = [A.L[g][a][b] + A.L[g][b][a]
               for g in range(A.p) for a in range(A.p) for b in range(a, A.p)]
    value, arg = fields_sweep_max(antisym, samples)
    report.add("antisymmetry", value, arg, tol)

    compat = []
    for alpha in range(A.p):
        for beta in range(alpha + 1, A.p):
            for k in range(A.m):
                lhs = contract((), (A.p,), A.zero_field, lambda g:
                               A.L[g][alpha][beta] * A.rho[k][g])
                rhs = A.zero_field()
                for i in range(A.m):
                    rhs = rhs + A.rho[i][alpha] * A.rho[k][beta].partial(i)
                    rhs = rhs - A.rho[i][beta] * A.rho[k][alpha].partial(i)
                compat.append(lhs - rhs)
    value, arg = fields_sweep_max(compat, samples)
    report.add("anchor_compatibility", value, arg, tol)
    return report


def jacobi_residual(A: GeneralizedAlgebroid, samples: Sequence[Point],
                    triple=None):
    """Max norm over samples of the cyclic bracket sum, as (max, argmax
    point).

    With ``triple`` None, sweeps every triple of constant basis sections.
    Each ``[X_a, X_b]`` is built once per ordered pair and each
    ``[[X_a, X_b], X_c]`` once per ordered triple; the cyclic sum of a
    triple reads its three terms from there.
    """
    if triple is not None:
        sections, triples = list(triple), [(0, 1, 2)]
    else:
        sections = basis_sections(A)
        triples = itertools.product(range(len(sections)), repeat=3)
    inner, outer = {}, {}

    def double_bracket(a, b, c):
        if (a, b, c) not in outer:
            if (a, b) not in inner:
                inner[a, b] = bracket(A, sections[a], sections[b])
            outer[a, b, c] = bracket(A, inner[a, b],
                                     sections[c]).components()
        return outer[a, b, c]

    components = []
    for a, b, c in triples:
        cyclic = (double_bracket(a, b, c), double_bracket(b, c, a),
                  double_bracket(c, a, b))
        components.extend(u + v + w for u, v, w in zip(*cyclic))
    return fields_sweep_max(components, samples)


@dataclass(frozen=True)
class FrameDiffeoData:
    """A moving frame on the base: ``theta[i][alpha]`` are the components of
    the alpha-th frame field, ``theta_inv[gamma][j]`` the dual coframe."""

    m: int
    r: int
    theta: tuple
    theta_inv: tuple

    def __post_init__(self):
        _check_grid("theta", self.theta, (self.m, self.m))
        _check_grid("theta_inv", self.theta_inv, (self.m, self.m))
        _check_x_only("theta", _flatten(self.theta), self.m)
        _check_x_only("theta_inv", _flatten(self.theta_inv), self.m)
        object.__setattr__(self, "theta", _freeze(self.theta))
        object.__setattr__(self, "theta_inv", _freeze(self.theta_inv))

    def check_invertible(self, points: Sequence[Point], tol: float = 1e-8):
        """Verify theta_inv is the pointwise inverse of theta at ``points``."""
        for point in points:
            coords = list(point.coords())
            theta = [[float(f(coords)) for f in row] for row in self.theta]
            theta_inv = [[float(f(coords)) for f in row]
                         for row in self.theta_inv]
            if linalg.residual_identity(theta_inv, theta) > tol:
                raise SingularFrame(
                    f"frame and coframe are not inverse at {point}")


def from_frame(frame: FrameDiffeoData) -> GeneralizedAlgebroid:
    """Structure functions of the frame: commutators of the frame fields
    expanded back in the frame.  The anchor is the frame itself (p = m)."""
    m, r = frame.m, frame.r
    theta, theta_inv = frame.theta, frame.theta_inv

    def term(gamma, alpha, beta, i, j):
        comm = (theta[i][alpha] * theta[j][beta].partial(i)
                - theta[i][beta] * theta[j][alpha].partial(i))
        return comm * theta_inv[gamma][j]

    L = contract((m, m, m), (m, m), lambda *_: ScalarField.const(m, r, 0.0),
                 term)
    return GeneralizedAlgebroid(m=m, p=m, r=r, rho=frame.theta, L=L)
