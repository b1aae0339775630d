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
from typing import Sequence

from . import linalg
from .errors import DimensionMismatch, ShapeError, SingularFrame
from .jets import Point, ScalarField, leaves
from .sampling import ValidationReport, fields_sweep_max, sweep


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
        _check_x_only("rho", leaves(self.rho), self.m)
        _check_x_only("L", leaves(self.L), self.m)
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
    antisym = [A.L[g][a][b] + A.L[g][b][a]
               for g in range(A.p) for a in range(A.p) for b in range(a, A.p)]
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
    report = ValidationReport()
    report.add_all(("antisymmetry", "anchor_compatibility"),
                   sweep([antisym, compat], samples), tol)
    return report


def jacobi_residual(A: GeneralizedAlgebroid, samples: Sequence[Point],
                    triple=None):
    """Max norm over samples of the cyclic bracket sum of ``triple``, or of
    every triple of constant basis sections, as (max, argmax point).

    Basis triples need no brackets: rho and L depend on x only and the
    vertical basis sections are constant, so every bracket with a vertical
    one is the zero section, and a horizontal triple (a, b, c) gives
    ``J^d_abc = sum_cyc (sum_e L^e_ab L^d_ec - sum_i rho^i_c d_i L^d_ab)``,
    each sum added in the order of ``bracket`` and ``anchor_action``.
    """
    if triple is not None:
        X, Y, Z = triple
        cyclic = zip(*(bracket(A, bracket(A, U, V), W).components()
                       for U, V, W in ((X, Y, Z), (Y, Z, X), (Z, X, Y))))
    else:
        p, rho, L = A.p, A.rho, A.L

        def double_bracket(d, a, b, c):
            return (contract((), (p,), A.zero_field,
                             lambda e: L[e][a][b] * L[d][e][c])
                    - contract((), (A.m,), A.zero_field,
                               lambda i: rho[i][c] * L[d][a][b].partial(i)))

        outer = {k: double_bracket(*k)
                 for k in itertools.product(range(p), repeat=4)}
        cyclic = ((outer[d, a, b, c], outer[d, b, c, a], outer[d, c, a, b])
                  for a, b, c in itertools.product(range(p), repeat=3)
                  for d in range(p))
    return fields_sweep_max([u + v + w for u, v, w in cyclic], samples)


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
        _check_x_only("theta", leaves(self.theta), self.m)
        _check_x_only("theta_inv", leaves(self.theta_inv), self.m)
        object.__setattr__(self, "theta", _freeze(self.theta))
        object.__setattr__(self, "theta_inv", _freeze(self.theta_inv))

    def check_invertible(self, points: Sequence[Point], tol: float = 1e-8):
        """Verify theta_inv is the pointwise inverse of theta at ``points``:
        raise SingularFrame, naming the argmax point, unless the sweep max
        of |theta_inv @ theta - I| is at most ``tol`` (a NaN is not)."""
        value, arg = fields_sweep_max(
            [linalg.residual_identity_field(self.theta_inv, self.theta)],
            points)
        if not value <= tol:
            raise SingularFrame(
                f"frame and coframe are not inverse at {arg}")


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
