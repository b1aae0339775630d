"""Lagrange and Finsler structures on an anchored bundle with p = r.

The fundamental function induces a vertical Hessian metric; a Levi-Civita
style normal d-connection makes it parallel, and prescribing torsion pair
(T, S) singles out a unique metrical deformation whose torsions can be
recovered afterwards.
"""

from __future__ import annotations

import itertools

from . import linalg
from .algebroid import GeneralizedAlgebroid, _check_grid, _freeze, contract
from .dtensor import DConnection
from .errors import DimensionMismatch, ShapeError
from .jets import Point, ScalarField, compose
from .metric import MetricStructure, _absorb, \
    _koszul_christoffel, _vertical_christoffel
from .nlconn import NonlinearConnection
from .record import FrozenRecord
from .sampling import ValidationReport, fields_sweep_max, sweep


class FundamentalFunction(FrozenRecord):
    """An energy function on the bundle.  ``kind`` is 'lagrange' (the
    Hessian of the function itself is the metric) or 'finsler' (the Hessian
    of its square)."""

    algebroid: GeneralizedAlgebroid
    value: ScalarField
    kind: str = "lagrange"

    def __post_init__(self):
        if self.kind not in ("lagrange", "finsler"):
            raise ShapeError("kind must be 'lagrange' or 'finsler'")

    def energy(self) -> ScalarField:
        if self.kind == "finsler":
            return self.value * self.value
        return self.value


def hessian_metric(fund: FundamentalFunction):
    """Half the vertical Hessian of the energy, as a symmetric r x r block
    of fields.  Symmetric entries are the same field object."""
    A = fund.algebroid
    m, r = A.m, A.r
    energy = fund.energy()
    block = [[None] * r for _ in range(r)]
    for a in range(r):
        da = energy.partial(m + a)
        for b in range(a, r):
            entry = 0.5 * da.partial(m + b)
            block[a][b] = block[b][a] = entry
    return block


def _rank_defect(block):
    return float(len(block) - linalg.rank(block))


def _indefinite(block):
    pivots = linalg.sym_pivots(block)
    # sym_pivots gives 0.0 for every pivot below its tolerance relative to
    # the scale of the block, so the test needs no absolute bound
    return 0.0 if all(p > 0.0 for p in pivots) else 1.0


def regularity_check(block, samples: list[Point]) -> ValidationReport:
    """Rank of the Hessian block at every sample; regular means full rank."""
    r = len(block)
    defect, arg = fields_sweep_max(
        [linalg.matrix_field(_rank_defect, [block])], samples)
    report = ValidationReport()
    report.add("hessian_rank_defect", defect, arg, 0.0)
    report.metadata["rank"] = r - int(defect)
    report.metadata["dimension"] = r
    return report


HOMOGENEITY_SCALES = (0.5, 2.0, 3.0)


def finsler_checks(fund: FundamentalFunction, samples: list[Point],
                   tol: float = 1e-8) -> ValidationReport:
    """Finsler conditions at the samples, from one sweep: homogeneity
    |F(x, s*y) - s*F(x, y)| for s in HOMOGENEITY_SCALES and the Euler
    identity |y^a dF/dy^a - F| within ``tol``; a positive-definite and
    full-rank Hessian metric, as defects that must be 0."""
    if fund.kind != "finsler":
        raise ShapeError("finsler checks need a 'finsler' fundamental"
                         " function")
    A = fund.algebroid
    m, r = A.m, A.r
    F = fund.value
    x = [ScalarField.coordinate(m, r, k) for k in range(m)]
    y = [ScalarField.coordinate(m, r, m + a) for a in range(r)]
    homogeneity = [compose(F, x + [s * v for v in y]) - F * s
                   for s in HOMOGENEITY_SCALES]
    euler = contract((), (r,), lambda: ScalarField.const(m, r, 0.0),
                     lambda a: y[a] * F.partial(m + a)) - F
    block = hessian_metric(fund)
    sweeps = sweep([homogeneity, [euler],
                    [linalg.matrix_field(_indefinite, [block])],
                    [linalg.matrix_field(_rank_defect, [block])]], samples)
    report = ValidationReport()
    report.add_all(("homogeneity", "euler_identity"), sweeps[:2], tol)
    report.add_all(("positive_definite_defect", "hessian_rank_defect"),
                   sweeps[2:], 0.0)
    return report


def build_gl_space(C: NonlinearConnection, block) -> MetricStructure:
    """Metric structure using the same block horizontally and vertically;
    needs p = r."""
    A = C.algebroid
    if A.p != A.r:
        raise DimensionMismatch("shared metric block needs p = r")
    return MetricStructure(A, gh=block, gv=block)


class NormalDConnection(FrozenRecord):
    """A d-connection whose two H-blocks coincide and whose two V-blocks
    coincide (p = r)."""

    nlconn: NonlinearConnection
    h: tuple  # h[a][b][c]
    v: tuple  # v[a][b][c]

    def __post_init__(self):
        A = self.nlconn.algebroid
        if A.p != A.r:
            raise DimensionMismatch("normal d-connections need p = r")
        _check_grid("h", self.h, (A.r, A.r, A.r))
        _check_grid("v", self.v, (A.r, A.r, A.r))
        for name in ("h", "v"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def algebroid(self):
        return self.nlconn.algebroid

    def as_dconnection(self) -> DConnection:
        return DConnection(self.nlconn, hh=self.h, hv=self.h,
                           vh=self.v, vv=self.v)


def levi_civita_normal(C: NonlinearConnection,
                       G: MetricStructure) -> NormalDConnection:
    """The torsion-adapted Koszul construction for a shared metric block:
    adapted-frame derivatives plus structure-function corrections
    horizontally, fiber Christoffel symbols vertically."""
    A = G.algebroid
    if A.p != A.r:
        raise DimensionMismatch("this construction needs p = r")
    h = _koszul_christoffel(C, G.gv, G.gv_inv())
    v = _vertical_christoffel(G)
    return NormalDConnection(C, h=h, v=v)


class TorsionPair(FrozenRecord):
    """Prescribed torsion tensors ``t[a][b][c]`` (horizontal) and
    ``s[a][b][c]`` (vertical), antisymmetric in the lower pair."""

    t: tuple
    s: tuple

    def __post_init__(self):
        object.__setattr__(self, "t", _freeze(self.t))
        object.__setattr__(self, "s", _freeze(self.s))


def torsion_deform(base: NormalDConnection, G: MetricStructure,
                   torsions: TorsionPair) -> NormalDConnection:
    """The unique metrical connection with the prescribed torsions: the
    contorsion of (T, S) added to the torsion-adapted base."""
    A = G.algebroid
    n = A.r
    _check_grid("t", torsions.t, (n, n, n))
    _check_grid("s", torsions.s, (n, n, n))
    g = G.gv

    def deform(block, tor):
        def corr(e, b, c):
            out = A.zero_field()
            for d in range(n):
                out = out + g[e][d] * tor[d][b][c] \
                    - g[b][d] * tor[d][e][c] + g[c][d] * tor[d][b][e]
            return out

        return _absorb(block, G.gv_inv(), (n, n, n),
                       {idx: corr(*idx)
                        for idx in itertools.product(range(n), repeat=3)})

    return NormalDConnection(base.nlconn, h=deform(base.h, torsions.t),
                             v=deform(base.v, torsions.s))


def recover_torsions(N: NormalDConnection,
                     convention: str = "consistent") -> TorsionPair:
    """Torsion tensors of a normal d-connection.

    Horizontal torsion is the antisymmetric part of the H-block plus the
    structure functions ('consistent', the default, under which the
    torsion-adapted base is exactly torsion free) or minus them
    ('verbatim').  Vertical torsion is the antisymmetric part of the
    V-block under both conventions.
    """
    if convention not in ("consistent", "verbatim"):
        raise ShapeError("convention must be 'consistent' or 'verbatim'")
    A = N.algebroid
    n = A.r
    sign = 1.0 if convention == "consistent" else -1.0
    t = [[[N.h[a][b][c] - N.h[a][c][b] + sign * A.L[a][b][c]
           for c in range(n)] for b in range(n)] for a in range(n)]
    s = [[[N.v[a][b][c] - N.v[a][c][b]
           for c in range(n)] for b in range(n)] for a in range(n)]
    return TorsionPair(t=t, s=s)
