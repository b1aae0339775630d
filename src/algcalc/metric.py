"""Metric structures on the generalized tangent bundle and the d-connections
compatible with them.

A metric structure pairs a symmetric horizontal block ``gh[alpha][beta]``
with a symmetric vertical block ``gv[a][b]``, both scalar fields over the
bundle coordinates.  Symmetric entries share the same field object, so the
stored blocks equal their transposes exactly.  Inverses are computed
pointwise by pivoted elimination, once per ``evaluate`` call.
"""

from __future__ import annotations

from functools import cached_property

from . import linalg
from .algebroid import GeneralizedAlgebroid, _check_grid, _check_x_only, \
    contract
from .dtensor import DConnection, DTensorField, IndexSignature, DOWN, \
    HORIZONTAL, VERTICAL, fiber_base, h_cov_deriv, v_cov_deriv
from .errors import SingularMetric
from .jets import Point, evaluate_grid, leaves
from .nlconn import NonlinearConnection, delta_action
from .record import FrozenRecord
from .sampling import ValidationReport, sweep


def _symmetrize(block):
    """Reuse the upper-triangle field object for the mirror entry, making
    the stored block exactly symmetric."""
    n = len(block)
    out = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = block[i][j]
    return tuple(tuple(row) for row in out)


def _inverse(block):
    """The pointwise inverse of a symmetric block, made symmetric the same
    way; an inverse built again is the same nodes."""
    return _symmetrize(linalg.field_matrix_inverse(block, exc=SingularMetric))


class MetricStructure(FrozenRecord):
    """Horizontal and vertical metric blocks with Riemannian flags.

    A Riemannian flag asserts that the block depends on x only, and
    ``__post_init__`` checks it against the dependence set of each entry;
    nothing else reads the flags.  Vertical derivatives of an x-only entry
    are exact zeros because of its ``deps``, flagged or not.
    """

    algebroid: GeneralizedAlgebroid
    gh: tuple
    gv: tuple
    h_riemannian: bool = False
    v_riemannian: bool = False

    def __post_init__(self):
        A = self.algebroid
        _check_grid("gh", self.gh, (A.p, A.p))
        _check_grid("gv", self.gv, (A.r, A.r))
        object.__setattr__(self, "gh", _symmetrize(self.gh))
        object.__setattr__(self, "gv", _symmetrize(self.gv))
        for flag, name, block in ((self.h_riemannian, "gh", self.gh),
                                  (self.v_riemannian, "gv", self.gv)):
            if flag:
                _check_x_only(f"{name} flagged Riemannian", leaves(block),
                              A.m)

    @property
    def m(self):
        return self.algebroid.m

    @property
    def p(self):
        return self.algebroid.p

    @property
    def r(self):
        return self.algebroid.r

    # built once per instance: a constant block folds its inverse into a
    # list-valued constant, which is not interned
    _gh_inv = cached_property(lambda self: _inverse(self.gh))
    _gv_inv = cached_property(lambda self: _inverse(self.gv))

    def gh_inv(self):
        return self._gh_inv

    def gv_inv(self):
        return self._gv_inv

    def inverse_at(self, point: Point):
        """Numeric inverses of both blocks at a point, with the residual
        max |g.g_inv - id| for each."""
        values = evaluate_grid([[self.gh, self.gh_inv()],
                                [self.gv, self.gv_inv()]], point.coords())
        return {name: (gi, linalg.residual_identity(g, gi))
                for name, (g, gi) in zip("hv", values)}

    def signature_at(self, point: Point):
        """Pivot-sign signature (pos, neg, null) of each block at a point."""
        values = evaluate_grid([self.gh, self.gv], point.coords())
        return {name: linalg.signature(block)
                for name, block in zip("hv", values)}

    def h_tensor(self) -> DTensorField:
        sig = IndexSignature(((HORIZONTAL, DOWN), (HORIZONTAL, DOWN)))
        return DTensorField.from_nested(self.algebroid, sig, self.gh)

    def v_tensor(self) -> DTensorField:
        sig = IndexSignature(((VERTICAL, DOWN), (VERTICAL, DOWN)))
        return DTensorField.from_nested(self.algebroid, sig, self.gv)


def metrizability_residual(D: DConnection, G: MetricStructure,
                           samples: list[Point],
                           tol: float = 1e-8) -> ValidationReport:
    """The four covariant derivatives of the metric blocks, as max residuals
    over the samples.  All four vanish iff the connection is metrical."""
    gh, gv = G.h_tensor(), G.v_tensor()
    names = ("gh_h_deriv", "gv_h_deriv", "gh_v_deriv", "gv_v_deriv")
    tensors = (h_cov_deriv(D, gh), h_cov_deriv(D, gv), v_cov_deriv(D, gh),
               v_cov_deriv(D, gv))
    report = ValidationReport()
    report.add_all(names, sweep([t.fields() for t in tensors], samples), tol)
    return report


def _christoffel(A, g, ginv, d, L=None):
    """The Koszul sum of the metric block ``g`` (inverse ``ginv``) under
    the derivation ``d(k, f)`` along index k: block [a][b][c] is
    0.5 * ginv^{ae} (d_c g_{eb} + d_b g_{ec} - d_e g_{bc}), summed over e.
    With structure functions ``L`` (the horizontal case, d = delta) the
    bracket also carries g_{te} L^t_{cb} - g_{bt} L^t_{ce} - g_{tc} L^t_{be},
    summed over t.  Each derivative d(k, g_ij) and each bracket [e][b][c]
    is built once."""
    n = len(g)
    dg = [[[d(k, g[i][j]) for j in range(n)] for i in range(n)]
          for k in range(n)]

    def bracket(e, b, c):
        term = dg[c][e][b] + dg[b][e][c] - dg[e][b][c]
        if L is not None:
            for t in range(n):
                term = term + g[t][e] * L[t][c][b] - g[b][t] * L[t][c][e] \
                    - g[t][c] * L[t][b][e]
        return term

    brackets = [[[bracket(e, b, c) for c in range(n)] for b in range(n)]
                for e in range(n)]
    sums = contract((n, n, n), (n,), lambda *_: A.zero_field(),
                    lambda a, b, c, e: ginv[a][e] * brackets[e][b][c])
    return [[[f * 0.5 for f in row] for row in plane] for plane in sums]


def _vertical_christoffel(G: MetricStructure):
    """The fiber-partial Christoffel block vv[a][b][c] of ``gv``."""
    m = G.m
    return _christoffel(G.algebroid, G.gv, G.gv_inv(),
                        lambda c, f: f.partial(m + c))


def _koszul_christoffel(C: NonlinearConnection, g, ginv):
    """Horizontal Christoffel block [alpha][beta][gamma] of the metric block
    ``g`` (p x p) with inverse ``ginv``: the adapted-frame Koszul formula,
    with the structure-function correction terms."""
    A = C.algebroid
    return _christoffel(A, g, ginv, lambda k, f: delta_action(C, k, f), A.L)


def _absorb(block, ginv, shape, deriv):
    """Block of ``shape`` with entries block[a][b][c] + 0.5 * ginv^{ae}
    deriv[(e, b, c)], summed over e: a base block plus half the covariant
    derivative of the metric (or, for prescribed torsions, the lowered
    contorsion) with its first index raised."""
    return contract(shape, (len(ginv),), lambda a, b, c: block[a][b][c],
                    lambda a, b, c, e: 0.5 * ginv[a][e] * deriv[(e, b, c)])


def canonical_dconnection(G: MetricStructure,
                          base: DConnection) -> DConnection:
    """The metrical d-connection built over ``base``: Koszul horizontal and
    vertical Christoffel blocks; the mixed blocks absorb half of the
    covariant derivatives of the metric under ``base``."""
    p, r = G.p, G.r
    return DConnection(
        base.nlconn,
        hh=_koszul_christoffel(base.nlconn, G.gh, G.gh_inv()),
        hv=_absorb(base.hv, G.gv_inv(), (r, r, p),
                   h_cov_deriv(base, G.v_tensor())),
        vh=_absorb(base.vh, G.gh_inv(), (p, p, r),
                   v_cov_deriv(base, G.h_tensor())),
        vv=_vertical_christoffel(G))


def berwald_canonical(G: MetricStructure,
                      C: NonlinearConnection) -> DConnection:
    """The canonical construction over ``fiber_base(C)``, the
    fiber-derivative base connection; valid for any p, r."""
    return canonical_dconnection(G, fiber_base(C))


class ObataPair(FrozenRecord):
    """Numeric Obata projector values at a point, for both families."""

    oh: tuple        # oh[alpha][eps][beta][gamma]
    oh_star: tuple
    ov: tuple        # ov[a][e][b][d]
    ov_star: tuple


def _obata_fields(A, g, ginv):
    """The Obata projectors (O, O*) of the metric block ``g`` with inverse
    ``ginv``, as fields with index order [a][e][b][c]: O* = (id + X)/2 and
    O = id - O*, with X[a][e][b][c] = g_{bc} ginv^{ae}.

    O* is computed as id - (id/2 - X/2), the complement taken twice, so
    that O + O* is the identity exactly in floating point: after the second
    pass the rounding error in O is below half an ulp of id, so the
    addition rounds back to id."""
    n = len(g)

    def grid(entry):
        return [[[[entry(a, e, b, c) for c in range(n)] for b in range(n)]
                 for e in range(n)] for a in range(n)]

    def ident(a, e, b, c):
        return A.const_field(1.0 if (a == b and e == c) else 0.0)

    o_star = grid(lambda a, e, b, c: ident(a, e, b, c) - (
        0.5 * ident(a, e, b, c) - 0.5 * g[b][c] * ginv[a][e]))
    o = grid(lambda a, e, b, c: ident(a, e, b, c) - o_star[a][e][b][c])
    return o, o_star


def obata_pair(G: MetricStructure, point: Point) -> ObataPair:
    """Values at a point of O = (id - g-transpose)/2 and O* = (id +
    g-transpose)/2 on each family; they sum to the identity on
    (1,1)-tensors exactly."""
    oh, oh_star = _obata_fields(G.algebroid, G.gh, G.gh_inv())
    ov, ov_star = _obata_fields(G.algebroid, G.gv, G.gv_inv())
    values = evaluate_grid([oh, oh_star, ov, ov_star], point.coords())
    return ObataPair(*values)


def obata_deform(G: MetricStructure, C: NonlinearConnection,
                 xh, yh, xv, yv) -> DConnection:
    """Deform the canonical connection by arbitrary d-tensors through the
    Obata projectors; every member of this family stays metrical.

    ``xh[eta][eps][gamma]`` (p,p,p) and ``yh[d][e][gamma]`` (r,r,p) feed the
    H-blocks; ``xv[eta][eps][c]`` (p,p,r) and ``yv[d][e][c]`` (r,r,r) feed
    the V-blocks.  The last index of each parameter is the derivative index.
    """
    A = G.algebroid
    p, r = A.p, A.r
    _check_grid("xh", xh, (p, p, p))
    _check_grid("yh", yh, (r, r, p))
    _check_grid("xv", xv, (p, p, r))
    _check_grid("yv", yv, (r, r, r))
    base = berwald_canonical(G, C)
    oh, _ = _obata_fields(A, G.gh, G.gh_inv())
    ov, _ = _obata_fields(A, G.gv, G.gv_inv())

    # each deformation projects the parameter tensor onto the piece whose
    # g-lowering is antisymmetric in (upper index, differentiated index);
    # the derivative index rides along untouched, so compatibility with the
    # metric survives term by term
    def deform(block, proj, param, dim, deriv_dim):
        return contract((dim, dim, deriv_dim), (dim, dim),
                        lambda a, b, c: block[a][b][c],
                        lambda a, b, c, e, d:
                        proj[a][e][d][b] * param[d][e][c])

    return DConnection(C,
                       hh=deform(base.hh, oh, xh, p, p),
                       hv=deform(base.hv, ov, yh, r, p),
                       vh=deform(base.vh, oh, xv, p, r),
                       vv=deform(base.vv, ov, yv, r, r))


def base_deform(G: MetricStructure, base: DConnection) -> DConnection:
    """Metrical connection obtained from an arbitrary base d-connection by
    absorbing half of each covariant derivative of the metric."""
    p, r = G.p, G.r
    return DConnection(
        base.nlconn,
        hh=_absorb(base.hh, G.gh_inv(), (p, p, p),
                   h_cov_deriv(base, G.h_tensor())),
        hv=_absorb(base.hv, G.gv_inv(), (r, r, p),
                   h_cov_deriv(base, G.v_tensor())),
        vh=_absorb(base.vh, G.gh_inv(), (p, p, r),
                   v_cov_deriv(base, G.h_tensor())),
        vv=_absorb(base.vv, G.gv_inv(), (r, r, r),
                   v_cov_deriv(base, G.v_tensor())))
