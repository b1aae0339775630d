"""Distinguished tensor fields and linear d-connections.

A d-tensor field has a signature of slots, each slot belonging to the
horizontal family (dimension p) or the vertical family (dimension r) and
being contravariant ('up') or covariant ('down').  Components are scalar
fields keyed by index tuples.

A d-connection has four coefficient blocks: ``hh[alpha][beta][gamma]`` and
``hv[a][b][gamma]`` govern horizontal covariant differentiation of the two
families, ``vh[alpha][beta][c]`` and ``vv[a][b][c]`` the vertical one.  The
derivative index is always the last lower index.
"""

from __future__ import annotations

import itertools

from .algebroid import GeneralizedAlgebroid, _check_grid, _freeze, contract
from .errors import DimensionMismatch, IndexOutOfRange, ShapeError
from .jets import ScalarField
from .nlconn import ChartFrame, FrameChange, NonlinearConnection, \
    default_chart, delta_action
from .record import FrozenRecord

HORIZONTAL = "H"
VERTICAL = "V"
UP = "up"
DOWN = "down"

Slot = tuple[str, str]


class IndexSignature(FrozenRecord):
    """Ordered slots of a d-tensor, e.g. ((H, up), (V, down))."""

    slots: tuple[Slot, ...]

    def __post_init__(self):
        for family, variance in self.slots:
            if family not in (HORIZONTAL, VERTICAL) or \
                    variance not in (UP, DOWN):
                raise ShapeError(f"bad slot ({family}, {variance})")
        object.__setattr__(self, "slots", tuple(tuple(s) for s in self.slots))

    def __len__(self):
        return len(self.slots)

    def dims(self, p, r):
        return tuple(p if family == HORIZONTAL else r
                     for family, _ in self.slots)

    def extended(self, slot: Slot) -> IndexSignature:
        return IndexSignature(self.slots + (tuple(slot),))


class DTensorField:
    """Component fields of a d-tensor, indexed by tuples over the slot dims."""

    def __init__(self, algebroid: GeneralizedAlgebroid, sig: IndexSignature,
                 comps: dict):
        self.algebroid = algebroid
        self.sig = sig
        dims = sig.dims(algebroid.p, algebroid.r)
        expected = set(itertools.product(*(range(d) for d in dims)))
        if set(comps) != expected:
            raise ShapeError("component keys do not match the signature")
        for f in comps.values():
            if not isinstance(f, ScalarField):
                raise ShapeError("components must be scalar fields")
        self.comps = dict(comps)
        self.dims = dims

    @classmethod
    def from_nested(cls, algebroid, sig: IndexSignature, nested):
        dims = sig.dims(algebroid.p, algebroid.r)
        comps = {}
        for idx in itertools.product(*(range(d) for d in dims)):
            value = nested
            for i in idx:
                value = value[i]
            comps[idx] = value
        return cls(algebroid, sig, comps)

    def __getitem__(self, idx):
        if not isinstance(idx, tuple):
            idx = (idx,)
        if idx not in self.comps:
            raise IndexOutOfRange(f"index {idx} not valid for this signature")
        return self.comps[idx]

    def indices(self):
        return itertools.product(*(range(d) for d in self.dims))

    def fields(self):
        return self.comps.values()


def scalar_tensor(A: GeneralizedAlgebroid, f: ScalarField) -> DTensorField:
    return DTensorField(A, IndexSignature(()), {(): f})


def tensor_product(T1: DTensorField, T2: DTensorField) -> DTensorField:
    if T1.algebroid is not T2.algebroid:
        raise DimensionMismatch("tensors live over different structures")
    sig = IndexSignature(T1.sig.slots + T2.sig.slots)
    comps = {}
    for i1 in T1.indices():
        for i2 in T2.indices():
            comps[i1 + i2] = T1[i1] * T2[i2]
    return DTensorField(T1.algebroid, sig, comps)


class DConnection(FrozenRecord):
    """The four coefficient blocks of a linear d-connection."""

    nlconn: NonlinearConnection
    hh: tuple  # hh[alpha][beta][gamma], p x p x p
    hv: tuple  # hv[a][b][gamma],      r x r x p
    vh: tuple  # vh[alpha][beta][c],   p x p x r
    vv: tuple  # vv[a][b][c],          r x r x r

    def __post_init__(self):
        A = self.algebroid
        _check_grid("hh", self.hh, (A.p, A.p, A.p))
        _check_grid("hv", self.hv, (A.r, A.r, A.p))
        _check_grid("vh", self.vh, (A.p, A.p, A.r))
        _check_grid("vv", self.vv, (A.r, A.r, A.r))
        for name in ("hh", "hv", "vh", "vv"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def algebroid(self):
        return self.nlconn.algebroid


def fiber_derivatives(C: NonlinearConnection):
    """dgamma[a][b][g]: the fiber partial along y_b of gamma[a][g]."""
    A = C.algebroid
    return [[[C.gamma[a][g].partial(A.m + b) for g in range(A.p)]
             for b in range(A.r)] for a in range(A.r)]


def zero_blocks(A: GeneralizedAlgebroid, *shape):
    zero = A.zero_field()

    def build(dims):
        if not dims:
            return zero
        return [build(dims[1:]) for _ in range(dims[0])]

    return build(shape)


def berwald(C: NonlinearConnection) -> DConnection:
    """The d-connection whose H-blocks are the fiber derivatives of the
    nonlinear connection and whose V-blocks vanish.  Needs p = r so the
    vertical block can also serve the horizontal family."""
    A = C.algebroid
    if A.p != A.r:
        raise DimensionMismatch(
            "the fiber-derivative connection needs p = r")
    dgamma = fiber_derivatives(C)
    return DConnection(C, hh=dgamma, hv=dgamma,
                       vh=zero_blocks(A, A.p, A.p, A.r),
                       vv=zero_blocks(A, A.r, A.r, A.r))


def fiber_base(C: NonlinearConnection) -> DConnection:
    """A base d-connection for any (p, r): ``berwald(C)`` when p = r;
    otherwise the fiber derivatives of the nonlinear connection on the
    vertical H-block ``hv`` and zero elsewhere."""
    A = C.algebroid
    if A.p == A.r:
        return berwald(C)
    return DConnection(C, hh=zero_blocks(A, A.p, A.p, A.p),
                       hv=fiber_derivatives(C),
                       vh=zero_blocks(A, A.p, A.p, A.r),
                       vv=zero_blocks(A, A.r, A.r, A.r))


def _cov_deriv(D: DConnection, T: DTensorField, vertical: bool):
    A = D.algebroid
    C = D.nlconn
    p, r, m = A.p, A.r, A.m
    deriv_dim = r if vertical else p
    h_block = D.vh if vertical else D.hh
    v_block = D.vv if vertical else D.hv
    new_slot = (VERTICAL, DOWN) if vertical else (HORIZONTAL, DOWN)
    comps = {}
    for idx in T.indices():
        for c in range(deriv_dim):
            if vertical:
                f = T[idx].partial(m + c)
            else:
                f = delta_action(C, c, T[idx])
            for s, (family, variance) in enumerate(T.sig.slots):
                dim = p if family == HORIZONTAL else r
                block = h_block if family == HORIZONTAL else v_block
                for d in range(dim):
                    swapped = idx[:s] + (d,) + idx[s + 1:]
                    if variance == UP:
                        f = f + block[idx[s]][d][c] * T[swapped]
                    else:
                        f = f - block[d][idx[s]][c] * T[swapped]
            comps[idx + (c,)] = f
    return DTensorField(A, T.sig.extended(new_slot), comps)


def h_cov_deriv(D: DConnection, T: DTensorField):
    """Horizontal covariant derivative; appends one covariant H slot."""
    return _cov_deriv(D, T, vertical=False)


def v_cov_deriv(D: DConnection, T: DTensorField):
    """Vertical covariant derivative; appends one covariant V slot."""
    return _cov_deriv(D, T, vertical=True)


def cov_deriv_along(D: DConnection, X, T: DTensorField) -> DTensorField:
    """Covariant derivative along a section: horizontal components weight
    the horizontal derivative, vertical ones the vertical derivative."""
    A = D.algebroid
    hd = _cov_deriv(D, T, vertical=False)
    vd = _cov_deriv(D, T, vertical=True)

    def along(idx):
        f = contract((), (A.p,), A.zero_field,
                     lambda g: X.z[g] * hd[idx + (g,)])
        return contract((), (A.r,), lambda: f,
                        lambda c: X.y[c] * vd[idx + (c,)])

    return DTensorField(A, T.sig, {idx: along(idx) for idx in T.indices()})


def transform_dconnection(D: DConnection, F: FrameChange,
                          chart: ChartFrame | None = None
                          ) -> DConnection:
    """Coefficient blocks in the transformed frame, over the original
    coordinates.  The H-blocks pick up the horizontal derivative of the
    inverse transition entries; the V-blocks change tensorially."""
    A = D.algebroid
    if (F.m, F.r) != (A.m, A.r) or F.p != A.p:
        raise DimensionMismatch("frame change does not match the structure")
    if chart is None:
        chart = default_chart(A)
    m, p, r = A.m, A.p, A.r
    zero = A.zero_field()

    def delta(g, f):
        # adapted horizontal action; transition entries are x-only, so the
        # vertical (connection) part of the action vanishes on them
        return contract((), (m,), lambda: zero,
                        lambda k: chart.anchor[k][g] * chart.ddx[k](f))

    def h_rule(block, trans, trans_inv, dim):
        # block'^{a'}_{b' g'} =
        #   trans^{a'}_a [ delta_g(trans_inv^a_{b'})
        #                  + block^a_{b g} trans_inv^b_{b'} ] lam_inv^g_{g'}
        def inner(g, a, bp):
            return contract((), (dim,), lambda: delta(g, trans_inv[a][bp]),
                            lambda b: block[a][b][g] * trans_inv[b][bp])

        def bracket(ap, bp, g):
            return contract((), (dim,), lambda: zero,
                            lambda a: trans[ap][a] * inner(g, a, bp))

        return contract((dim, dim, p), (p,), lambda *_: zero,
                        lambda ap, bp, gp, g:
                        bracket(ap, bp, g) * F.lam_inv[g][gp])

    def v_rule(block, trans, trans_inv, dim):
        # purely tensorial: upper index with trans, lower with trans_inv,
        # derivative index with mmat_inv
        return contract((dim, dim, r), (dim, dim, r), lambda *_: zero,
                        lambda ap, bp, cp, a, b, c:
                        trans[ap][a] * block[a][b][c] * trans_inv[b][bp]
                        * F.mmat_inv[c][cp])

    hh = h_rule(D.hh, F.lam, F.lam_inv, p)
    hv = h_rule(D.hv, F.mmat, F.mmat_inv, r)
    vh = v_rule(D.vh, F.lam, F.lam_inv, p)
    vv = v_rule(D.vv, F.mmat, F.mmat_inv, r)
    return DConnection(D.nlconn, hh=hh, hv=hv, vh=vh, vv=vv)
