"""Nonlinear connections, adapted frames, and frame/coordinate changes.

A nonlinear connection is the coefficient table ``gamma[a][alpha]`` (r x p
scalar fields over the bundle coordinates).  The adapted horizontal frame
subtracts the connection from the natural horizontal frame; its dual coframe
adds it back on the vertical covectors, so frame and coframe matrices are
exactly mutually inverse at every point.

Frame changes carry a base map together with horizontal (Lambda) and
vertical (M) transition matrices, all functions of x only.  Transformed
coefficients stay expressed over the original coordinates, composed with
the transition data; chaining a change with its inverse therefore
reproduces the original coefficients up to roundoff, no map inversion
involved.
"""

from __future__ import annotations


from . import linalg
from .algebroid import GeneralizedAlgebroid, _check_grid, _check_x_only, \
    _freeze, contract
from .errors import DimensionMismatch, IndexOutOfRange, SingularTransition
from .jets import Point, ScalarField, compose, evaluate_grid, leaves
from .record import FrozenRecord
from .sampling import ValidationReport, sweep


class NonlinearConnection(FrozenRecord):
    """Connection coefficients ``gamma[a][alpha]`` bound to their structure."""

    algebroid: GeneralizedAlgebroid
    gamma: tuple

    def __post_init__(self):
        A = self.algebroid
        _check_grid("gamma", self.gamma, (A.r, A.p))
        object.__setattr__(self, "gamma", _freeze(self.gamma))

    @property
    def m(self):
        return self.algebroid.m

    @property
    def p(self):
        return self.algebroid.p

    @property
    def r(self):
        return self.algebroid.r

    def gamma_at(self, point: Point):
        return evaluate_grid(self.gamma, point.coords())


def zero_connection(A: GeneralizedAlgebroid) -> NonlinearConnection:
    zero = A.zero_field()
    return NonlinearConnection(A, tuple(tuple(zero for _ in range(A.p))
                                        for _ in range(A.r)))


def from_ehresmann(A: GeneralizedAlgebroid,
                   coefficients) -> NonlinearConnection:
    """Pull classical Ehresmann coefficients ``coefficients[a][k]`` (r x m)
    back through the anchor: gamma[a][alpha] = sum_k rho[k][alpha] * c[a][k]."""
    _check_grid("ehresmann coefficients", coefficients, (A.r, A.m))
    gamma = contract((A.r, A.p), (A.m,), lambda *_: A.zero_field(),
                     lambda a, alpha, k: A.rho[k][alpha] * coefficients[a][k])
    return NonlinearConnection(A, gamma)


def delta_action(C: NonlinearConnection, alpha: int,
                 f: ScalarField) -> ScalarField:
    """Derivation along the adapted horizontal frame field: anchor part
    minus the connection times the vertical partials."""
    A = C.algebroid
    if not 0 <= alpha < A.p:
        raise IndexOutOfRange(f"horizontal index {alpha} out of range")
    out = A.zero_field()
    for i in range(A.m):
        out = out + A.rho[i][alpha] * f.partial(i)
    for a in range(A.r):
        out = out - C.gamma[a][alpha] * f.partial(A.m + a)
    return out


# -- adapted frame ---------------------------------------------------------


def adapted_frame_matrix(C: NonlinearConnection, point: Point):
    """Columns are the adapted frame fields expanded in the natural frame
    (horizontal block first, then vertical), a (p+r) x (p+r) matrix."""
    p, r = C.p, C.r
    gamma = C.gamma_at(point)
    n = p + r
    out = [[0.0] * n for _ in range(n)]
    for alpha in range(p):
        out[alpha][alpha] = 1.0
        for a in range(r):
            out[p + a][alpha] = -gamma[a][alpha]
    for a in range(r):
        out[p + a][p + a] = 1.0
    return out


def adapted_coframe_matrix(C: NonlinearConnection, point: Point):
    """Rows are the adapted coframe covectors expanded in the natural
    coframe; exactly inverse to the frame matrix."""
    p, r = C.p, C.r
    gamma = C.gamma_at(point)
    n = p + r
    out = [[0.0] * n for _ in range(n)]
    for alpha in range(p):
        out[alpha][alpha] = 1.0
    for a in range(r):
        out[p + a][p + a] = 1.0
        for alpha in range(p):
            out[p + a][alpha] = gamma[a][alpha]
    return out


def to_adapted_vector(C: NonlinearConnection, point: Point, z, y):
    """Natural components (z, y) of a vector -> adapted components."""
    gamma = C.gamma_at(point)
    z = list(z)
    y_ad = [y[a] + sum(gamma[a][alpha] * z[alpha] for alpha in range(C.p))
            for a in range(C.r)]
    return z, y_ad


def from_adapted_vector(C: NonlinearConnection, point: Point, z, y_ad):
    gamma = C.gamma_at(point)
    z = list(z)
    y = [y_ad[a] - sum(gamma[a][alpha] * z[alpha] for alpha in range(C.p))
         for a in range(C.r)]
    return z, y


def to_adapted_covector(C: NonlinearConnection, point: Point, wh, wv):
    """Natural components (wh, wv) of a covector -> adapted components."""
    gamma = C.gamma_at(point)
    wh_ad = [wh[alpha] - sum(wv[a] * gamma[a][alpha] for a in range(C.r))
             for alpha in range(C.p)]
    return wh_ad, list(wv)


def from_adapted_covector(C: NonlinearConnection, point: Point, wh_ad, wv):
    gamma = C.gamma_at(point)
    wh = [wh_ad[alpha] + sum(wv[a] * gamma[a][alpha] for a in range(C.r))
          for alpha in range(C.p)]
    return wh, list(wv)


# -- frame changes ---------------------------------------------------------


class FrameChange(FrozenRecord):
    """Transition data, every entry a field over the original coordinates.

    ``lam[ap][a]`` and ``mmat[ap][a]`` are the horizontal and vertical
    transition matrices with their supplied pointwise inverses; ``basemap``
    gives the image base coordinates, ``basemap_inv`` the inverse map
    written over the image coordinates.
    """

    m: int
    r: int
    lam: tuple
    lam_inv: tuple
    mmat: tuple
    mmat_inv: tuple
    basemap: tuple
    basemap_inv: tuple

    def __post_init__(self):
        p = len(self.lam)
        rdim = len(self.mmat)
        _check_grid("lam", self.lam, (p, p))
        _check_grid("lam_inv", self.lam_inv, (p, p))
        _check_grid("mmat", self.mmat, (rdim, rdim))
        _check_grid("mmat_inv", self.mmat_inv, (rdim, rdim))
        _check_grid("basemap", self.basemap, (self.m,))
        _check_grid("basemap_inv", self.basemap_inv, (self.m,))
        for name in ("lam", "lam_inv", "mmat", "mmat_inv", "basemap",
                     "basemap_inv"):
            _check_x_only(name, leaves(getattr(self, name)), self.m)
            object.__setattr__(self, name, _freeze(getattr(self, name)))

    @property
    def p(self):
        return len(self.lam)

    def full_maps(self):
        """Coordinate maps (length m + r) sending original coordinates to
        image ones; fiber part is M applied to the fiber coordinates."""
        m, r = self.m, self.r
        return list(self.basemap) + contract(
            (r,), (r,), lambda _: ScalarField.const(m, r, 0.0),
            lambda ap, a: self.mmat[ap][a]
            * ScalarField.coordinate(m, r, m + a))

    def inverse(self) -> FrameChange:
        """The reverse transition, still expressed over the original
        coordinates: matrices swap with their inverses, and the base map
        becomes the inverse map composed with the forward one."""
        maps = self.full_maps()
        back = tuple(compose(f, maps) for f in self.basemap_inv)
        fwd = tuple(ScalarField.coordinate(self.m, self.r, k)
                    for k in range(self.m))
        return FrameChange(self.m, self.r, self.lam_inv, self.lam,
                           self.mmat_inv, self.mmat, back, fwd)

    def check_consistency(self, points: list[Point],
                          tol: float = 1e-8) -> ValidationReport:
        """Mutual-inverse residuals of the matrices and of the base maps,
        from one sweep over ``points``."""
        maps = self.full_maps()
        basemap = [compose(self.basemap_inv[k], maps)
                   - ScalarField.coordinate(self.m, self.r, k)
                   for k in range(self.m)]
        report = ValidationReport()
        report.add_all(
            ("lam_inverse", "mmat_inverse", "basemap_inverse"),
            sweep([[linalg.residual_identity_field(self.lam, self.lam_inv)],
                   [linalg.residual_identity_field(self.mmat, self.mmat_inv)],
                   basemap], points), tol)
        return report


class ChartFrame(FrozenRecord):
    """Derivative data of a (possibly transformed) coordinate frame.

    ``anchor[k][gamma]`` are the anchor components in this frame, ``ddx``
    the base-derivative operators (valid on x-only fields), and ``fiber``
    the current fiber coordinates, everything expressed over the original
    coordinates.
    """

    anchor: tuple
    ddx: tuple
    fiber: tuple


def default_chart(A: GeneralizedAlgebroid) -> ChartFrame:
    ddx = tuple((lambda k: lambda f: f.partial(k))(k) for k in range(A.m))
    fiber = tuple(ScalarField.coordinate(A.m, A.r, A.m + a)
                  for a in range(A.r))
    return ChartFrame(anchor=A.rho, ddx=ddx, fiber=fiber)


def transform_chart(chart: ChartFrame, F: FrameChange) -> ChartFrame:
    """Chart data after the change: Jacobian-corrected derivatives, the
    transformed anchor, and the new fiber coordinates."""
    m, r, p = F.m, F.r, F.p
    jac = [[chart.ddx[k](F.basemap[kp]) for k in range(m)] for kp in range(m)]
    jac_inv = linalg.field_matrix_inverse(jac, exc=SingularTransition)

    def zero(*_):
        return ScalarField.const(m, r, 0.0)

    def make_ddx(kp):
        return lambda f: contract(
            (), (m,), zero, lambda k: jac_inv[k][kp] * chart.ddx[k](f))

    anchor = contract((m, p), (m, p), zero, lambda kp, gp, k, g:
                      jac[kp][k] * chart.anchor[k][g] * F.lam_inv[g][gp])
    fiber = contract((r,), (r,), zero,
                     lambda ap, a: F.mmat[ap][a] * chart.fiber[a])
    return ChartFrame(anchor=_freeze(anchor),
                      ddx=tuple(make_ddx(kp) for kp in range(m)),
                      fiber=_freeze(fiber))


def transform_gamma(C: NonlinearConnection, F: FrameChange,
                    chart: ChartFrame | None = None) -> NonlinearConnection:
    """Connection coefficients in the transformed frame, as fields over the
    original coordinates: the vertical matrix conjugation plus the derivative
    term of the inverse vertical matrix against the new fiber coordinates."""
    A = C.algebroid
    if (F.m, F.r) != (A.m, A.r) or F.p != A.p:
        raise DimensionMismatch("frame change does not match the structure")
    if chart is None:
        chart = default_chart(A)
    new_chart = transform_chart(chart, F)
    m, p, r = A.m, A.p, A.r

    def zero(*_):
        return ScalarField.const(m, r, 0.0)

    def term(a, g):
        return contract(
            (), (m, r), lambda: C.gamma[a][g], lambda k, bp:
            chart.anchor[k][g] * chart.ddx[k](F.mmat_inv[a][bp])
            * new_chart.fiber[bp])

    def inner(ap, g):
        return contract((), (r,), zero,
                        lambda a: F.mmat[ap][a] * term(a, g))

    gamma = contract((r, p), (p,), zero,
                     lambda ap, gp, g: inner(ap, g) * F.lam_inv[g][gp])
    return NonlinearConnection(A, gamma)
