import random

import pytest

from algcalc import metric
from algcalc.algebroid import contract
from algcalc.dtensor import DConnection, berwald
from algcalc.errors import ShapeError, SingularMetric
from algcalc.exprlang import parse_field
from algcalc.jets import Point, leaves
from algcalc.metric import (MetricStructure, base_deform, berwald_canonical,
                            canonical_dconnection, metrizability_residual,
                            obata_deform, obata_pair)
from algcalc.nlconn import delta_action

from conftest import (box_samples, const, identity_algebroid,
                      poincare_geometry, random_geometry, random_poly)


def classical_christoffel_fd(g_entries, point_x, i, j, k, h=1e-6):
    """Gamma^i_{jk} = (1/2) g^{il} (d_j g_{lk} + d_k g_{jl} - d_l g_{jk})
    from finite differences of the metric entry functions of x."""
    from algcalc import linalg
    n = len(g_entries)

    def g_at(x):
        return [[g_entries[a][b](list(x) + [0.0] * n) for b in range(n)]
                for a in range(n)]

    def dg(l_idx, a, b):
        up = list(point_x)
        dn = list(point_x)
        up[l_idx] += h
        dn[l_idx] -= h
        return (g_at(up)[a][b] - g_at(dn)[a][b]) / (2 * h)

    ginv = linalg.invert(g_at(point_x))
    acc = 0.0
    for l in range(n):
        acc += 0.5 * ginv[i][l] * (dg(j, l, k) + dg(k, j, l) - dg(l, j, k))
    return acc


def poincare_entries():
    m = r = 2
    f = parse_field("1/x2^2", m, r)
    zero = const(m, r, 0.0)
    return [[f, zero], [zero, f]]


def test_metric_blocks_exactly_symmetric():
    A, C, G = poincare_geometry()
    assert G.gh[0][1] is G.gh[1][0]
    assert G.gv[0][1] is G.gv[1][0]


def test_riemannian_flag_rejects_fiber_dependence():
    A = identity_algebroid()
    g = [[parse_field("1 + y1^2", 2, 2), A.zero_field()],
         [A.zero_field(), A.const_field(1.0)]]
    with pytest.raises(ShapeError):
        MetricStructure(A, gh=g, gv=g, h_riemannian=True)


def test_inverse_and_signature():
    A, C, G = poincare_geometry()
    pt = Point((0.0, 2.0), (0.1, 0.1))
    out = G.inverse_at(pt)
    ginv, res = out["h"]
    assert res < 1e-14
    assert ginv[0][0] == pytest.approx(4.0)
    assert G.signature_at(pt)["h"] == (2, 0, 0)


def test_singular_metric_raises():
    A = identity_algebroid()
    g = [[parse_field("x1", 2, 2), A.zero_field()],
         [A.zero_field(), A.const_field(1.0)]]
    G = MetricStructure(A, gh=g, gv=g)
    with pytest.raises(SingularMetric):
        float(G.gh_inv()[0][0]([0.0, 1.0, 0.0, 0.0]))


def test_hyperbolic_christoffels():
    A, C, G = poincare_geometry()
    D = berwald_canonical(G, C)
    pt = [0.0, 1.0, 0.3, 0.4]
    # at x2 = 1: nonzero symbols -1, 1, -1
    assert float(D.hh[0][0][1](pt)) == pytest.approx(-1.0, abs=1e-10)
    assert float(D.hh[0][1][0](pt)) == pytest.approx(-1.0, abs=1e-10)
    assert float(D.hh[1][0][0](pt)) == pytest.approx(1.0, abs=1e-10)
    assert float(D.hh[1][1][1](pt)) == pytest.approx(-1.0, abs=1e-10)
    assert float(D.hh[0][0][0](pt)) == pytest.approx(0.0, abs=1e-12)


def test_hyperbolic_christoffels_match_fd_oracle():
    A, C, G = poincare_geometry()
    D = berwald_canonical(G, C)
    entries = poincare_entries()
    for x in ([0.0, 1.0], [0.3, 0.7], [-0.5, 1.6]):
        coords = list(x) + [0.2, 0.1]
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    want = classical_christoffel_fd(entries, x, i, j, k)
                    assert float(D.hh[i][j][k](coords)) == pytest.approx(
                        want, abs=1e-8)


def test_canonical_and_berwald_canonical_agree():
    A, C, G, rng = random_geometry(21)
    D1 = canonical_dconnection(G, berwald(C))
    D2 = berwald_canonical(G, C)
    for pt in box_samples(2, 2, 5, seed=22):
        coords = list(pt.coords())
        for name in ("hh", "hv", "vh", "vv"):
            b1 = getattr(D1, name)
            b2 = getattr(D2, name)
            for a in range(len(b1)):
                for b in range(len(b1[a])):
                    for c in range(len(b1[a][b])):
                        assert float(b1[a][b][c](coords)) == pytest.approx(
                            float(b2[a][b][c](coords)), abs=1e-12)


def test_canonical_connection_is_metrical():
    A, C, G, rng = random_geometry(23)
    D = canonical_dconnection(G, berwald(C))
    report = metrizability_residual(D, G, box_samples(2, 2, 20, seed=24))
    assert report.passed
    assert max(c.value for c in report.checks) < 1e-12


def test_obata_operators_complementary_and_idempotent():
    A, C, G, rng = random_geometry(25)
    for pt in box_samples(2, 2, 5, seed=26):
        pair = obata_pair(G, pt)
        for o, o_star, n in ((pair.oh, pair.oh_star, 2),
                             (pair.ov, pair.ov_star, 2)):
            for a in range(n):
                for e in range(n):
                    for b in range(n):
                        for c in range(n):
                            ident = 1.0 if (a == b and e == c) else 0.0
                            # exact complementarity, no tolerance
                            assert o[a][e][b][c] + o_star[a][e][b][c] == ident
            # idempotence of the projector pair O(O x) = O x
            for x_idx in range(n * n):
                x = [[1.0 if (i * n + j) == x_idx else 0.0
                      for j in range(n)] for i in range(n)]

                def apply(op, mat):
                    # op[a][e][d][b] * mat[d][e] -> out[a][b]
                    return [[sum(op[a][e][d][b] * mat[d][e]
                                 for d in range(n) for e in range(n))
                             for b in range(n)] for a in range(n)]

                once = apply(o, x)
                twice = apply(o, once)
                for a in range(n):
                    for b in range(n):
                        assert twice[a][b] == pytest.approx(once[a][b],
                                                            abs=1e-12)


def test_obata_deformation_stays_metrical():
    A, C, G, rng = random_geometry(27)
    p, r = A.p, A.r

    def grid(*dims):
        def build(ds):
            if not ds:
                return random_poly(rng, A.m, A.r)
            return [build(ds[1:]) for _ in range(ds[0])]
        return build(dims)

    D = obata_deform(G, C, grid(p, p, p), grid(r, r, p),
                     grid(p, p, r), grid(r, r, r))
    report = metrizability_residual(D, G, box_samples(2, 2, 20, seed=28))
    assert report.passed
    assert max(c.value for c in report.checks) < 1e-12


def test_obata_deformation_changes_the_connection():
    A, C, G, rng = random_geometry(29)
    p, r = A.p, A.r
    one = A.const_field(1.0)
    zero = A.zero_field()
    xh = [[[one if (a, b, c) == (0, 1, 0) else zero for c in range(p)]
           for b in range(p)] for a in range(p)]
    zeros3 = lambda *d: [[[zero for _ in range(d[2])] for _ in range(d[1])]
                         for _ in range(d[0])]
    D0 = berwald_canonical(G, C)
    D1 = obata_deform(G, C, xh, zeros3(r, r, p), zeros3(p, p, r),
                      zeros3(r, r, r))
    pt = [0.3, -0.2, 0.5, 0.4]
    diff = max(abs(float(D1.hh[a][b][c](pt)) - float(D0.hh[a][b][c](pt)))
               for a in range(p) for b in range(p) for c in range(p))
    assert diff > 1e-3


def test_base_deformation_fixes_arbitrary_base():
    A, C, G, rng = random_geometry(31)
    p, r = A.p, A.r

    def grid(*dims):
        def build(ds):
            if not ds:
                return random_poly(rng, A.m, A.r)
            return [build(ds[1:]) for _ in range(ds[0])]
        return build(dims)

    base = DConnection(C, hh=grid(p, p, p), hv=grid(r, r, p),
                       vh=grid(p, p, r), vv=grid(r, r, r))
    D = base_deform(G, base)
    report = metrizability_residual(D, G, box_samples(2, 2, 20, seed=32))
    assert report.passed
    assert max(c.value for c in report.checks) < 1e-12


def christoffel_term_by_term(A, g, ginv, d, L=None):
    """``metric._christoffel`` with the bracket and its derivatives built
    again for every term of the sum over e, as the n^4 loop did."""
    n = len(g)

    def bracket(e, b, c):
        term = d(c, g[e][b]) + d(b, g[e][c]) - d(e, g[b][c])
        if L is not None:
            for t in range(n):
                term = term + g[t][e] * L[t][c][b] - g[b][t] * L[t][c][e] \
                    - g[t][c] * L[t][b][e]
        return term

    sums = contract((n, n, n), (n,), lambda *_: A.zero_field(),
                    lambda a, b, c, e: ginv[a][e] * bracket(e, b, c))
    return [[[f * 0.5 for f in row] for row in plane] for plane in sums]


def test_christoffel_blocks_are_the_nodes_of_the_term_by_term_sum():
    A, C, G, _ = random_geometry(5)
    m = A.m
    cases = [
        (G.gh, G.gh_inv(), lambda k, f: delta_action(C, k, f), A.L),
        (G.gv, G.gv_inv(), lambda c, f: f.partial(m + c), None),
    ]
    for g, ginv, d, L in cases:
        got = metric._christoffel(A, g, ginv, d, L)
        want = christoffel_term_by_term(A, g, ginv, d, L)
        assert all(a is b for a, b in zip(leaves(got), leaves(want)))
        assert len(list(leaves(got))) == len(g) ** 3


def test_christoffel_builds_each_derivative_once():
    A, C, G, _ = random_geometry(6)
    derivatives = []

    def d(k, f):
        derivatives.append((k, f))
        return delta_action(C, k, f)

    metric._christoffel(A, G.gh, G.gh_inv(), d, A.L)
    assert len(derivatives) == A.p ** 3
