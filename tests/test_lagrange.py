import random

import pytest

from algcalc.errors import DimensionMismatch, ShapeError
from algcalc.exprlang import parse_field
from algcalc.jets import Point
from algcalc.lagrange import (FundamentalFunction, TorsionPair,
                              build_gl_space, finsler_checks, hessian_metric,
                              levi_civita_normal, recover_torsions,
                              regularity_check, torsion_deform)
from algcalc.metric import metrizability_residual

from conftest import (box_samples, count_calls, count_sweeps,
                      identity_algebroid, poincare_geometry, random_poly,
                      so3_geometry)


def koszul_oracle(G, C, point, a, b, c, h=1e-6):
    """Brute-force Koszul value from numeric adapted-frame derivatives of
    the metric entries plus the structure-function terms."""
    from algcalc import linalg
    from algcalc.nlconn import delta_action
    A = G.algebroid
    n = A.r
    coords = list(point.coords())
    g = [[float(f(coords)) for f in row] for row in G.gv]
    ginv = linalg.invert(g)

    def delta_g(direction, e, f_idx):
        return float(delta_action(C, direction, G.gv[e][f_idx])(coords))

    def L(d, x, y):
        return float(A.L[d][x][y](coords))

    acc = 0.0
    for e in range(n):
        term = delta_g(b, e, c) + delta_g(c, b, e) - delta_g(e, b, c)
        for d in range(n):
            term -= g[c][d] * L(d, b, e)
            term += g[b][d] * L(d, e, c)
            term -= g[e][d] * L(d, b, c)
        acc += 0.5 * ginv[a][e] * term
    return acc


def test_hessian_metric_of_quadratic_energy():
    A = identity_algebroid()
    fund = FundamentalFunction(
        A, parse_field("y1^2 + 3*y1*y2 + 2*y2^2", 2, 2), "lagrange")
    block = hessian_metric(fund)
    pt = [0.1, 0.2, 0.3, 0.4]
    assert float(block[0][0](pt)) == pytest.approx(1.0)
    assert float(block[0][1](pt)) == pytest.approx(1.5)
    assert float(block[1][1](pt)) == pytest.approx(2.0)
    assert block[0][1] is block[1][0]


def test_finsler_energy_squares_the_function():
    A = identity_algebroid()
    fund = FundamentalFunction(A, parse_field("sqrt(y1^2 + y2^2)", 2, 2),
                               "finsler")
    pt = [0.0, 0.0, 3.0, 4.0]
    assert float(fund.energy()(pt)) == pytest.approx(25.0)


def test_unknown_kind_rejected():
    A = identity_algebroid()
    with pytest.raises(ShapeError):
        FundamentalFunction(A, A.const_field(1.0), "hamilton")


def test_regularity_full_rank_and_defect():
    A = identity_algebroid()
    pts = box_samples(2, 2, 5, seed=1, fiber_floor=0.1)
    good = FundamentalFunction(A, parse_field("y1^2 + y2^2", 2, 2))
    report = regularity_check(hessian_metric(good), pts)
    assert report.passed and report.metadata["rank"] == 2
    bad = FundamentalFunction(A, parse_field("y1^2", 2, 2))
    report = regularity_check(hessian_metric(bad), pts)
    assert not report.passed
    assert report.metadata["rank"] == 1


def test_euclidean_finsler_passes_all_checks():
    A = identity_algebroid()
    fund = FundamentalFunction(A, parse_field("sqrt(y1^2 + y2^2)", 2, 2),
                               "finsler")
    pts = box_samples(2, 2, 30, seed=2, fiber_floor=0.2)
    report = finsler_checks(fund, pts)
    assert report["homogeneity"].value < 1e-12
    assert report["euler_identity"].value < 1e-10
    assert report["positive_definite_defect"].value == 0.0


def test_quadratic_pretender_fails_homogeneity():
    A = identity_algebroid()
    fund = FundamentalFunction(A, parse_field("y1^2", 2, 2), "finsler")
    probe = Point((0.0, 0.0), (1.0, 0.5))
    report = finsler_checks(fund, [probe])
    assert report["homogeneity"].value >= 1.0
    assert not report.passed


def test_randers_passes_off_zero_section():
    A = identity_algebroid()
    fund = FundamentalFunction(
        A, parse_field("sqrt(y1^2 + y2^2) + 0.3*y1", 2, 2), "finsler")
    pts = box_samples(2, 2, 30, seed=3, fiber_floor=0.2)
    report = finsler_checks(fund, pts)
    assert report.passed


def test_finsler_checks_make_one_sweep(monkeypatch):
    from algcalc import lagrange, linalg
    sweeps, grids = count_sweeps(monkeypatch)
    hessians = count_calls(monkeypatch, lagrange, "hessian_metric")
    ranks = count_calls(monkeypatch, linalg, "rank")
    pivots = count_calls(monkeypatch, linalg, "sym_pivots")
    A = identity_algebroid()
    fund = FundamentalFunction(
        A, parse_field("sqrt(y1^2 + y2^2) + 0.3*y1", 2, 2), "finsler")
    report = finsler_checks(fund, box_samples(2, 2, 7, seed=3,
                                              fiber_floor=0.2))
    assert [c.name for c in report.checks] == [
        "homogeneity", "euler_identity", "positive_definite_defect",
        "hessian_rank_defect"]
    assert report.passed and report.metadata == {}
    assert (len(sweeps), len(grids), len(hessians)) == (1, 0, 1)
    # the rank and pivot routines run once per point, looked up through
    # the module as they run
    assert len(ranks) == len(pivots) == 7


def test_regularity_check_makes_one_sweep(monkeypatch):
    sweeps, grids = count_sweeps(monkeypatch)
    A = identity_algebroid()
    bad = FundamentalFunction(A, parse_field("y1^2", 2, 2))
    report = regularity_check(hessian_metric(bad), box_samples(2, 2, 5, 1))
    assert report["hessian_rank_defect"].value == 1.0
    assert (len(sweeps), len(grids)) == (1, 0)


def test_gl_space_requires_matching_dimensions():
    from algcalc.algebroid import GeneralizedAlgebroid
    from conftest import const
    m, p, r = 2, 1, 2
    rho = [[const(m, r, 1.0)], [const(m, r, 0.0)]]
    L = [[[const(m, r, 0.0)]]]
    A = GeneralizedAlgebroid(m=m, p=p, r=r, rho=rho, L=L)
    from algcalc.nlconn import zero_connection
    block = [[const(m, r, 1.0 if i == j else 0.0) for j in range(r)]
             for i in range(r)]
    with pytest.raises(DimensionMismatch):
        build_gl_space(zero_connection(A), block)


def test_levi_civita_matches_koszul_oracle_so3():
    A, C, G = so3_geometry()
    N = levi_civita_normal(C, G)
    pt = Point((0.2,), (0.3, 0.4, 0.5))
    coords = list(pt.coords())
    for a in range(3):
        for b in range(3):
            for c in range(3):
                assert float(N.h[a][b][c](coords)) == pytest.approx(
                    koszul_oracle(G, C, pt, a, b, c), abs=1e-10)
    assert float(N.h[0][1][2](coords)) == pytest.approx(-0.5, abs=1e-10)


def test_levi_civita_hyperbolic_values():
    A, C, G = poincare_geometry()
    N = levi_civita_normal(C, G)
    pt = [0.0, 1.0, 0.3, 0.4]
    assert float(N.h[0][0][1](pt)) == pytest.approx(-1.0, abs=1e-10)
    assert float(N.h[1][0][0](pt)) == pytest.approx(1.0, abs=1e-10)
    assert float(N.h[1][1][1](pt)) == pytest.approx(-1.0, abs=1e-10)


def test_levi_civita_is_metrical():
    A, C, G = poincare_geometry()
    N = levi_civita_normal(C, G)
    pts = box_samples(2, 2, 15, seed=4, x_box=((-1, 1), (0.5, 2)))
    report = metrizability_residual(N.as_dconnection(), G, pts)
    assert report.passed


def test_levi_civita_torsion_free():
    for A, C, G in (so3_geometry(), poincare_geometry()):
        N = levi_civita_normal(C, G)
        torsions = recover_torsions(N)
        pts = box_samples(A.m, A.r, 10, seed=5,
                          x_box=((-1, 1),) * A.m if A.m == 1
                          else ((-1, 1), (0.5, 2)))
        worst = 0.0
        for pt in pts:
            coords = list(pt.coords())
            for grid in (torsions.t, torsions.s):
                for plane in grid:
                    for row in plane:
                        for f in row:
                            worst = max(worst, abs(float(f(coords))))
        assert worst < 1e-8


def random_antisymmetric(rng, A, n):
    grid = [[[A.zero_field() for _ in range(n)] for _ in range(n)]
            for _ in range(n)]
    for a in range(n):
        for b in range(n):
            for c in range(b + 1, n):
                f = random_poly(rng, A.m, A.r)
                grid[a][b][c] = f
                grid[a][c][b] = -1.0 * f
    return grid


def test_prescribed_torsions_are_recovered():
    rng = random.Random(6)
    A, C, G = poincare_geometry()
    n = A.r
    torsions = TorsionPair(t=random_antisymmetric(rng, A, n),
                           s=random_antisymmetric(rng, A, n))
    base = levi_civita_normal(C, G)
    N = torsion_deform(base, G, torsions)
    back = recover_torsions(N)
    pts = box_samples(2, 2, 10, seed=7, x_box=((-1, 1), (0.5, 2)))
    worst = 0.0
    for pt in pts:
        coords = list(pt.coords())
        for given, got in ((torsions.t, back.t), (torsions.s, back.s)):
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        worst = max(worst, abs(
                            float(got[a][b][c](coords))
                            - float(given[a][b][c](coords))))
    assert worst < 1e-10


def test_torsion_deformation_stays_metrical():
    rng = random.Random(8)
    A, C, G = poincare_geometry()
    torsions = TorsionPair(t=random_antisymmetric(rng, A, A.r),
                           s=random_antisymmetric(rng, A, A.r))
    N = torsion_deform(levi_civita_normal(C, G), G, torsions)
    pts = box_samples(2, 2, 10, seed=9, x_box=((-1, 1), (0.5, 2)))
    report = metrizability_residual(N.as_dconnection(), G, pts)
    assert report.passed


def test_recover_convention_sign():
    A, C, G = so3_geometry()
    N = levi_civita_normal(C, G)
    consistent = recover_torsions(N, "consistent")
    verbatim = recover_torsions(N, "verbatim")
    coords = [0.1, 0.2, 0.3, 0.4]
    # the two conventions differ by 2 L^a_{bc}
    diff = float(consistent.t[0][1][2](coords)) \
        - float(verbatim.t[0][1][2](coords))
    assert diff == pytest.approx(2.0 * float(A.L[0][1][2](coords)))
    with pytest.raises(ShapeError):
        recover_torsions(N, "other")
