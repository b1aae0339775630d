"""End-to-end accuracy gates: every numbered property the artifact promises,
at its stated tolerance."""

import json
import math
import random

import pytest

from algcalc.algebroid import jacobi_residual, validate_structure
from algcalc.dtensor import DConnection, berwald, transform_dconnection
from algcalc.exprlang import parse_field
from algcalc.jets import Point, eval_jet
from algcalc.lagrange import (FundamentalFunction, finsler_checks,
                              hessian_metric, levi_civita_normal,
                              recover_torsions)
from algcalc.metric import (base_deform, berwald_canonical,
                            canonical_dconnection, metrizability_residual,
                            obata_deform, obata_pair)
from algcalc.nlconn import (default_chart, transform_chart, transform_gamma)
from algcalc import linalg
from algcalc.cli import main as cli_main

from conftest import (box_samples, fixture_path, identity_algebroid,
                      poincare_geometry, random_geometry, random_poly,
                      so3_geometry)

from test_metric import classical_christoffel_fd, poincare_entries
from test_nlconn import random_connection, sample_frame_change
from test_lagrange import koszul_oracle
from test_dtensor import random_dconnection


# 1. jet engine versus finite differences ----------------------------------

AD_EXPRESSIONS = [
    "x1^2*y2 + sin(x2)",
    "exp(0.3*x1) + y1*y2",
    "1/(2 + x1^2 + y1^2)",
    "sqrt(4 + x1^2 + y2^2)",
    "cos(x1*y1)",
    "ln(3 + x2 + y2)",
    "tan(0.3*x2)",
    "pow(2 + y1, 3)",
    "x1*x2*y1*y2",
    "(x1 + y2)^3 - 0.5*x2",
]


def test_jet_partials_match_central_differences():
    pts = box_samples(2, 2, 100, seed=101)
    for source in AD_EXPRESSIONS:
        f = parse_field(source, 2, 2)
        for pt in pts[:10]:
            coords = list(pt.coords())
            jet = eval_jet(f, pt, 2)
            h = 1e-5
            for i in range(4):
                up, dn = list(coords), list(coords)
                up[i] += h
                dn[i] -= h
                fd1 = (float(f(up)) - float(f(dn))) / (2 * h)
                scale = max(1.0, abs(jet.first[i]))
                assert abs(jet.first[i] - fd1) <= 1e-6 * scale
            h2 = 1e-4
            for i in range(4):
                up, dn = list(coords), list(coords)
                up[i] += h2
                dn[i] -= h2
                fd2 = (float(f(up)) - 2 * float(f(coords)) + float(f(dn))) \
                    / (h2 * h2)
                scale = max(1.0, abs(jet.second[i][i]))
                assert abs(jet.second[i][i] - fd2) <= 1e-6 * scale
            for i in range(4):
                for j in range(i + 1, 4):
                    pp, pm, mp, mm = (list(coords) for _ in range(4))
                    pp[i] += h2
                    pp[j] += h2
                    pm[i] += h2
                    pm[j] -= h2
                    mp[i] -= h2
                    mp[j] += h2
                    mm[i] -= h2
                    mm[j] -= h2
                    fd2 = (float(f(pp)) - float(f(pm)) - float(f(mp))
                           + float(f(mm))) / (4 * h2 * h2)
                    scale = max(1.0, abs(jet.second[i][j]))
                    assert abs(jet.second[i][j] - fd2) <= 1e-6 * scale


def test_nested_third_order_pipeline_matches_differences():
    # derivative of a fiber-Hessian metric entry: a third derivative of the
    # energy, checked against doubled central differences of the raw energy
    A = identity_algebroid()
    fund = FundamentalFunction(
        A, parse_field("y1^2*exp(x1) + y1*y2*x2 + y2^2*(1 + x1^2)", 2, 2))
    block = hessian_metric(fund)
    energy = fund.energy()

    def hessian_fd(coords, a, b, h=1e-3):
        def e_at(c):
            return float(energy(c))
        pp, pm, mp, mm = (list(coords) for _ in range(4))
        pp[2 + a] += h
        pp[2 + b] += h
        pm[2 + a] += h
        pm[2 + b] -= h
        mp[2 + a] -= h
        mp[2 + b] += h
        mm[2 + a] -= h
        mm[2 + b] -= h
        return 0.5 * (e_at(pp) - e_at(pm) - e_at(mp) + e_at(mm)) \
            / (4 * h * h)

    for pt in box_samples(2, 2, 10, seed=102):
        coords = list(pt.coords())
        for a in range(2):
            for b in range(2):
                for k in range(4):
                    ad = float(block[a][b].partial(k)(coords))
                    h = 1e-3
                    up, dn = list(coords), list(coords)
                    up[k] += h
                    dn[k] -= h
                    fd = (hessian_fd(up, a, b) - hessian_fd(dn, a, b)) \
                        / (2 * h)
                    assert abs(ad - fd) <= 1e-4 * max(1.0, abs(ad))


# 2. structure axioms on the fixture corpus --------------------------------

def test_structure_axioms_hold_on_corpus():
    cases = []
    A = identity_algebroid()
    cases.append((A, box_samples(2, 2, 15, seed=103)))
    A_so3, _, _ = so3_geometry()
    cases.append((A_so3, box_samples(1, 3, 10, seed=104)))
    from test_algebroid import exp_frame
    from algcalc.algebroid import from_frame
    cases.append((from_frame(exp_frame()), box_samples(2, 2, 15, seed=105)))
    for A, pts in cases:
        report = validate_structure(A, pts)
        assert report.passed
        assert max(c.value for c in report.checks) < 1e-8
        assert jacobi_residual(A, pts)[0] < 1e-8


def test_exponential_frame_structure_constant():
    from test_algebroid import exp_frame
    from algcalc.algebroid import from_frame
    A = from_frame(exp_frame())
    for pt in box_samples(2, 2, 10, seed=106):
        coords = list(pt.coords())
        assert abs(float(A.L[1][0][1](coords)) - 1.0) < 1e-9


# 3. adapted frame/coframe duality -----------------------------------------

def test_adapted_duality_for_random_connection():
    from algcalc.nlconn import (adapted_coframe_matrix, adapted_frame_matrix)
    C = random_connection(seed=107)
    for pt in box_samples(2, 2, 50, seed=108):
        frame = adapted_frame_matrix(C, pt)
        coframe = adapted_coframe_matrix(C, pt)
        assert linalg.residual_identity(coframe, frame) <= 1e-13


# 4. transformation round trips --------------------------------------------

def test_transformation_round_trips():
    C = random_connection(seed=109)
    A = C.algebroid
    F = sample_frame_change()
    chart0 = default_chart(A)
    chart1 = transform_chart(chart0, F)

    primed = transform_gamma(C, F, chart0)
    back = transform_gamma(primed, F.inverse(), chart1)
    D = random_dconnection(110)
    primed_d = transform_dconnection(D, F, chart0)
    back_d = transform_dconnection(primed_d, F.inverse(), chart1)
    for pt in box_samples(2, 2, 20, seed=111):
        coords = list(pt.coords())
        for a in range(A.r):
            for g in range(A.p):
                assert abs(float(back.gamma[a][g](coords))
                           - float(C.gamma[a][g](coords))) <= 1e-10
        for name in ("hh", "hv", "vh", "vv"):
            orig, got = getattr(D, name), getattr(back_d, name)
            for a in range(len(orig)):
                for b in range(len(orig[a])):
                    for c in range(len(orig[a][b])):
                        assert abs(float(got[a][b][c](coords))
                                   - float(orig[a][b][c](coords))) <= 1e-10


def test_identity_transformation_is_exact():
    from algcalc.nlconn import FrameChange
    from conftest import field_grid
    C = random_connection(seed=112)
    A = C.algebroid
    ident = field_grid([["1", "0"], ["0", "1"]], 2, 2)
    base = [parse_field("x1", 2, 2), parse_field("x2", 2, 2)]
    F = FrameChange(2, 2, ident, ident, ident, ident, base, base)
    primed = transform_gamma(C, F)
    pt = [0.4, -0.8, 0.2, 0.9]
    for a in range(A.r):
        for g in range(A.p):
            assert float(primed.gamma[a][g](pt)) == \
                float(C.gamma[a][g](pt))


# 5. every construction is metrical on random geometries -------------------

@pytest.mark.parametrize("seed", range(20))
def test_constructions_are_metrical(seed):
    A, C, G, rng = random_geometry(1000 + seed)
    p, r = A.p, A.r
    pts = box_samples(2, 2, 100, seed=2000 + seed)

    def grid(*dims):
        def build(ds):
            if not ds:
                return random_poly(rng, A.m, A.r)
            return [build(ds[1:]) for _ in range(ds[0])]
        return build(dims)

    candidates = {
        "canonical": canonical_dconnection(G, berwald(C)),
        "berwald_canonical": berwald_canonical(G, C),
        "obata": obata_deform(G, C, grid(p, p, p), grid(r, r, p),
                              grid(p, p, r), grid(r, r, r)),
        "base_deform": base_deform(
            G, DConnection(C, hh=grid(p, p, p), hv=grid(r, r, p),
                           vh=grid(p, p, r), vv=grid(r, r, r))),
    }
    for name, D in candidates.items():
        report = metrizability_residual(D, G, pts)
        worst = max(c.value for c in report.checks)
        assert worst < 1e-8, f"{name}: {worst}"


# 6. classical reduction on the hyperbolic half-plane ----------------------

def test_hyperbolic_reduction_both_constructions():
    A, C, G = poincare_geometry()
    coords = [0.0, 1.0, 0.3, 0.4]
    D = berwald_canonical(G, C)
    N = levi_civita_normal(C, G)
    for block in (D.hh, N.h):
        assert abs(float(block[0][0][1](coords)) + 1.0) < 1e-8
        assert abs(float(block[1][0][0](coords)) - 1.0) < 1e-8
        assert abs(float(block[1][1][1](coords)) + 1.0) < 1e-8
    entries = poincare_entries()
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want = classical_christoffel_fd(entries, [0.0, 1.0], i, j, k)
                assert abs(float(D.hh[i][j][k](coords)) - want) < 1e-8
                assert abs(float(N.h[i][j][k](coords)) - want) < 1e-8


# 7. projector pair sums to the identity exactly ---------------------------

def test_obata_pair_sums_to_identity_exactly():
    geoms = [poincare_geometry(), so3_geometry()]
    geoms.append(random_geometry(113)[:3])
    for A, C, G in geoms:
        x_box = ((-1.0, 1.0),) * A.m if A.m == 1 \
            else ((-1.0, 1.0), (0.5, 2.0))
        for pt in box_samples(A.m, A.r, 10, seed=114, x_box=x_box):
            pair = obata_pair(G, pt)
            for o, o_star, n in ((pair.oh, pair.oh_star, A.p),
                                 (pair.ov, pair.ov_star, A.r)):
                for a in range(n):
                    for e in range(n):
                        for b in range(n):
                            for c in range(n):
                                ident = 1.0 if (a == b and e == c) else 0.0
                                assert o[a][e][b][c] + o_star[a][e][b][c] \
                                    == ident


# 8. torsion prescriptions and the constant-curvature value ----------------

def test_torsion_round_trip_and_koszul_value():
    from algcalc.lagrange import TorsionPair, torsion_deform
    from test_lagrange import random_antisymmetric
    rng = random.Random(115)
    A, C, G = poincare_geometry()
    torsions = TorsionPair(t=random_antisymmetric(rng, A, A.r),
                           s=random_antisymmetric(rng, A, A.r))
    N = torsion_deform(levi_civita_normal(C, G), G, torsions)
    back = recover_torsions(N)
    for pt in box_samples(2, 2, 10, seed=116, x_box=((-1, 1), (0.5, 2))):
        coords = list(pt.coords())
        for given, got in ((torsions.t, back.t), (torsions.s, back.s)):
            for a in range(A.r):
                for b in range(A.r):
                    for c in range(A.r):
                        assert abs(float(got[a][b][c](coords))
                                   - float(given[a][b][c](coords))) <= 1e-10

    for A, C, G in (so3_geometry(), poincare_geometry()):
        N = levi_civita_normal(C, G)
        rec = recover_torsions(N)
        x_box = ((-1.0, 1.0),) * A.m if A.m == 1 \
            else ((-1.0, 1.0), (0.5, 2.0))
        for pt in box_samples(A.m, A.r, 5, seed=117, x_box=x_box):
            coords = list(pt.coords())
            for grid in (rec.t, rec.s):
                for plane in grid:
                    for row in plane:
                        for f in row:
                            assert abs(float(f(coords))) < 1e-8

    A, C, G = so3_geometry()
    N = levi_civita_normal(C, G)
    pt = Point((0.0,), (0.1, 0.2, 0.3))
    value = float(N.h[0][1][2](list(pt.coords())))
    assert abs(value + 0.5) < 1e-10
    assert abs(value - koszul_oracle(G, C, pt, 0, 1, 2)) < 1e-10


# 9. fundamental function checks -------------------------------------------

def test_finsler_acceptance_cases():
    A = identity_algebroid()
    pts = box_samples(2, 2, 30, seed=118, fiber_floor=0.2)

    euclid = FundamentalFunction(A, parse_field("sqrt(y1^2 + y2^2)", 2, 2),
                                 "finsler")
    report = finsler_checks(euclid, pts)
    assert report["homogeneity"].value < 1e-12
    assert report["euler_identity"].value < 1e-10
    assert report["positive_definite_defect"].value == 0.0

    quad = FundamentalFunction(A, parse_field("y1^2", 2, 2), "finsler")
    probe = Point((0.0, 0.0), (1.0, 0.5))
    report = finsler_checks(quad, [probe])
    assert report["homogeneity"].value >= 1.0

    randers = FundamentalFunction(
        A, parse_field("sqrt(y1^2 + y2^2) + 0.3*y1", 2, 2), "finsler")
    report = finsler_checks(randers, pts)
    assert report.passed


# 10. CLI byte determinism --------------------------------------------------

def test_cli_reports_are_byte_identical(capsys):
    for name in ("flat.json", "poincare.json", "so3.json", "randers.json",
                 "transform.json"):
        outputs = []
        for extra in ((), (), ("--threads", "6")):
            code = cli_main(["report", fixture_path(name), *extra])
            captured = capsys.readouterr()
            assert code == 0, captured.err
            outputs.append(captured.out)
        assert outputs[0] == outputs[1] == outputs[2]
