import math

import pytest

from algcalc.algebroid import (FrameDiffeoData, GeneralizedAlgebroid,
                               Section, basis_sections, bracket,
                               constant_section, from_frame, jacobi_residual,
                               validate_structure)
from algcalc.errors import ShapeError
from algcalc.exprlang import parse_field
from algcalc.jets import Point, ScalarField

from conftest import (box_samples, const, identity_algebroid, so3_geometry)


def exp_frame(m=2, r=2):
    """Frame fields d/dx1 and exp(x1) d/dx2."""
    one, zero = const(m, r, 1.0), const(m, r, 0.0)
    theta = [[one, zero], [zero, parse_field("exp(x1)", m, r)]]
    theta_inv = [[one, zero], [zero, parse_field("exp(-x1)", m, r)]]
    return FrameDiffeoData(m, r, theta, theta_inv)


def test_structure_requires_x_only_coefficients():
    m = r = 1
    rho = [[parse_field("y1", m, r)]]
    L = [[[const(m, r, 0.0)]]]
    with pytest.raises(ShapeError):
        GeneralizedAlgebroid(m=m, p=1, r=r, rho=rho, L=L)


def test_identity_structure_validates():
    A = identity_algebroid()
    report = validate_structure(A, box_samples(2, 2, 10, seed=0))
    assert report.passed
    assert report["antisymmetry"].value == 0.0
    assert report["anchor_compatibility"].value == 0.0


def test_bracket_coordinate_fields():
    # [x2 d1, d2] = -d1 for the identity anchor
    A = identity_algebroid()
    zero = A.zero_field()
    X1 = Section((parse_field("x2", 2, 2), zero), (zero, zero))
    X2 = Section((zero, A.const_field(1.0)), (zero, zero))
    out = bracket(A, X1, X2)
    pt = [0.3, 0.7, 0.1, 0.2]
    assert float(out.z[0](pt)) == pytest.approx(-1.0)
    assert float(out.z[1](pt)) == pytest.approx(0.0)


def test_frame_structure_functions_match_commutator_oracle():
    frame = exp_frame()
    A = from_frame(frame)
    pts = box_samples(2, 2, 10, seed=2)

    # oracle: [theta_a, theta_b]^j by central differences, expanded in frame
    def commutator_L(point, g, a, b, h=1e-6):
        coords = list(point.coords())

        def theta(i, al, at):
            return float(frame.theta[i][al](at))

        acc = 0.0
        for j in range(2):
            comm_j = 0.0
            for i in range(2):
                up = list(coords)
                dn = list(coords)
                up[i] += h
                dn[i] -= h
                d_jb = (theta(j, b, up) - theta(j, b, dn)) / (2 * h)
                d_ja = (theta(j, a, up) - theta(j, a, dn)) / (2 * h)
                comm_j += theta(i, a, coords) * d_jb \
                    - theta(i, b, coords) * d_ja
            acc += comm_j * float(frame.theta_inv[g][j](coords))
        return acc

    for pt in pts:
        coords = list(pt.coords())
        for g in range(2):
            for a in range(2):
                for b in range(2):
                    assert float(A.L[g][a][b](coords)) == pytest.approx(
                        commutator_L(pt, g, a, b), abs=1e-8)


def test_frame_structure_constant_value():
    A = from_frame(exp_frame())
    # [theta_1, theta_2] = theta_2, so the only nonzero coefficient is 1
    pt = [0.4, -0.2, 0.0, 0.0]
    assert float(A.L[1][0][1](pt)) == pytest.approx(1.0, abs=1e-9)
    assert float(A.L[1][1][0](pt)) == pytest.approx(-1.0, abs=1e-9)
    assert float(A.L[0][0][1](pt)) == pytest.approx(0.0, abs=1e-12)


def test_frame_algebroid_satisfies_axioms():
    A = from_frame(exp_frame())
    pts = box_samples(2, 2, 10, seed=3)
    report = validate_structure(A, pts)
    assert report.passed
    assert jacobi_residual(A, pts)[0] < 1e-8


def test_so3_structure_and_jacobi():
    A, _, _ = so3_geometry()
    pts = box_samples(1, 3, 5, seed=4)
    report = validate_structure(A, pts)
    assert report.passed
    assert jacobi_residual(A, pts)[0] < 1e-12


def test_jacobi_single_triple():
    A, _, _ = so3_geometry()
    pts = box_samples(1, 3, 3, seed=5)
    b = basis_sections(A)
    assert jacobi_residual(A, pts, triple=(b[0], b[1], b[2]))[0] < 1e-12


def test_frame_inverse_check():
    frame = exp_frame()
    frame.check_invertible(box_samples(2, 2, 5, seed=6))
    bad = FrameDiffeoData(2, 2, frame.theta, frame.theta)
    from algcalc.errors import SingularFrame
    with pytest.raises(SingularFrame):
        bad.check_invertible([Point((1.0, 0.0), (0.0, 0.0))])


def test_jacobi_builds_each_bracket_once(monkeypatch):
    from algcalc import algebroid

    calls = []
    original = algebroid.bracket

    def counting(A, X1, X2):
        calls.append(1)
        return original(A, X1, X2)

    A, _, _ = so3_geometry()
    pts = box_samples(1, 3, 2, seed=7)
    basis = basis_sections(A)
    monkeypatch.setattr(algebroid, "bracket", counting)
    value, arg = jacobi_residual(A, pts)
    # 6 basis sections: 36 inner brackets, 216 outer ones
    assert len(calls) == 36 + 216

    results = [jacobi_residual(A, pts, triple=(a, b, c))
               for a in basis for b in basis for c in basis]
    assert len(calls) == 36 + 216 + 6 * 216
    best = max(v for v, _ in results)
    first = min(pts.index(p) for v, p in results if v == best)
    assert (value, arg) == (best, pts[first])
