import itertools
import math

import pytest

from algcalc.algebroid import (FrameDiffeoData, GeneralizedAlgebroid,
                               Section, basis_sections, bracket,
                               constant_section, from_frame, jacobi_residual,
                               validate_structure)
from algcalc.errors import NonSmoothPoint, ShapeError
from algcalc.exprlang import parse_field
from algcalc.jets import Point, ScalarField

from conftest import (box_samples, const, count_sweeps, field_grid,
                      identity_algebroid, so3_geometry)


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


def test_frame_inverse_check_makes_one_sweep(monkeypatch):
    sweeps, grids = count_sweeps(monkeypatch)
    exp_frame().check_invertible(box_samples(2, 2, 5, seed=6))
    assert (len(sweeps), len(grids)) == (1, 0)


def test_frame_inverse_check_fails_on_nan():
    m, r = 2, 2
    one, zero = const(m, r, 1.0), const(m, r, 0.0)
    # inf * x1 is NaN at x1 = 0, so the frame entry is NaN there
    theta = [[parse_field("1e308*10*x1 + 1", m, r), zero], [zero, one]]
    frame = FrameDiffeoData(m, r, theta, [[one, zero], [zero, one]])
    from algcalc.errors import SingularFrame
    with pytest.raises(SingularFrame, match=r"x=\(0\.0, 0\.5\)"):
        frame.check_invertible([Point((0.0, 0.5), (0.0, 0.0))])


def test_frame_inverse_check_names_the_argmax_point():
    frame = exp_frame()
    bad = FrameDiffeoData(2, 2, frame.theta, frame.theta)
    pts = [Point((0.1, 0.0), (0.0, 0.0)), Point((1.0, 0.0), (0.0, 0.0)),
           Point((0.5, 0.0), (0.0, 0.0))]
    from algcalc.errors import SingularFrame
    # |exp(2 x1) - 1| is largest at x1 = 1, the second point
    with pytest.raises(SingularFrame, match=r"x=\(1\.0, 0\.0\)"):
        bad.check_invertible(pts)


def structure(m, p, r, rho, L):
    """The structure of the expression-string grids ``rho`` and ``L``."""
    return GeneralizedAlgebroid(m=m, p=p, r=r, rho=field_grid(rho, m, r),
                                L=field_grid(L, m, r))


def non_lie_structure():
    """x-dependent rho and L that satisfy neither anchor compatibility nor
    the Jacobi identity (m = 2, p = 3, r = 2)."""
    z = "0"
    return structure(2, 3, 2, [["x1", "x2^2", z], [z, "1 + x1*x2", "x2"]],
                     [[[z, "x2", "x1"], ["-x2", z, "2"], ["-x1", "-2", z]],
                      [[z, "exp(x1)", z], ["-exp(x1)", z, "x1*x2"],
                       [z, "-x1*x2", z]],
                      [[z, "1", "x2^2"], ["-1", z, z], ["-x2^2", z, z]]])


@pytest.mark.parametrize("make", [
    lambda: so3_geometry()[0],
    # [d1, x2 exp(x1) d1 + d2] = x2 exp(x1) d1: L depends on x
    lambda: from_frame(FrameDiffeoData(2, 2, *(
        field_grid(grid, 2, 2)
        for grid in ([["1", "x2*exp(x1)"], ["0", "1"]],
                     [["1", "-x2*exp(x1)"], ["0", "1"]])))),
    non_lie_structure,
], ids=["so3", "frame", "non_lie"])
def test_jacobi_closed_form_matches_every_basis_triple(make, monkeypatch):
    from algcalc import algebroid

    calls = []
    original = algebroid.bracket

    def counting(A, X1, X2):
        calls.append(1)
        return original(A, X1, X2)

    A = make()
    pts = box_samples(A.m, A.r, 4, seed=7)
    monkeypatch.setattr(algebroid, "bracket", counting)
    value, arg = jacobi_residual(A, pts)
    assert calls == []

    basis = basis_sections(A)
    results = {}
    for a, b, c in itertools.product(range(len(basis)), repeat=3):
        results[a, b, c] = jacobi_residual(
            A, pts, triple=(basis[a], basis[b], basis[c]))
        if max(a, b, c) >= A.p:
            assert results[a, b, c] == (0.0, pts[0])
    best = max(v for v, _ in results.values())
    first = min(pts.index(p) for v, p in results.values() if v == best)
    assert (value, arg) == (best, pts[first])


def test_jacobi_of_a_non_lie_structure_is_nonzero():
    A = non_lie_structure()
    value, _ = jacobi_residual(A, box_samples(2, 2, 4, seed=7))
    assert value > 0.1


# Non-finite and non-smooth structure data must fail the Jacobi check with
# NaN, or raise, at the point where they occur (m = p = 2, r = 1).
ZERO_L = [[["0", "0"], ["0", "0"]]] * 2
X_L = [[["0", "x2"], ["-x2", "0"]], [["0", "x1"], ["-x1", "0"]]]


@pytest.mark.parametrize("rho, L", [
    ([["x1*1e308*10", "0"], ["0", "1"]], X_L),
    ([["1", "0"], ["0", "1"]],
     [[["0", "x1*1e308*10"], ["-x1*1e308*10", "0"]], ZERO_L[1]]),
    ([["1e308*10", "0"], ["0", "1"]], ZERO_L),
], ids=["x_anchor", "structure", "const_anchor"])
def test_jacobi_is_nan_at_the_first_point_of_infinite_data(rho, L):
    A = structure(2, 2, 1, rho, L)
    pts = box_samples(2, 1, 3, seed=8)
    value, arg = jacobi_residual(A, pts)
    assert math.isnan(value) and arg == pts[0]


def test_jacobi_raises_where_the_anchor_is_not_smooth():
    A = structure(2, 2, 1, [["ln(x1)", "0"], ["0", "1"]], ZERO_L)
    pts = [Point((0.5, 0.2), (0.3,)), Point((-0.5, 0.2), (0.3,))]
    with pytest.raises(NonSmoothPoint, match="ln of a non-positive argument"):
        jacobi_residual(A, pts)
