import pytest

from algcalc import linalg
from algcalc.exprlang import parse_field
from algcalc.jets import Point
from algcalc.nlconn import (FrameChange, NonlinearConnection,
                            adapted_coframe_matrix, adapted_frame_matrix,
                            default_chart, delta_action, from_adapted_covector,
                            from_adapted_vector, from_ehresmann,
                            to_adapted_covector, to_adapted_vector,
                            transform_chart, transform_gamma, zero_connection)

from conftest import (box_samples, const, count_sweeps, field_grid,
                      identity_algebroid, random_poly)


def random_connection(seed=0, m=2, r=2):
    import random
    rng = random.Random(seed)
    A = identity_algebroid(m, r)
    gamma = [[random_poly(rng, m, r) for _ in range(A.p)] for _ in range(r)]
    return NonlinearConnection(A, gamma)


def sample_frame_change(m=2, r=2):
    lam = field_grid([["1", "0"], ["x1", "1"]], m, r)
    lam_inv = field_grid([["1", "0"], ["-x1", "1"]], m, r)
    mmat = field_grid([["2", "0"], ["x2", "1"]], m, r)
    mmat_inv = field_grid([["0.5", "0"], ["-0.5*x2", "1"]], m, r)
    basemap = [parse_field("x1 + x2", m, r), parse_field("x2", m, r)]
    basemap_inv = [parse_field("x1 - x2", m, r), parse_field("x2", m, r)]
    return FrameChange(m, r, lam, lam_inv, mmat, mmat_inv,
                       basemap, basemap_inv)


def test_frame_coframe_mutually_inverse():
    C = random_connection()
    for pt in box_samples(2, 2, 20, seed=1):
        frame = adapted_frame_matrix(C, pt)
        coframe = adapted_coframe_matrix(C, pt)
        assert linalg.residual_identity(coframe, frame) < 1e-13
        assert linalg.residual_identity(frame, coframe) < 1e-13


def test_adapted_component_round_trips():
    C = random_connection()
    pt = Point((0.3, -0.5), (0.8, 0.2))
    z, y = [1.0, -2.0], [0.5, 3.0]
    z_ad, y_ad = to_adapted_vector(C, pt, z, y)
    z2, y2 = from_adapted_vector(C, pt, z_ad, y_ad)
    assert z2 == pytest.approx(z) and y2 == pytest.approx(y)
    wh, wv = [0.7, -0.1], [2.0, 0.3]
    wh_ad, wv_ad = to_adapted_covector(C, pt, wh, wv)
    wh2, wv2 = from_adapted_covector(C, pt, wh_ad, wv_ad)
    assert wh2 == pytest.approx(wh) and wv2 == pytest.approx(wv)


def test_adapted_pairing_invariant():
    # <w, X> is the same in natural and adapted components
    C = random_connection()
    pt = Point((0.3, -0.5), (0.8, 0.2))
    z, y = [1.0, -2.0], [0.5, 3.0]
    wh, wv = [0.7, -0.1], [2.0, 0.3]
    natural = sum(a * b for a, b in zip(wh + wv, z + y))
    z_ad, y_ad = to_adapted_vector(C, pt, z, y)
    wh_ad, wv_ad = to_adapted_covector(C, pt, wh, wv)
    adapted = sum(a * b for a, b in zip(wh_ad + wv_ad, z_ad + y_ad))
    assert adapted == pytest.approx(natural, abs=1e-12)


def test_delta_action_subtracts_connection():
    C = random_connection()
    f = parse_field("y1^2 + x1", 2, 2)
    pt = Point((0.2, 0.4), (0.6, -0.3))
    coords = list(pt.coords())
    got = float(delta_action(C, 0, f)(coords))
    gamma = C.gamma_at(pt)
    want = 1.0 - gamma[0][0] * 2 * 0.6
    assert got == pytest.approx(want)


def test_ehresmann_pullback():
    A = identity_algebroid()
    coeff = field_grid([["x2", "0"], ["0", "x1"]], 2, 2)
    C = from_ehresmann(A, coeff)
    pt = [0.3, 0.7, 0.0, 0.0]
    assert float(C.gamma[0][0](pt)) == pytest.approx(0.7)
    assert float(C.gamma[1][1](pt)) == pytest.approx(0.3)


def test_frame_change_consistency():
    F = sample_frame_change()
    report = F.check_consistency(box_samples(2, 2, 10, seed=2))
    assert report.passed


def test_frame_change_consistency_makes_one_sweep(monkeypatch):
    sweeps, grids = count_sweeps(monkeypatch)
    report = sample_frame_change().check_consistency(
        box_samples(2, 2, 10, seed=2))
    assert [c.name for c in report.checks] == [
        "lam_inverse", "mmat_inverse", "basemap_inverse"]
    assert (len(sweeps), len(grids)) == (1, 0)


def test_gamma_transform_round_trip():
    C = random_connection(seed=5)
    A = C.algebroid
    F = sample_frame_change()
    chart0 = default_chart(A)
    chart1 = transform_chart(chart0, F)
    primed = transform_gamma(C, F, chart0)
    back = transform_gamma(primed, F.inverse(), chart1)
    for pt in box_samples(2, 2, 15, seed=3):
        coords = list(pt.coords())
        for a in range(A.r):
            for g in range(A.p):
                assert float(back.gamma[a][g](coords)) == pytest.approx(
                    float(C.gamma[a][g](coords)), abs=1e-10)


def test_identity_transform_is_exact():
    C = random_connection(seed=6)
    A = C.algebroid
    m, r = A.m, A.r
    ident = field_grid([["1", "0"], ["0", "1"]], m, r)
    base = [parse_field("x1", m, r), parse_field("x2", m, r)]
    F = FrameChange(m, r, ident, ident, ident, ident, base, base)
    primed = transform_gamma(C, F)
    pt = [0.3, -0.2, 0.5, 0.9]
    for a in range(r):
        for g in range(A.p):
            assert float(primed.gamma[a][g](pt)) == \
                float(C.gamma[a][g](pt))


def test_zero_connection_delta_is_anchor_derivative():
    A = identity_algebroid()
    C = zero_connection(A)
    f = parse_field("x1*y2", 2, 2)
    pt = [0.5, 0.1, 0.2, 0.7]
    assert float(delta_action(C, 0, f)(pt)) == pytest.approx(0.7)
