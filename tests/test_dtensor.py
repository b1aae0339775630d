import pytest

from algcalc.dtensor import (DConnection, DTensorField, DOWN, HORIZONTAL,
                             IndexSignature, UP, VERTICAL, berwald,
                             cov_deriv_along, h_cov_deriv, scalar_tensor,
                             tensor_product, transform_dconnection,
                             v_cov_deriv, zero_blocks)
from algcalc.errors import DimensionMismatch, ShapeError
from algcalc.exprlang import parse_field
from algcalc.nlconn import (NonlinearConnection, default_chart, delta_action,
                            transform_chart, zero_connection)
from algcalc.algebroid import constant_section

from conftest import box_samples, identity_algebroid, random_poly

from test_nlconn import random_connection, sample_frame_change


def random_dconnection(seed=0):
    import random
    rng = random.Random(seed)
    C = random_connection(seed)
    A = C.algebroid
    p, r = A.p, A.r

    def grid(*dims):
        def build(ds):
            if not ds:
                return random_poly(rng, A.m, A.r)
            return [build(ds[1:]) for _ in range(ds[0])]
        return build(dims)

    return DConnection(C, hh=grid(p, p, p), hv=grid(r, r, p),
                       vh=grid(p, p, r), vv=grid(r, r, r))


def vector_tensor(A, seed=1):
    import random
    rng = random.Random(seed)
    sig = IndexSignature(((HORIZONTAL, UP),))
    return DTensorField.from_nested(
        A, sig, [random_poly(rng, A.m, A.r) for _ in range(A.p)])


def test_signature_validation():
    with pytest.raises(ShapeError):
        IndexSignature((("Q", UP),))
    sig = IndexSignature(((HORIZONTAL, UP), (VERTICAL, DOWN)))
    assert sig.dims(2, 3) == (2, 3)


def test_component_keys_checked():
    A = identity_algebroid()
    sig = IndexSignature(((HORIZONTAL, UP),))
    with pytest.raises(ShapeError):
        DTensorField(A, sig, {(0,): A.zero_field()})


def test_scalar_cov_deriv_is_delta_action():
    D = random_dconnection()
    A = D.algebroid
    f = parse_field("x1*y2 + x2^2", A.m, A.r)
    T = scalar_tensor(A, f)
    hd = h_cov_deriv(D, T)
    vd = v_cov_deriv(D, T)
    for pt in box_samples(A.m, A.r, 5, seed=2):
        coords = list(pt.coords())
        for g in range(A.p):
            assert float(hd[(g,)](coords)) == pytest.approx(
                float(delta_action(D.nlconn, g, f)(coords)))
        for c in range(A.r):
            assert float(vd[(c,)](coords)) == pytest.approx(
                float(f.partial(A.m + c)(coords)))


def test_product_rule():
    D = random_dconnection(3)
    A = D.algebroid
    T1 = vector_tensor(A, 4)
    sig2 = IndexSignature(((VERTICAL, DOWN),))
    import random
    rng = random.Random(5)
    T2 = DTensorField.from_nested(
        A, sig2, [random_poly(rng, A.m, A.r) for _ in range(A.r)])
    prod = tensor_product(T1, T2)
    d_prod = h_cov_deriv(D, prod)
    d1 = h_cov_deriv(D, T1)
    d2 = h_cov_deriv(D, T2)
    for pt in box_samples(A.m, A.r, 5, seed=6):
        coords = list(pt.coords())
        for i in range(A.p):
            for b in range(A.r):
                for g in range(A.p):
                    got = float(d_prod[(i, b, g)](coords))
                    want = float(d1[(i, g)](coords)) * float(T2[(b,)](coords)) \
                        + float(T1[(i,)](coords)) * float(d2[(b, g)](coords))
                    assert got == pytest.approx(want, abs=1e-12)


def test_up_down_contraction_is_parallel():
    # the full contraction of an up slot with a down slot is a scalar whose
    # covariant derivative must equal the plain derivative of the trace
    D = random_dconnection(7)
    A = D.algebroid
    T1 = vector_tensor(A, 8)
    import random
    rng = random.Random(9)
    sig2 = IndexSignature(((HORIZONTAL, DOWN),))
    T2 = DTensorField.from_nested(
        A, sig2, [random_poly(rng, A.m, A.r) for _ in range(A.p)])
    trace = A.zero_field()
    for i in range(A.p):
        trace = trace + T1[(i,)] * T2[(i,)]
    d1 = h_cov_deriv(D, T1)
    d2 = h_cov_deriv(D, T2)
    for pt in box_samples(A.m, A.r, 5, seed=10):
        coords = list(pt.coords())
        for g in range(A.p):
            got = 0.0
            for i in range(A.p):
                got += float(d1[(i, g)](coords)) * float(T2[(i,)](coords))
                got += float(T1[(i,)](coords)) * float(d2[(i, g)](coords))
            want = float(delta_action(D.nlconn, g, trace)(coords))
            assert got == pytest.approx(want, abs=1e-10)


def test_cov_deriv_along_combines_blocks():
    D = random_dconnection(13)
    A = D.algebroid
    T = vector_tensor(A, 14)
    X = constant_section(A, [1.0, 0.0], [0.0, 1.0])
    along = cov_deriv_along(D, X, T)
    hd = h_cov_deriv(D, T)
    vd = v_cov_deriv(D, T)
    pt = [0.1, 0.6, -0.2, 0.3]
    for i in range(A.p):
        want = float(hd[(i, 0)](pt)) + float(vd[(i, 1)](pt))
        assert float(along[(i,)](pt)) == pytest.approx(want)


def test_berwald_blocks():
    C = random_connection(15)
    A = C.algebroid
    D = berwald(C)
    pt = [0.3, 0.1, 0.4, -0.2]
    for a in range(A.r):
        for b in range(A.r):
            for g in range(A.p):
                want = float(C.gamma[a][g].partial(A.m + b)(pt))
                assert float(D.hh[a][b][g](pt)) == want
                assert float(D.hv[a][b][g](pt)) == want
                assert float(D.vh[a][b][g](pt)) == 0.0
                assert float(D.vv[a][b][g](pt)) == 0.0


def test_berwald_requires_matching_dimensions():
    import random
    rng = random.Random(16)
    m, p, r = 2, 2, 1
    from algcalc.algebroid import GeneralizedAlgebroid
    from conftest import const
    rho = [[const(m, r, 1.0 if i == a else 0.0) for a in range(p)]
           for i in range(m)]
    zero = const(m, r, 0.0)
    L = [[[zero] * p for _ in range(p)] for _ in range(p)]
    A = GeneralizedAlgebroid(m=m, p=p, r=r, rho=rho, L=L)
    with pytest.raises(DimensionMismatch):
        berwald(zero_connection(A))


def test_dconnection_transform_round_trip():
    D = random_dconnection(17)
    A = D.algebroid
    F = sample_frame_change()
    chart0 = default_chart(A)
    chart1 = transform_chart(chart0, F)
    primed = transform_dconnection(D, F, chart0)
    back = transform_dconnection(primed, F.inverse(), chart1)
    for pt in box_samples(A.m, A.r, 10, seed=18):
        coords = list(pt.coords())
        for name in ("hh", "hv", "vh", "vv"):
            orig = getattr(D, name)
            got = getattr(back, name)
            for a in range(len(orig)):
                for b in range(len(orig[a])):
                    for c in range(len(orig[a][b])):
                        assert float(got[a][b][c](coords)) == pytest.approx(
                            float(orig[a][b][c](coords)), abs=1e-10)
