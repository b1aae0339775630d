import math

import pytest

from algcalc import jets
from algcalc.errors import DimensionMismatch, NonSmoothPoint
from algcalc.exprlang import parse_field
from algcalc.jets import (Point, ScalarField, compose, eval_jet, fd_partial,
                          t_abs, t_div, t_ln, t_pow, t_sqrt)
from algcalc.linalg import field_matrix_inverse

from conftest import box_samples, layer_partial


def f_poly(m=2, r=2):
    # f = x1^2 * y2 + sin(x2) * y1
    return parse_field("x1^2*y2 + sin(x2)*y1", m, r)


def test_jet_order_zero_matches_evaluation():
    f = f_poly()
    pt = Point((0.5, 0.2), (1.0, 2.0))
    jet = eval_jet(f, pt, 0)
    assert jet.value == pytest.approx(0.25 * 2.0 + math.sin(0.2) * 1.0)
    assert jet.first is None


def test_first_order_partials_analytic():
    f = f_poly()
    pt = Point((0.5, 0.2), (1.0, 2.0))
    jet = eval_jet(f, pt, 1)
    assert jet.first[0] == pytest.approx(2 * 0.5 * 2.0)
    assert jet.first[1] == pytest.approx(math.cos(0.2) * 1.0)
    assert jet.first[2] == pytest.approx(math.sin(0.2))
    assert jet.first[3] == pytest.approx(0.25)


def test_second_order_symmetric_and_exact():
    f = parse_field("x1^2*x2 + exp(x1*y1)", 2, 2)
    pt = Point((0.3, -0.4), (0.7, 0.1))
    jet = eval_jet(f, pt, 2)
    x1, x2, y1 = 0.3, -0.4, 0.7
    e = math.exp(x1 * y1)
    assert jet.second[0][0] == pytest.approx(2 * x2 + y1 * y1 * e)
    assert jet.second[0][1] == pytest.approx(2 * x1)
    assert jet.second[0][2] == pytest.approx(e + x1 * y1 * e)
    # symmetry is exact, not approximate
    for i in range(4):
        for j in range(4):
            assert jet.second[i][j] == jet.second[j][i]


def test_third_order_value():
    f = parse_field("x1^3*y1", 1, 1)
    jet = eval_jet(f, Point((2.0,), (3.0,)), 3)
    assert jet.third[0][0][0] == pytest.approx(6.0 * 3.0)
    assert jet.third[0][0][1] == pytest.approx(6.0 * 2.0)


def test_partial_field_is_differentiable_again():
    f = parse_field("x1^2*y1^2", 1, 1)
    d = f.partial(0).partial(1)           # d^2 f / dx1 dy1 = 4*x1*y1
    assert float(d([2.0, 3.0])) == pytest.approx(24.0)
    dd = d.partial(0)                     # 4*y1
    assert float(dd([2.0, 3.0])) == pytest.approx(12.0)


def test_partials_match_finite_differences():
    f = parse_field("cos(x1*y1) + x2/(2 + y2^2)", 2, 2)
    for pt in box_samples(2, 2, 20, seed=1):
        for index in range(4):
            ad = float(f.partial(index)(list(pt.coords())))
            fd = fd_partial(f, pt, index)
            assert ad == pytest.approx(fd, abs=1e-7)


def test_dependence_set_gives_exact_zero_partials():
    f = parse_field("x1^2", 2, 2)
    assert f.deps == {0}
    g = f.partial(3)
    assert float(g([1.0, 2.0, 3.0, 4.0])) == 0.0


def test_compose_chain_rule():
    outer = parse_field("x1^2 + y1", 1, 1)   # over 2 coords
    inner = [parse_field("x1*y1", 1, 1), parse_field("sin(x1)", 1, 1)]
    h = compose(outer, inner)                # (x1*y1)^2 + sin(x1)
    d = h.partial(0)
    x1, y1 = 0.7, 1.3
    assert float(d([x1, y1])) == pytest.approx(2 * x1 * y1 * y1
                                               + math.cos(x1))


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point((float("nan"),), ())


def test_out_of_range_partial_rejected():
    f = ScalarField.const(2, 2, 1.0)
    with pytest.raises(DimensionMismatch):
        f.partial(4)


@pytest.mark.parametrize("call, error, message", [
    (lambda f, pt: eval_jet(f, pt, 4), ValueError, "order must be in 0..3"),
    (lambda f, pt: eval_jet(f, Point((0.5, 0.1), (0.2,)), 1),
     DimensionMismatch, "point has 3 coordinates, field expects 2"),
    (lambda f, pt: fd_partial(f, pt, 0, 0.0), ValueError,
     "step must be positive"),
    (lambda f, pt: fd_partial(f, pt, 2), DimensionMismatch,
     "coordinate index 2 out of range"),
    (lambda f, pt: compose(f, [f]), DimensionMismatch,
     "compose needs one inner field per coordinate"),
    (lambda f, pt: ScalarField.coordinate(1, 1, 2), DimensionMismatch,
     "coordinate index 2 out of range"),
    (lambda f, pt: f + parse_field("x1", 1, 2), DimensionMismatch,
     "fields live over different coordinates"),
], ids=["jet order", "jet point", "fd step", "fd index", "compose arity",
        "coordinate", "dims"])
def test_bad_arguments_raise(call, error, message):
    f, pt = parse_field("x1*y1", 1, 1), Point((0.5,), (0.2,))
    with pytest.raises(error, match=message):
        call(f, pt)


def test_nonsmooth_points_raise():
    m = r = 1
    with pytest.raises(NonSmoothPoint):
        t_div(1.0, 0.0)
    with pytest.raises(NonSmoothPoint):
        t_ln(-1.0)
    with pytest.raises(NonSmoothPoint):
        t_sqrt(-1.0)
    f = parse_field("abs(x1)", m, r)
    with pytest.raises(NonSmoothPoint):
        float(f.partial(0)([0.0, 1.0]))
    g = parse_field("sqrt(x1)", m, r)
    with pytest.raises(NonSmoothPoint):
        float(g.partial(0)([0.0, 1.0]))


def test_kinks_at_zero_raise_only_along_a_varying_argument():
    # sqrt and abs have no derivative at zero, but a partial along a
    # coordinate that their argument does not depend on needs none
    for name in ("sqrt", "abs"):
        f = parse_field(f"{name}(y1)*x1^2", 1, 1)
        assert f.partial(0)([0.5, 0.0]) == 0.0
        assert f.partial(0).partial(0)([0.5, 0.0]) == 0.0
        for g in (f.partial(1), f.partial(0).partial(1),
                  f.partial(1).partial(0)):
            with pytest.raises(NonSmoothPoint,
                               match=f"{name} is not differentiable at zero"):
                g([0.5, 0.0])
        with pytest.raises(NonSmoothPoint):
            eval_jet(f, Point((0.5,), (0.0,)), 1)


def test_abs_and_integer_powers():
    assert t_abs(-2.5) == 2.5
    f = parse_field("pow(x1, 3)", 1, 0)
    assert float(f.partial(0)([-2.0])) == pytest.approx(12.0)
    g = parse_field("pow(x1, -2)", 1, 0)
    assert float(g([-2.0])) == pytest.approx(0.25)


def test_noninteger_power_needs_positive_base():
    f = parse_field("pow(x1, 0.5)", 1, 0)
    assert float(f([4.0])) == pytest.approx(2.0)
    with pytest.raises(NonSmoothPoint):
        float(f([-4.0]))


def test_constant_fields_fold_bit_for_bit():
    m = r = 1
    values = [0.1, -0.0, 0.0, 3.0, 1e308, float("inf"), float("nan")]
    for a in values:
        for b in values:
            fa, fb = ScalarField.const(m, r, a), ScalarField.const(m, r, b)
            # the same fields without a constant value never fold
            la = ScalarField(m, r, lambda coords, a=a: a, deps=())
            lb = ScalarField(m, r, lambda coords, b=b: b, deps=())
            pairs = [(fa + fb, la + lb), (fa - fb, la - lb),
                     (fa * fb, la * lb), (-fa, -la), (fa + 2, la + 2),
                     (2 - fa, 2 - la), (2.5 * fb, 2.5 * lb)]
            if b != 0.0:
                pairs += [(fa / fb, la / lb), (1 / fb, 1 / lb)]
            for folded, lazy in pairs:
                assert folded.constant is not None
                assert lazy.constant is None
                expected = lazy([0.5, 0.5]).hex()
                assert folded.constant.hex() == expected
                assert folded([0.5, 0.5]).hex() == expected


def test_constant_field_ignores_coordinates_and_memo():
    f = ScalarField.const(1, 1, 2.5)
    assert f([0.1, 0.2]) == 2.5
    assert eval_jet(f, Point((0.3,), (0.4,)), 2).value == 2.5
    assert eval_jet(f, Point((0.3,), (0.4,)), 2).first == (0.0, 0.0)


def test_division_by_constant_zero_raises_at_evaluation():
    m = r = 1
    for zero in (0.0, -0.0):
        f = ScalarField.const(m, r, 1.0) / ScalarField.const(m, r, zero)
        assert f.constant is None
        with pytest.raises(NonSmoothPoint, match="division by zero"):
            f([0.5, 0.5])


def test_zero_times_infinite_field_stays_nan():
    m = r = 1
    x = parse_field("1e308*10*x1", m, r)
    zero = ScalarField.const(m, r, 0.0)
    for f in (zero * x, x * zero, 0 * x, x * 0.0):
        assert f.constant is None
        assert math.isnan(f([1.0, 0.5]))
    # zero plus a field that is -0.0 is 0.0, so 0 + x does not fold to x
    minus = -parse_field("x1", m, r)
    assert math.copysign(1.0, minus([0.0, 0.5])) == -1.0
    assert math.copysign(1.0, (zero + minus)([0.0, 0.5])) == 1.0


def counted_leaf(m, r, calls):
    """An opaque field x1 that counts its evaluations in ``calls``."""
    def fn(coords):
        calls.append(1)
        return coords[0]
    return ScalarField(m, r, fn, deps=(0,))


def test_jet_evaluates_a_shared_leaf_once():
    # the field and its partial chains share the leaf; each numeric layer
    # that a partial runs on a node over the leaf runs it once more: one
    # for the first partial's pair, two for the pairs of its value and
    # coefficient, four more at order 3
    calls = []
    g = counted_leaf(1, 1, calls)
    jet = eval_jet(g * g + g, Point((0.5,), (0.2,)), 2)
    assert len(calls) == 4
    assert jet.value == 0.75
    assert jet.first == (2.0, 0.0)
    assert jet.second[0][0] == 2.0
    calls.clear()
    jet = eval_jet(g * g * g + g, Point((0.5,), (0.2,)), 3)
    assert len(calls) == 8
    assert jet.value == 0.625
    assert jet.first == (1.75, 0.0)
    assert jet.second[0][0] == 3.0
    assert jet.third[0][0][0] == 6.0
    assert jet.third[0][0][1] == 0.0


# The matrix whose inverse the golden "inverse entry" field reads
GOLDEN_MATRIX = [["2 + x1*y1", "sin(x2)"], ["x1 - y1", "3 + cos(x1*x2)"]]


def golden_fields():
    """Fields over (x1, x2, y1) whose value and first and second partials
    are pinned bit for bit in ``GOLDEN``."""
    m, r = 2, 1

    def f(source):
        return parse_field(source, m, r)

    mat = [[f(source) for source in row] for row in GOLDEN_MATRIX]
    return {
        "arithmetic": f("x1*y1 + x2 - x1/x2"),
        "negation": f("-(x1 - y1)/(1 + x2^2) - -x2"),
        "sin cos tan": f("sin(x1)*cos(y1) + tan(x2*y1)"),
        "exp ln": f("exp(x1*x2) - ln(y1 + x1^2)"),
        "sqrt abs": f("sqrt(x1^2 + y1^2)*abs(x2) - abs(x1 - 2)"),
        "integer pow": f("x1^3*y1^-2 + pow(x2, 4) - pow(x1*y1, -1)"),
        "real pow": f("pow(y1, 0.5) + x1^2.5*y1^-1.5"),
        "nested partial": f("x1^2*sin(y1)*x2 + exp(x1*y1)").partial(0),
        "compose": compose(parse_field("x1*sin(x2) + y1^2", 2, 1),
                           [f("x1*y1"), f("x2 + x1"), f("exp(x2)")]),
        "inverse entry": field_matrix_inverse(mat)[0][1],
    }


GOLDEN_POINTS = [(0.7, -0.3, 1.2), (1.5, 0.4, 0.35), (0.2, 1.1, 2.5)]


def golden_bits(field, coords):
    """``float.hex`` of the value, then of the first partials, then of
    each row of second partials ``field.partial(i).partial(j)``, each a
    space-separated string."""
    first = [field.partial(i) for i in range(len(coords))]
    rows = [first] + [[d.partial(j) for j in range(len(coords))]
                      for d in first]
    return (field(coords).hex(),
            *(" ".join(g(coords).hex() for g in row) for row in rows))


# Recorded with the earlier order-3 Taylor series engine; the nested
# first-order layers, and any later derivative engine, must reproduce every
# bit.
GOLDEN = {
    "arithmetic": [
        ("0x1.6fc962fc962fdp+1",
         "0x1.2222222222222p+2 0x1.18e38e38e38e4p+3 0x1.6666666666666p-1",
         "0x0.0p+0 0x1.638e38e38e38fp+3 0x1.0000000000000p+0",
         "0x1.638e38e38e38fp+3 0x1.9ed097b425ed2p+5 0x0.0p+0",
         "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0"),
        ("-0x1.699999999999ap+1",
         "-0x1.1333333333333p+1 0x1.4c00000000000p+3 0x1.8000000000000p+0",
         "0x0.0p+0 0x1.9000000000000p+2 0x1.0000000000000p+0",
         "0x1.9000000000000p+2 -0x1.7700000000000p+5 0x0.0p+0",
         "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0"),
        ("0x1.6b0df6b0df6b1p+0",
         "0x1.9745d1745d174p+0 0x1.2a50658dc0876p+0 0x1.999999999999ap-3",
         "0x0.0p+0 0x1.a723f789854a0p-1 0x1.0000000000000p+0",
         "0x1.a723f789854a0p-1 -0x1.33bd111e32646p-2 0x0.0p+0",
         "0x1.0000000000000p+0 0x0.0p+0 0x0.0p+0"),
    ],
    "negation": [
        ("0x1.450caebcd450cp-3",
         "-0x1.d5b98a919d5b9p-1 0x1.40a41a1d6ee70p+0 0x1.d5b98a919d5b9p-1",
         "0x0.0p+0 -0x1.02906875bb9c1p-1 0x0.0p+0",
         "-0x1.02906875bb9c1p-1 -0x1.209c7dfe535e6p-1 0x1.02906875bb9c1p-1",
         "0x0.0p+0 0x1.02906875bb9c1p-1 0x0.0p+0"),
        ("-0x1.2ec944daec943p-1",
         "-0x1.b9611a7b9611ap-1 0x1.af079c282e44cp+0 0x1.b9611a7b9611ap-1",
         "0x0.0p+0 0x1.3066473abfc58p-1 0x0.0p+0",
         "0x1.3066473abfc58p-1 0x1.884ed997da76cp-1 -0x1.3066473abfc58p-1",
         "0x0.0p+0 -0x1.3066473abfc58p-1 0x0.0p+0"),
        ("0x1.12033e52033e5p+1",
         "-0x1.cf5931cf5931dp-2 -0x1.27088f329dfe0p-5 0x1.cf5931cf5931dp-2",
         "0x0.0p+0 0x1.cd4077163aac7p-2 0x0.0p+0",
         "0x1.cd4077163aac7p-2 0x1.1eee35a699f7fp+0 -0x1.cd4077163aac7p-2",
         "0x0.0p+0 -0x1.cd4077163aac7p-2 0x0.0p+0"),
    ],
    "sin cos tan": [
        ("-0x1.24cb22f0ccf45p-3",
         "0x1.1bcc4a9c15a7bp-2 0x1.5eb94c5f16acep+0 -0x1.e2c9014738579p-1",
         "-0x1.de145c9e96abfp-3 0x0.0p+0 -0x1.6cfc5ac9fdda8p-1",
         "0x0.0p+0 -0x1.3cd50fc3c5934p+0 0x1.737a58ead99f9p+0",
         "-0x1.6cfc5ac9fdda8p-1 0x1.737a58ead99f9p+0 -0x1.3e3f72403cbacp-2"),
        ("0x1.13f3f8d21ecbdp+0",
         "0x1.102c6771bb0f9p-4 0x1.6d84782ad4bffp-2 0x1.0df2232c75030p-4",
         "-0x1.dfc1077f9f287p-1 0x0.0p+0 -0x1.8d677ddb1fdc8p-6",
         "0x0.0p+0 0x1.2073e4f51c0d1p-5 0x1.0f62c2950fd2cp+0",
         "-0x1.8d677ddb1fdc8p-6 0x1.0f62c2950fd2cp+0 -0x1.c834f4cee0c95p-1"),
        ("-0x1.24e7be43accbdp-1",
         "-0x1.92025654b19c3p-1 0x1.768f7510c359dp+1 0x1.2b2cdbefd499ap+0",
         "0x1.45f71368bb738p-3 0x0.0p+0 -0x1.2c4f4dfb54156p-1",
         "0x0.0p+0 -0x1.82a81e0fa48f4p+2 -0x1.7cde14b1f5fc4p+0",
         "-0x1.2c4f4dfb54156p-1 -0x1.7cde14b1f5fc4p+0 -0x1.02ae6a82c2869p+0"),
    ],
    "exp ln": [
        ("0x1.24b75c7029d0cp-2",
         "-0x1.1252e989bce70p+0 0x1.22836dc5eec44p-1 -0x1.2ef5657dba51dp-1",
         "-0x1.b2690ed2ce64ep-2 0x1.47dd783acf4b4p-1 0x1.f5f17629ade0fp-2",
         "0x1.47dd783acf4b4p-1 0x1.96b800151b12cp-2 0x0.0p+0",
         "0x1.f5f17629ade0fp-2 0x0.0p+0 0x1.6687e6b00e7c2p-2"),
        ("0x1.bbb3f59383d03p-1",
         "-0x1.b332d7822c0d4p-2 0x1.5dd8c884d3f74p+1 -0x1.89d89d89d89d8p-2",
         "0x1.b51420a350900p-1 0x1.752b808daee5ap+1 0x1.c670183c977aap-2",
         "0x1.752b808daee5ap+1 0x1.066296639ef97p+2 0x0.0p+0",
         "0x1.c670183c977aap-2 0x0.0p+0 0x1.2ef5657dba51cp-3"),
        ("0x1.4172514e974b0p-2",
         "0x1.36948b0c4714bp+0 0x1.fe649d89e3157p-3 -0x1.93264c993264cp-2",
         "0x1.7d847941b3551p-1 0x1.852cb81f89f38p+0 0x1.fbe7af1dba72dp-5",
         "0x1.852cb81f89f38p+0 0x1.98507e07e8de0p-5 0x0.0p+0",
         "0x1.fbe7af1dba72dp-5 0x0.0p+0 0x1.3d70cd729487cp-3"),
    ],
    "sqrt abs": [
        ("-0x1.c4364995d3fd0p-1",
         "0x1.26b281e8cef1fp+0 -0x1.63a5855b9eafbp+0 0x1.095a563c667b2p-2",
         "0x1.49f8f52f41187p-3 -0x1.01fb62100e4d0p-1 -0x1.80f7c8b721471p-4",
         "-0x1.01fb62100e4d0p-1 0x0.0p+0 -0x1.ba413a64aacd3p-1",
         "-0x1.80f7c8b721471p-4 -0x1.ba413a64aacd3p-1 0x1.c12114d5a6d30p-5"),
        ("0x1.db9d5d7e1ef50p-4",
         "0x1.63b8a9baef6b5p+0 0x1.8a50969bb4d64p+0 0x1.744b02315bb2cp-4",
         "0x1.b76058e90e14dp-7 0x1.f29b50a6ad18ap-1 -0x1.d6c2a8676a828p-5",
         "0x1.f29b50a6ad18ap-1 0x0.0p+0 0x1.d15dc2bdb29f7p-3",
         "-0x1.d6c2a8676a828p-5 0x1.d15dc2bdb29f7p-3 0x1.f862d90116b08p-3"),
        ("0x1.eae5fe7604762p-1",
         "0x1.1674cd19e394dp+0 0x1.4105b9d501039p+1 0x1.18b403c39cc41p+0",
         "0x1.be44db3ff17f6p-2 0x1.46a2ed1b79e8dp-4 -0x1.1d9cb547a4cc7p-5",
         "0x1.46a2ed1b79e8dp-4 0x0.0p+0 0x1.fe5e927aee7bcp-1",
         "-0x1.1d9cb547a4cc7p-5 0x1.fe5e927aee7bcp-1 0x1.6d9562eb10567p-9"),
    ],
    "integer pow": [
        ("-0x1.e36bca315f808p-1",
         "0x1.5c5a8ecd7f210p+1 -0x1.ba5e353f7ced9p-4 0x1.30ad602b580aep-1",
         "-0x1.f1426cf7ca434p+0 0x0.0p+0 -0x1.8f2f05397829ap+1",
         "0x0.0p+0 0x1.147ae147ae148p+0 0x0.0p+0",
         "-0x1.8f2f05397829ap+1 0x0.0p+0 -0x1.5269a69a69a69p-1"),
        ("0x1.9abfeeb3ba5fcp+4",
         "0x1.c2f99d50b078ep+5 0x1.0624dd2f1a9fdp-2 -0x1.2ffc04f9c7c66p+7",
         "0x1.1f1ae57d94cd3p+6 0x0.0p+0 -0x1.3e7f36516f8a1p+8",
         "0x0.0p+0 0x1.eb851eb851ebap+0 0x0.0p+0",
         "-0x1.3e7f36516f8a1p+8 0x0.0p+0 0x1.4995bbb0d0b25p+10"),
        ("-0x1.11b9b66f9335ap-1",
         "0x1.409d495182a99p+3 0x1.54bc6a7ef9db4p+2 0x1.991361dc93ea3p-1",
         "-0x1.8f3b645a1cac1p+6 0x0.0p+0 -0x1.00fba8826aa8fp+2",
         "0x0.0p+0 0x1.d0a3d70a3d70cp+3 0x0.0p+0",
         "-0x1.00fba8826aa8fp+2 0x0.0p+0 -0x1.470d04cb40dbap-1"),
    ],
    "real pow": [
        ("0x1.6845c9371776cp+0",
         "0x1.1d2356cd48857p+0 0x0.0p+0 0x1.10c95ffb0777cp-4",
         "0x1.31814ab75ffccp+1 0x0.0p+0 -0x1.646c2c809aa6dp+0",
         "0x0.0p+0 0x0.0p+0 0x0.0p+0",
         "-0x1.646c2c809aa6dp+0 0x0.0p+0 0x1.3e7412efc18d6p-1"),
        ("0x1.bcccecaa1f80dp+3",
         "0x1.62e40f576269ep+4 0x0.0p+0 -0x1.c186ea590b2c0p+5",
         "0x1.62e40f576269ep+4 0x0.0p+0 -0x1.7c3d7e26c4df2p+6",
         "0x0.0p+0 0x0.0p+0 0x0.0p+0",
         "-0x1.7c3d7e26c4df2p+6 0x0.0p+0 0x1.96315f1ed874dp+8"),
        ("0x1.95ee18b0d8de5p+0",
         "0x1.cf68d4fff04ddp-5 0x0.0p+0 0x1.41096a1cd694ap-2",
         "0x1.b27247aff148fp-2 0x0.0p+0 -0x1.160bb2fff6953p-5",
         "0x0.0p+0 0x0.0p+0 0x0.0p+0",
         "-0x1.160bb2fff6953p-5 0x0.0p+0 -0x1.efdd2996976b6p-5"),
    ],
    "nested partial": [
        ("0x1.31b00309fe208p+1",
         "0x1.635f45d5ef8b3p+1 0x1.4e0af57df3c09p+0 0x1.070902c8f463ap+2",
         "0x1.002bf1b178356p+2 0x1.dd343a21a55c4p+0 0x1.eb5019f845204p+2",
         "0x1.dd343a21a55c4p+0 0x0.0p+0 0x1.03bcf015cd547p-1",
         "0x1.eb5019f845204p+2 0x1.03bcf015cd547p-1 0x1.3fc4eb326b27ap+2"),
        ("0x1.00cda654d3c54p+0",
         "0x1.ecf3fa8c45d97p-2 0x1.075873beac7e8p+0 0x1.da43e53063ce2p+1",
         "0x1.28df228fbfc55p-4 0x1.5f209a5390a8bp-1 0x1.1f6a9dd34c3e0p+1",
         "0x1.5f209a5390a8bp-1 0x0.0p+0 0x1.68b8185ca6c49p+1",
         "0x1.1f6a9dd34c3e0p+1 0x1.68b8185ca6c49p+1 0x1.7f6ec3ac50169p+2"),
        ("0x1.18a5fc28afea4p+2",
         "0x1.73e06ef54076fp+3 0x1.ea44b494c7782p-3 0x1.0f6f1f9335974p+1",
         "0x1.9c2e294c95274p+4 0x1.326af0dcfcab1p+0 0x1.1157ff94b7ec9p+3",
         "0x1.326af0dcfcab1p+0 0x0.0p+0 -0x1.4825ff2d13c64p-2",
         "0x1.1157ff94b7ec9p+3 -0x1.4825ff2d13c64p-2 0x1.1f3fb405c328cp-1"),
    ],
    "compose": [
        ("0x1.c078fc346f801p-1",
         "0x1.3db1bbbcfab26p+0 0x1.df0e77b0bddd1p+0 0x1.172293cd19530p-2",
         "0x1.e228cb72f16cep+0 0x1.8e6b38b569d3fp-1 0x1.08bec71d7b94ap+0",
         "0x1.8e6b38b569d3fp-1 0x1.de3e1ab53903ap+0 0x1.4a1bb6f19bee0p-1",
         "0x1.08bec71d7b94ap+0 0x1.4a1bb6f19bee0p-1 0x0.0p+0"),
        ("0x1.5c75ea3135181p+1",
         "0x1.4ab4fb5e105b9p-3 0x1.1201b7b50f639p+2 0x1.6b6115753aa41p+0",
         "-0x1.723b8178cdc5cp-1 -0x1.384c883f0835ep-1 0x1.d87042866082ep-2",
         "-0x1.384c883f0835ep-1 0x1.0cf8ad7f90443p+3 -0x1.f092a15ce6880p-2",
         "0x1.d87042866082ep-2 -0x1.f092a15ce6880p-2 0x0.0p+0"),
        ("0x1.3037a51923751p+3",
         "0x1.45756329dd7b5p+1 0x1.22f0bf89462f8p+4 0x1.8aac6616a7ea3p-3",
         "0x1.b620487872fc8p-1 0x1.7ee9115494146p-3 0x1.045de8ee4ac91p+0",
         "0x1.7ee9115494146p-3 0x1.1cf23a1d08422p+5 0x1.b64524043ad65p-5",
         "0x1.045de8ee4ac91p+0 0x1.b64524043ad65p-5 0x0.0p+0"),
    ],
    "inverse entry": [
        ("0x1.b23f9476dbeb8p-6",
         "-0x1.7d04a75c76daap-7 -0x1.67a33d1d30b03p-4 -0x1.83c4941454854p-8",
         "0x1.6d79e3112e0adp-7 0x1.3b7b0e8aa83edp-5 -0x1.10aae8d22ecd3p-8",
         "0x1.3b7b0e8aa83eep-5 -0x1.399ab632fe98ap-7 0x1.1fb6d442ed0f4p-6",
         "-0x1.10aae8d22ecd2p-8 0x1.1fb6d442ed0f4p-6 0x1.5a4334adfcd2fp-9"),
        ("-0x1.5a550c9b46421p-5",
         "0x1.c8325f7c9fa00p-10 -0x1.d5b1a4645a4c4p-4 0x1.ccc5f170f62c8p-6",
         "-0x1.3a7b05ff6a780p-9 -0x1.9b1de48d2f092p-7 0x1.c07fd7102fd3ep-7",
         "-0x1.9b1de48d2f092p-7 -0x1.d1610a2df6c2ap-5 0x1.59df4140cdf18p-4",
         "0x1.c07fd7102fd3fp-7 0x1.59df4140cdf18p-4 -0x1.3283cecda8db1p-5"),
        ("-0x1.3076f4391e3a9p-4",
         "0x1.ad14dd29224afp-5 -0x1.067b32db10956p-5 0x1.569892b4e696cp-7",
         "-0x1.97cc35e647144p-4 0x1.0fe885271c870p-7 0x1.3b253d1bc59eap-7",
         "0x1.0fe885271c86ep-7 0x1.0e628fafc12a9p-4 0x1.a6b8993b7f58cp-8",
         "0x1.3b253d1bc59e9p-7 0x1.a6b8993b7f58cp-8 -0x1.8180be2654f97p-9"),
    ],
}


def test_golden_bits_of_values_and_partials():
    fields = golden_fields()
    assert fields.keys() == GOLDEN.keys()
    for name, field in fields.items():
        for point, expected in zip(GOLDEN_POINTS, GOLDEN[name]):
            assert golden_bits(field, list(point)) == expected, (name, point)


def test_partials_over_inverse_entries_equal_the_numeric_layer():
    # the layer over graph nodes cannot see into a matrix inverse: it meets
    # each entry as a node that runs a numeric layer on it at the point,
    # once for a first partial and again inside a second one
    m, r = 2, 1
    inv = field_matrix_inverse([[parse_field(source, m, r) for source in row]
                                for row in GOLDEN_MATRIX])
    x1 = parse_field("x1", m, r)
    fields = [inv[0][1] * x1 + inv[1][0] * inv[1][0],
              -(inv[0][0] * inv[0][1]) - x1,
              inv[1][1] / (x1 + 2)]
    compared = 0
    for field in fields:
        for i in range(m + r):
            assert any(node.op is jets._layer_at
                       for node in jets._topological(field.partial(i)))
            numeric = layer_partial(field, i)
            pairs = [(field.partial(i), numeric)]
            pairs += [(field.partial(i).partial(j), layer_partial(numeric, j))
                      for j in range(m + r)]
            for point in GOLDEN_POINTS:
                for symbolic, layer in pairs:
                    assert symbolic(list(point)).hex() == \
                        layer(list(point)).hex(), (i, point)
                    compared += 1
    assert compared == 108


def test_sqrt_partial_near_zero_is_finite():
    # an unused higher derivative of sqrt once underflowed to a division by
    # zero here
    d = parse_field("sqrt(x1)", 1, 0).partial(0)
    mixed = parse_field("sqrt(x1)*y1", 1, 1).partial(0).partial(1)
    for x in (1e-130, 1e-200):
        expected = 0.5 / math.sqrt(x)
        assert d([x]) == pytest.approx(expected, rel=1e-15)
        assert mixed([x, 0.5]) == pytest.approx(expected, rel=1e-15)


def test_partial_is_interned_per_base_and_index():
    f = parse_field("x1^2*y1", 1, 1)
    assert f.partial(0) is f.partial(0)
    assert f.partial(0).partial(1) is f.partial(0).partial(1)
    assert f.partial(0) is not f.partial(1)


def test_repeated_partial_runs_its_base_once():
    calls = []
    g = counted_leaf(1, 1, calls)
    h = g.partial(0) * g.partial(0) + g.partial(0)
    assert h([0.5, 0.2]) == 2.0
    assert len(calls) == 1


def test_order_three_jet_of_four_coordinates_is_analytic():
    f = parse_field("x1^2*x2*y1 + sin(x1*y2)", 2, 2)
    x1, x2, y1, y2 = 0.4, -0.7, 1.3, 0.9
    jet = eval_jet(f, Point((x1, x2), (y1, y2)), 3)
    s, c = math.sin(x1 * y2), math.cos(x1 * y2)
    assert jet.value == pytest.approx(x1 * x1 * x2 * y1 + s)
    assert jet.first == pytest.approx(
        (2 * x1 * x2 * y1 + y2 * c, x1 * x1 * y1, x1 * x1 * x2, x1 * c))
    second = jet.second
    assert second[0][0] == pytest.approx(2 * x2 * y1 - y2 * y2 * s)
    assert second[0][1] == pytest.approx(2 * x1 * y1)
    assert second[0][3] == pytest.approx(c - x1 * y2 * s)
    assert second[3][3] == pytest.approx(-x1 * x1 * s)
    third = jet.third
    assert third[0][0][0] == pytest.approx(-y2 ** 3 * c)
    assert third[0][1][2] == pytest.approx(2 * x1)
    assert third[0][0][3] == pytest.approx(-2 * y2 * s - x1 * y2 * y2 * c)
    assert third[0][3][3] == pytest.approx(-2 * x1 * s - x1 * x1 * y2 * c)
    assert third[3][3][3] == pytest.approx(-x1 ** 3 * c)
    assert third[1][1][1] == 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                assert third[i][j][k] == third[k][i][j] == third[j][k][i]


def test_jet_of_a_partial_matches_the_higher_jet():
    f = parse_field("x1^2*x2*y1 + sin(x1*y2) + exp(x2*y1)", 2, 2)
    pt = Point((0.4, -0.7), (1.3, 0.9))
    low, high = eval_jet(f.partial(0), pt, 2), eval_jet(f, pt, 3)
    assert low.value == pytest.approx(high.first[0])
    for i in range(4):
        assert low.first[i] == pytest.approx(high.second[0][i])
        for j in range(4):
            assert low.second[i][j] == pytest.approx(high.third[0][i][j])
