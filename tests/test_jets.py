import math

import pytest

from algcalc.errors import DimensionMismatch, NonSmoothPoint
from algcalc.exprlang import parse_field
from algcalc.jets import (Point, ScalarField, compose, eval_jet, fd_partial,
                          t_abs, t_div, t_ln, t_pow, t_sqrt)

from conftest import box_samples


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
    assert f._memo is None


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
