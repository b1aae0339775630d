"""Edge semantics of ``ScalarField.partial``.

A partial is exactly what a first-order Taylor layer seeded along its
coordinate gives at the point: the same values and coefficients, bit for
bit, and the same errors.  Each test pins one place where a chain rule
over the float values of the field would differ from that layer.
"""

import pytest

from algcalc.errors import NonSmoothPoint
from algcalc.exprlang import parse_field
from algcalc.jets import Point, eval_jet


def test_sine_of_minus_zero_enters_a_product_as_plus_zero():
    # the layer's value of sin(-0.0) is (c + (-c)) * cos(c) + sin(c),
    # which is +0.0, so the coefficient 1.0 * sin(...) is +0.0 as well
    f = parse_field("sin(x2*-0.0)*x1", 2, 1)
    coords = [0.5, 0.7, 1.0]
    assert f(coords).hex() == "-0x0.0p+0"
    assert f.partial(0)(coords).hex() == "0x0.0p+0"
    jet = eval_jet(f, Point(coords[:2], coords[2:]), 1)
    assert jet.first[0].hex() == "0x0.0p+0"


def test_a_quotient_enters_a_product_as_a_times_the_reciprocal():
    # the layer divides through the reciprocal: x2/3 is x2 * (1/3) there,
    # one ulp away from the quotient at x2 = 2.5
    f = parse_field("x1*(x2/3)", 2, 1)
    coords = [0.5, 2.5, 1.0]
    assert (2.5 / 3).hex() == "0x1.aaaaaaaaaaaabp-1"
    assert f.partial(0)(coords).hex() == (2.5 * (1 / 3)).hex() \
        == "0x1.aaaaaaaaaaaaap-1"


def test_kinks_raise_their_own_message_before_a_division_by_zero():
    for name in ("sqrt", "abs"):
        f = parse_field(f"{name}(x1)*y1", 1, 1)
        with pytest.raises(NonSmoothPoint,
                           match=f"{name} is not differentiable at zero"):
            f.partial(0)([0.0, 2.0])
        assert f.partial(1)([0.0, 2.0]) == 0.0


def test_a_zero_coefficient_still_counts_as_a_term_at_a_kink():
    # along x2, x1*x2 has the term x1 even where x1 = 0, so abs raises
    # there although the true partial is 0
    f = parse_field("abs(x1*x2)", 2, 0)
    with pytest.raises(NonSmoothPoint,
                       match="abs is not differentiable at zero"):
        f.partial(1)([0.0, 0.5])
    with pytest.raises(NonSmoothPoint):
        f.partial(0)([0.5, 0.0])


def test_a_lazily_failing_constant_fails_its_partials():
    f = parse_field("x1 + 1/0", 1, 1)
    assert f.constant is None
    with pytest.raises(NonSmoothPoint, match="division by zero"):
        f.partial(0)([0.5, 1.0])
    # a coordinate outside the field's dependence set gives an exact zero
    # built without evaluating anything
    assert f.partial(1).constant == 0.0


def test_a_partial_fails_where_its_field_fails():
    # the partial along x1 needs no value of ln(x2), yet the layer
    # computes it, so the partial raises where the field does
    f = parse_field("x1 + ln(x2)", 2, 0)
    with pytest.raises(NonSmoothPoint, match="ln of a non-positive"):
        f.partial(0)([0.5, -1.0])
    assert f.partial(0)([0.5, 1.0]) == 1.0


def test_a_variable_exponent_takes_the_exp_ln_path_in_the_layer():
    # at x2 = 2 the value is an integer power of a negative base, but the
    # layer raises the exponent of a negative base through exp and ln
    f = parse_field("pow(x1, x2)", 2, 0)
    assert f([-1.5, 2.0]) == 2.25
    with pytest.raises(NonSmoothPoint, match="non-integer power"):
        f.partial(0)([-1.5, 2.0])


def test_an_overflowing_real_power_names_its_base_and_exponent():
    f = parse_field("pow(x1, 2.5)*y1", 1, 1)
    with pytest.raises(Exception, match=r"pow\(1e\+300, 2\.5\) overflows"):
        f([1e300, 1.0])
    with pytest.raises(Exception, match=r"pow\(1e\+300, 2\.5\) overflows"):
        f.partial(1)([1e300, 1.0])
