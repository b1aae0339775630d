import math

import pytest

from algcalc.errors import (ArityError, ExprSyntaxError, GeometryError,
                            UnknownIdentifier)
from algcalc.exprlang import parse, parse_field, to_field, to_source


def roundtrip(source, dims=(2, 2)):
    tree = parse(source, dims)
    printed = to_source(tree)
    assert parse(printed, dims) == tree
    return tree, printed


def test_precedence_and_associativity():
    tree, _ = roundtrip("1 + 2*3^2")
    f = to_field(tree, 2, 2)
    assert float(f([0.0] * 4)) == pytest.approx(19.0)
    # '^' is right-associative
    f = parse_field("2^3^2", 2, 2)
    assert float(f([0.0] * 4)) == pytest.approx(512.0)
    # '^' binds tighter than unary minus
    f = parse_field("-2^2", 2, 2)
    assert float(f([0.0] * 4)) == pytest.approx(-4.0)


def test_variables_and_constants():
    f = parse_field("pi*x1 + e*y2", 2, 2)
    assert float(f([1.0, 0.0, 0.0, 1.0])) == pytest.approx(math.pi + math.e)
    tree = parse("x2*y1", (2, 2))
    assert to_field(tree, 2, 2).deps == {1, 2}


def test_unknown_variable_reports_offset():
    with pytest.raises(UnknownIdentifier) as err:
        parse("x1 + x3", (2, 2))
    assert err.value.name == "x3"
    assert err.value.offset == 5


def test_unknown_function():
    with pytest.raises(UnknownIdentifier):
        parse("sinh(x1)", (2, 2))


def test_arity_error():
    with pytest.raises(ArityError):
        parse("pow(x1)", (2, 2))
    with pytest.raises(ArityError):
        parse("sin(x1, x2)", (2, 2))


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("x1 + ", (2, 2))
    assert err.value.offset == 5
    with pytest.raises(ExprSyntaxError) as err:
        parse("(x1 + y1", (2, 2))
    assert err.value.offset == 8
    with pytest.raises(ExprSyntaxError):
        parse("x1 $ y1", (2, 2))
    with pytest.raises(ExprSyntaxError):
        parse("x1 x2", (2, 2))


def test_numeric_literals():
    f = parse_field("1e-3 + 2.5E2 + .5", 1, 0)
    assert float(f([0.0])) == pytest.approx(0.001 + 250.0 + 0.5)


def test_print_parse_fixpoint_on_tricky_shapes():
    cases = [
        "-(x1 + y1)^2",
        "x1 - (x2 - y1)",
        "x1/(x2*y1)",
        "(x1 + x2)*(y1 - y2)",
        "-sin(-x1)",
        "2^-x1",
        "pow(x1 + 1, 2)/sqrt(4 + y2^2)",
    ]
    for source in cases:
        tree, printed = roundtrip(source)
        f0 = to_field(tree, 2, 2)
        f1 = parse_field(printed, 2, 2)
        coords = [0.3, -0.7, 1.1, 0.4]
        assert float(f0(coords)) == pytest.approx(float(f1(coords)))


def test_whitespace_is_insignificant():
    assert parse(" x1+y1 ", (2, 2)) == parse("x1 + y1", (2, 2))


def test_variable_free_expression_is_constant():
    cases = (("0.1234", 0.1234), ("0", 0.0), ("-0", -0.0),
             ("2*pi", 2 * math.pi),
             ("exp(1) - sin(2)/3", math.exp(1.0) - math.sin(2.0) / 3.0))
    for source, value in cases:
        f = parse_field(source, 2, 1)
        assert f.constant is not None
        assert f.constant.hex() == value.hex()
        assert f([0.3, -0.7, 1.1]).hex() == value.hex()
    assert parse_field("x1 - x1", 2, 1).constant is None


def test_failing_constant_expression_raises_when_evaluated():
    for source, error in (("1/0", "division by zero"),
                          ("ln(-1)", "non-positive"),
                          ("exp(1000)", "overflows")):
        f = parse_field(source, 1, 1)
        assert f.constant is None
        with pytest.raises(GeometryError, match=error):
            f([0.5, 0.5])
    f = parse_field("sin(1e400)", 1, 1)
    assert f.constant is None
    with pytest.raises(ValueError):
        f([0.5, 0.5])
