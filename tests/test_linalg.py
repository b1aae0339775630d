import math

import pytest

from algcalc import linalg
from algcalc.errors import SingularMetric
from algcalc.exprlang import parse_field


def test_invert_and_residual():
    a = [[4.0, 1.0], [2.0, 3.0]]
    inv = linalg.invert(a)
    assert linalg.residual_identity(a, inv) < 1e-14


def test_residual_identity_keeps_a_late_nan():
    identity = [[1.0, 0.0], [0.0, 1.0]]
    assert linalg.residual_identity(identity, identity) == 0.0
    value = linalg.residual_identity([[1.0, 0.0], [float("nan"), 1.0]],
                                     identity)
    assert math.isnan(value)


def test_invert_singular_raises():
    with pytest.raises(linalg.SingularMatrixError):
        linalg.invert([[1.0, 2.0], [2.0, 4.0]])


def test_invert_rejects_non_finite_entries():
    with pytest.raises(linalg.SingularMatrixError, match=r"entry \[1\]\[0\]"):
        linalg.invert([[1.0, 0.0], [1e308 * 10, 1.0]])
    m, r = 1, 0
    inv = linalg.field_matrix_inverse([[parse_field("1e308*10", m, r)]],
                                      exc=SingularMetric)
    with pytest.raises(SingularMetric, match=r"not finite at x=\[0\.5\]"):
        float(inv[0][0]([0.5]))


def test_rank():
    assert linalg.rank([[1.0, 2.0], [2.0, 4.0]]) == 1
    assert linalg.rank([[1.0, 0.0], [0.0, 1e-3]]) == 2
    assert linalg.rank([[0.0, 0.0], [0.0, 0.0]]) == 0


def test_signature():
    assert linalg.signature([[2.0, 0.0], [0.0, -3.0]]) == (1, 1, 0)
    assert linalg.signature([[1.0, 1.0], [1.0, 1.0]]) == (1, 0, 1)
    # indefinite with zero diagonal handled by diagonal pivoting fallback
    pos, neg, null = linalg.signature([[1e-20, 1.0], [1.0, 1e-20]])
    assert null == 2 or (pos, neg) == (1, 1)


def test_field_matrix_inverse_carries_derivatives():
    m, r = 1, 0
    mat = [[parse_field("1 + x1^2", m, r)]]
    inv = linalg.field_matrix_inverse(mat)
    x = 0.7
    assert float(inv[0][0]([x])) == pytest.approx(1.0 / (1 + x * x))
    d = inv[0][0].partial(0)
    assert float(d([x])) == pytest.approx(-2 * x / (1 + x * x) ** 2)


def test_field_matrix_inverse_maps_exception():
    m, r = 1, 0
    mat = [[parse_field("x1", m, r)]]
    inv = linalg.field_matrix_inverse(mat, exc=SingularMetric)
    with pytest.raises(SingularMetric):
        float(inv[0][0]([0.0]))
