"""The value-type contract: attribute assignment raises on every value class,
and the containers that compare by value but define no hash are unhashable."""

from fractions import Fraction

import numpy as np
import pytest

from starmetric.berry import MoyalConnection
from starmetric.metric import CertReport, HamiltonianSpec, PDEOperator
from starmetric.phasepoly import CouplingSeries, PhasePoly
from starmetric.scalars import GaussianRational, ParamPoly, RatFunc2
from starmetric.star import ExpQuadForm
from starmetric.weyl import TorusFunction


def _ratfunc():
    q1, q2 = ParamPoly.generators("q1", "q2")
    return RatFunc2(q1, q2 * q2 + q1 * 4)


# (class, factory of one instance, one of its fields)
VALUES = [
    (GaussianRational, lambda: GaussianRational(1, 2), "a"),
    (ParamPoly, lambda: ParamPoly.generators("a")[0], "terms"),
    (RatFunc2, _ratfunc, "num"),
    (PhasePoly, PhasePoly.x, "terms"),
    (CouplingSeries, lambda: CouplingSeries("g", [PhasePoly.one(), PhasePoly.x()]), "coeffs"),
    (ExpQuadForm, lambda: ExpQuadForm.pure_exponent(PhasePoly.x()), "exponent"),
    (HamiltonianSpec, lambda: HamiltonianSpec(PhasePoly.p(2), ("g", PhasePoly.x())), "v"),
    (PDEOperator, lambda: PDEOperator({(0, 1): PhasePoly.x()}), "coeffs"),
    (TorusFunction, lambda: TorusFunction.basis(3, 1, 2), "fourier"),
    (CertReport, lambda: CertReport(True, False, 3), "order"),
    (MoyalConnection, lambda: MoyalConnection(*[_ratfunc()] * 4), "t2"),
]

UNHASHABLE = (PhasePoly, CouplingSeries, ExpQuadForm, PDEOperator, RatFunc2)


@pytest.mark.parametrize("cls, make, field", VALUES, ids=[c.__name__ for c, _, _ in VALUES])
class TestImmutable:
    def test_field_cannot_be_assigned(self, cls, make, field):
        value = make()
        assert type(value) is cls
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        assert getattr(value, field) is before

    def test_new_attribute_cannot_be_added(self, cls, make, field):
        value = make()
        with pytest.raises(AttributeError):
            value.extra = 1
        assert not hasattr(value, "extra")


@pytest.mark.parametrize("cls", UNHASHABLE, ids=[c.__name__ for c in UNHASHABLE])
def test_unhashable(cls):
    (make,) = [m for c, m, _ in VALUES if c is cls]
    with pytest.raises(TypeError):
        hash(make())


def test_hashable_scalars_hash_by_value():
    assert hash(GaussianRational(1, 2)) == hash(GaussianRational("2/2", "4/2"))
    a = ParamPoly.generators("a")[0]
    assert hash(a * 2) == hash(a + a)


@pytest.mark.parametrize(
    "value, equal",
    [
        (GaussianRational(2), 2),
        (GaussianRational(-3, 0), -3),
        (GaussianRational("1/2"), Fraction(1, 2)),
        (ParamPoly.constant(("a",), 2), 2),
        (ParamPoly.constant(("a", "b"), Fraction(-7, 3)), Fraction(-7, 3)),
        (ParamPoly.constant(("a",), GaussianRational(1, 2)), GaussianRational(1, 2)),
        (ParamPoly(("a",), {}), 0),
    ],
)
def test_hash_agrees_with_equality(value, equal):
    assert value == equal
    assert hash(value) == hash(equal)
    assert value in {equal} and equal in {value}


def test_torus_function_copies_its_array():
    grid = np.zeros((2, 2), dtype=complex)
    t = TorusFunction(2, grid)
    grid[0, 0] = 5
    assert t.fourier[0, 0] == 0


def test_torus_function_array_is_read_only():
    t = TorusFunction.basis(2, 0, 0)
    with pytest.raises(ValueError):
        t.fourier[1, 1] = 3
    assert t.fourier[1, 1] == 0


def test_cert_report_repr_and_json_order():
    report = CertReport(True, False, 3)
    assert repr(report) == "CertReport(hermitian=True, positive=False, order=3)"
    assert list(report.to_json().items()) == [("hermitian", True), ("positive", False), ("order", 3)]

