"""The record classes: slotted, immutable, with dataclass-style init and repr
and equality and hash on the tuple of their compared fields."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from parabkit.algebraic import RealAlgebraic, from_rational
from parabkit.classify import Certificate, ClassificationReport, Environment
from parabkit.cyclotomic import OrderSet
from parabkit.dynamics import (
    AttractingCycleCertificate,
    CycleCertificate,
    ParabolicVerdict,
    ParityCertificate,
    RealBehavior,
)
from parabkit.polyring import IntegerPoly, IteratedMapPoly, RationalInterval

_SQRT2 = RealAlgebraic(IntegerPoly((-2, 0, 1)), RationalInterval(1, 2, True, True))

# one instance of each record class, with its repr as the dataclass
# versions of these classes printed it
_RECORDS = [
    (IntegerPoly((1, -2, 0, 3)), "IntegerPoly(coeffs=(1, -2, 0, 3))"),
    (
        RationalInterval(F(-1, 2), 3, True),
        "RationalInterval(lo=Fraction(-1, 2), hi=Fraction(3, 1), lo_strict=True, hi_strict=False)",
    ),
    (
        IteratedMapPoly((IntegerPoly((0, 1)), 0, 1)),
        "IteratedMapPoly(coeffs_in_z=(IntegerPoly(coeffs=(0, 1)), IntegerPoly(coeffs=()),"
        " IntegerPoly(coeffs=(1,))))",
    ),
    (OrderSet((6, 1, 2, 2)), "OrderSet(orders=(1, 2, 6))"),
    (_SQRT2, "RealAlgebraic(x^2-2@[1,2])"),
    (
        CycleCertificate(2, IntegerPoly((-1, 4, 4)), F(-5, 4), F(-1)),
        "CycleCertificate(period=2, cycle_poly=IntegerPoly(coeffs=(-1, 4, 4)),"
        " parameter=Fraction(-5, 4), multiplier=Fraction(-1, 1))",
    ),
    (RealBehavior("ParabolicLandmark", (1, 2)), "RealBehavior(tag='ParabolicLandmark', detail=(1, 2))"),
    (
        ParityCertificate(3, 1, 1, 1),
        "ParityCertificate(n=3, value_at_0_mod2=1, value_at_minus6_mod2=1, cross_check_disc_z2n=1)",
    ),
    (ParabolicVerdict("parabolic", 4), "ParabolicVerdict(kind='parabolic', n=4)"),
    (
        AttractingCycleCertificate(
            4, _SQRT2, RationalInterval(0, F(1, 8)), RationalInterval(1, 2), F(-1, 2), F(1, 2), F(3, 4)
        ),
        "AttractingCycleCertificate(period=4, parameter=RealAlgebraic(x^2-2@[1,2]),"
        " trap=RationalInterval(lo=Fraction(0, 1), hi=Fraction(1, 8), lo_strict=False, hi_strict=False),"
        " enclosure=RationalInterval(lo=Fraction(1, 1), hi=Fraction(2, 1), lo_strict=False, hi_strict=False),"
        " lo=Fraction(-1, 2), hi=Fraction(1, 2), modulus_bound=Fraction(3, 4))",
    ),
    (
        Certificate(from_rational(F(-2)), "confirmed", "pcf", 0),
        "Certificate(candidate=RealAlgebraic(-2), verdict='confirmed', reason='pcf',"
        " checked_up_to=0, modulus_bound=None)",
    ),
    (Environment(5, 17), "Environment(nmax=5, runtime_ms=17)"),
    (
        ClassificationReport("prop1", (F(-2),), (), Environment(0, 3)),
        "ClassificationReport(proposition='prop1', parameters=(Fraction(-2, 1),),"
        " certificates=(), environment=Environment(nmax=0, runtime_ms=3))",
    ),
]


@pytest.mark.parametrize("record, text", _RECORDS, ids=lambda r: type(r).__name__)
def test_record_semantics(record, text):
    cls = type(record)
    fields = cls.__slots__
    assert repr(record) == text
    assert not hasattr(record, "__dict__")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    values = [getattr(record, name) for name in fields]
    assert cls(*values) == record == cls(**dict(zip(fields, values)))
    assert copy.copy(record) == record == pickle.loads(pickle.dumps(record))
    if cls is RealAlgebraic:
        assert hash(record) == hash(record.minpoly.coeffs)
    else:
        compared = values[:1] if cls is Environment else values
        assert hash(record) == hash(tuple(compared))
    for other, _ in _RECORDS:
        assert (record == other) is (other is record)


def test_environment_runtime_is_not_compared():
    assert Environment(5, 1) == Environment(5, 2)
    assert hash(Environment(5, 1)) == hash(Environment(5, 2))
    assert Environment(5, 1) != Environment(4, 1)


@pytest.mark.parametrize(
    "args, kwargs",
    [((), {}), ((1,), {}), ((1, 2, 3), {}), ((1,), {"nmax": 2}), ((1, 2), {"other": 3})],
)
def test_record_init_refuses_a_bad_call(args, kwargs):
    with pytest.raises(TypeError):
        Environment(*args, **kwargs)
    assert RealBehavior("x") == RealBehavior(tag="x", detail=())
