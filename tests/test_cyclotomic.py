"""Cyclotomic polynomials, trace polynomials, and admissible-order scans."""

from fractions import Fraction as F

import pytest

import helpers
from parabkit.cyclotomic import (
    InvalidThresholdError,
    NotMonicError,
    admissible_orders,
    cyclotomic_poly,
    divisors,
    euler_phi,
    inverse_totient_upto,
    is_cyclotomic_product,
    moebius,
    trace_polynomial,
)
from parabkit.polyring import IntegerPoly, RationalInterval, parse_poly, sturm_count


def test_arithmetic_functions():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert [moebius(n) for n in range(1, 11)] == [1, -1, -1, 0, -1, 1, -1, 0, 0, 1]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]
    # multiplicativity spot checks on coprime pairs
    assert euler_phi(35) == euler_phi(5) * euler_phi(7)
    assert moebius(30) == moebius(2) * moebius(3) * moebius(5)


def test_cyclotomic_small_values():
    assert cyclotomic_poly(1) == IntegerPoly((-1, 1))
    assert cyclotomic_poly(2) == IntegerPoly((1, 1))
    assert cyclotomic_poly(3) == IntegerPoly((1, 1, 1))
    assert cyclotomic_poly(4) == IntegerPoly((1, 0, 1))
    assert cyclotomic_poly(6) == IntegerPoly((1, -1, 1))
    assert cyclotomic_poly(12) == IntegerPoly((1, 0, -1, 0, 1))


def test_cyclotomic_degrees_and_product():
    for n in range(1, 101):
        assert cyclotomic_poly(n).degree == euler_phi(n), n
    helpers.check_cyclotomic_product(100)


def test_cyclotomic_105_has_coefficient_two():
    # first index whose cyclotomic polynomial has a coefficient of modulus 2
    assert max(abs(a) for a in cyclotomic_poly(105).coeffs) == 2
    for n in range(1, 105):
        assert max(abs(a) for a in cyclotomic_poly(n).coeffs) == 1, n


def test_trace_polynomial_small_cases():
    assert trace_polynomial(1) == IntegerPoly((-2, 1))
    assert trace_polynomial(2) == IntegerPoly((2, 1))
    assert trace_polynomial(3) == IntegerPoly((1, 1))
    assert trace_polynomial(4) == IntegerPoly((0, 1))
    assert trace_polynomial(5) == IntegerPoly((-1, 1, 1))
    assert trace_polynomial(6) == IntegerPoly((-1, 1))


def test_trace_identity():
    helpers.check_trace_identity(50)


def test_trace_polynomial_roots_live_in_window():
    # all roots of T_n are 2cos(2 pi k / n), hence inside [-2, 2]
    window = RationalInterval(F(-2), F(2))
    for n in range(1, 51):
        tn = trace_polynomial(n)
        assert sturm_count(tn, window) == tn.degree, n


def test_is_cyclotomic_product_positives():
    w = is_cyclotomic_product(IntegerPoly((1, 1, 2, 1, 1)))
    assert w.is_product and w.orders == (3, 4)
    w = is_cyclotomic_product(cyclotomic_poly(7))
    assert w.is_product and w.orders == (7,)
    # repeated factors report the multiset of orders
    p = cyclotomic_poly(1) * cyclotomic_poly(1) * cyclotomic_poly(2)
    w = is_cyclotomic_product(p)
    assert w.is_product and w.orders == (1, 1, 2)


def test_is_cyclotomic_product_negatives():
    assert not is_cyclotomic_product(IntegerPoly((-1, -1, 1))).is_product
    assert not is_cyclotomic_product(IntegerPoly((-3, 0, 1))).is_product
    assert not is_cyclotomic_product(IntegerPoly((-2, 1))).is_product
    assert not is_cyclotomic_product(IntegerPoly((2, 1))).is_product
    with pytest.raises(NotMonicError):
        is_cyclotomic_product(IntegerPoly((1, 0, 2)))


def test_inverse_totient():
    assert tuple(inverse_totient_upto(1)) == (1, 2)
    assert tuple(inverse_totient_upto(2)) == (1, 2, 3, 4, 6)
    assert tuple(inverse_totient_upto(4)) == (1, 2, 3, 4, 5, 6, 8, 10, 12)


def test_admissible_orders_canonical_cases():
    assert tuple(admissible_orders(F(0), False)) == (2, 3, 4)
    assert tuple(admissible_orders(F(0), True)) == (2, 3)
    assert tuple(admissible_orders(F(1, 2), True)) == (2, 3, 4, 5)
    assert tuple(admissible_orders(F(1, 2), False)) == (2, 3, 4, 5, 6)


def test_admissible_orders_one_is_unbounded_scan():
    orders = tuple(admissible_orders(F(1), False, scan_cap=8))
    assert orders == (1, 2, 3, 4, 5, 6, 7, 8)


def test_admissible_orders_rejects_thresholds_past_two():
    with pytest.raises(InvalidThresholdError):
        admissible_orders(F(2), False)
    with pytest.raises(InvalidThresholdError):
        admissible_orders(F(5, 2), True)


def test_order_set_behavior():
    orders = admissible_orders(F(0), False)
    assert 3 in orders and 5 not in orders
    assert list(orders) == [2, 3, 4]
    assert len(orders) == 3
    assert str(orders) == "{2, 3, 4}"
