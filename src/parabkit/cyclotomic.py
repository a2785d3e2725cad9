"""Cyclotomic and trace polynomials, and the root-of-unity decision.

The key reduction implemented here: an algebraic integer all of whose
conjugates lie on the unit circle is a root of unity, so a monic integer
polynomial has all roots on the unit circle exactly when it is a product of
cyclotomic polynomials Phi_n. Real parts of roots of unity are handled
through the trace polynomials T_n, the minimal polynomials of 2*cos(2*pi*k/n)
over gcd(k, n) = 1, obtained from Phi_n by the substitution b = x + 1/x.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from .polyring import (
    ConstantPolynomialError,
    IntegerPoly,
    NotDivisibleError,
    ParabkitError,
    Rat,
    RationalInterval,
    _Record,
    sturm_count,
)

__all__ = [
    "NotMonicError",
    "InvalidThresholdError",
    "OrderSet",
    "CyclotomicWitness",
    "euler_phi",
    "moebius",
    "divisors",
    "moebius_product",
    "cyclotomic_poly",
    "trace_polynomial",
    "is_cyclotomic_product",
    "inverse_totient_upto",
    "admissible_orders",
    "ADMISSIBLE_SCAN_CAP",
]


class NotMonicError(ParabkitError):
    pass


class InvalidThresholdError(ParabkitError):
    pass


class OrderSet(_Record):
    """Ascending, duplicate-free collection of positive integers."""

    orders: tuple = ()

    def __init__(self, orders=()):
        cleaned = sorted(set(int(n) for n in orders))
        if cleaned and cleaned[0] < 1:
            raise ValueError("orders must be positive")
        object.__setattr__(self, "orders", tuple(cleaned))

    def __iter__(self):
        return iter(self.orders)

    def __contains__(self, n) -> bool:
        return n in self.orders

    def __len__(self) -> int:
        return len(self.orders)

    def __str__(self) -> str:
        return "{" + ", ".join(str(n) for n in self.orders) + "}"


class CyclotomicWitness(NamedTuple):
    is_product: bool
    orders: tuple


def _factorize(n: int):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> euler_phi(12)
    4
    """
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    result = n
    for p, _ in _factorize(n):
        result = result // p * (p - 1)
    return result


@lru_cache(maxsize=None)
def moebius(n: int) -> int:
    if n < 1:
        raise ValueError("moebius needs n >= 1")
    factors = _factorize(n)
    if any(e > 1 for _, e in factors):
        return 0
    return -1 if len(factors) % 2 else 1


def divisors(n: int):
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def moebius_product(n: int, factor: Callable[[int], IntegerPoly]) -> IntegerPoly:
    """The product of factor(d)^mu(n/d) over d | n, an exact division in Z[x].

    >>> moebius_product(6, lambda d: IntegerPoly((-1,) + (0,) * (d - 1) + (1,))).coeffs
    (1, -1, 1)
    """
    numerator = IntegerPoly.one()
    denominator = IntegerPoly.one()
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 1:
            numerator = numerator * factor(d)
        elif mu == -1:
            denominator = denominator * factor(d)
    return numerator.divide_exact(denominator)


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> IntegerPoly:
    """The n-th cyclotomic polynomial, via prod (x^d - 1)^mu(n/d) over d | n.

    >>> cyclotomic_poly(4).coeffs
    (1, 0, 1)
    """
    if n < 1:
        raise ValueError("cyclotomic_poly needs n >= 1")
    return moebius_product(n, lambda d: IntegerPoly((-1,) + (0,) * (d - 1) + (1,)))  # x^d - 1


@lru_cache(maxsize=None)
def trace_polynomial(n: int) -> IntegerPoly:
    """Minimal polynomial T_n of 2*cos(2*pi*k/n) over gcd(k, n) = 1.

    For n >= 3 this is the monic degree phi(n)/2 polynomial with
    Phi_n(x) = x^(phi(n)/2) * T_n(x + 1/x); the edge orders are T_1 = b - 2
    and T_2 = b + 2. Computed by collecting the palindromic coefficients of
    Phi_n against p_k(b) = x^k + x^(-k), which satisfies the recurrence
    p_k = b*p_(k-1) - p_(k-2) with p_0 = 2, p_1 = b.
    """
    if n == 1:
        return IntegerPoly((-2, 1))
    if n == 2:
        return IntegerPoly((2, 1))
    phi = cyclotomic_poly(n)
    m = phi.degree // 2
    b = IntegerPoly.x()
    p_prev = IntegerPoly.constant(2)
    p_cur = b
    total = IntegerPoly.constant(phi.coeff(m))
    for k in range(1, m + 1):
        total = total + p_cur * phi.coeff(m + k)
        p_prev, p_cur = p_cur, b * p_cur - p_prev
    return total


def is_cyclotomic_product(p: IntegerPoly) -> CyclotomicWitness:
    """Decide whether p is a product of cyclotomic polynomials.

    Trial exact division by every Phi_n with phi(n) <= deg, repeated until
    the quotient reaches 1 or nothing divides. On success the witness lists
    the orders with multiplicity, ascending.

    >>> is_cyclotomic_product(IntegerPoly((1, 1, 1)))
    CyclotomicWitness(is_product=True, orders=(3,))
    """
    if p.is_zero or p.degree < 1:
        raise ConstantPolynomialError("decision needs a nonzero polynomial of degree >= 1")
    if not p.is_monic:
        raise NotMonicError(f"{p} is not monic")
    orders = []
    q = p
    while q.degree >= 1:
        progressed = False
        for n in inverse_totient_upto(q.degree):
            phi_n = cyclotomic_poly(n)
            if phi_n.degree > q.degree:
                continue
            try:
                q = q.divide_exact(phi_n)
            except NotDivisibleError:
                continue
            orders.append(n)
            progressed = True
            break
        if not progressed:
            return CyclotomicWitness(False, ())
    return CyclotomicWitness(True, tuple(sorted(orders)))


@lru_cache(maxsize=None)
def inverse_totient_upto(d: int) -> OrderSet:
    """All n with phi(n) <= d; finite because phi(n) >= sqrt(n/2).

    >>> inverse_totient_upto(2).orders
    (1, 2, 3, 4, 6)
    """
    if d < 1:
        raise ValueError("inverse_totient_upto needs d >= 1")
    hits = [n for n in range(1, 2 * d * d + 1) if euler_phi(n) <= d]
    return OrderSet(tuple(hits))


ADMISSIBLE_SCAN_CAP = 64


def admissible_orders(t: Rat, strict: bool, scan_cap: int = ADMISSIBLE_SCAN_CAP) -> OrderSet:
    """Orders n whose trace polynomial has every root < 2t (or <= 2t).

    The forbidden region is [2t, 2] (strict) or (2t, 2] (non-strict); an
    order is admissible when T_n has no root there, decided by sturm_count.
    The scan over n terminates on its own for t < 1: for n >= 3 the largest
    root of T_n is 2*cos(2*pi/n), strictly increasing in n, so the first
    failure past n = 2 is final. The hard cap bounds the scan when t = 1
    makes every order admissible.
    """
    t = Fraction(t)
    if t > 1:
        raise InvalidThresholdError(f"threshold {t} exceeds 1")
    two_t = 2 * t
    hits = []
    for n in range(1, scan_cap + 1):
        tn = trace_polynomial(n)
        if two_t == 2:
            forbidden = None if not strict else RationalInterval(2, 2)
        else:
            forbidden = RationalInterval(two_t, 2, lo_strict=not strict, hi_strict=False)
        bad = sturm_count(tn, forbidden) if forbidden is not None else 0
        if bad == 0:
            hits.append(n)
        elif n >= 3:
            break
    return OrderSet(tuple(hits))
