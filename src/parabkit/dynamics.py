"""Iteration of the quadratic family f_c(z) = z^2 + c with exact certificates.

Symbolic iterates and period polynomials live in ``IteratedMapPoly`` (monic in
z over Z[c]).  From those this module derives the discriminant polynomials
P_n(b), defined by disc_z(f_c^n(z) - z) = P_n(4c), for ``pn`` and for an
algebraic parameter.  At a rational parameter c, ``point_discriminant``
gives the value P_n(4c) as one univariate integer discriminant and builds
no P_n; the bounded parabolicity search and the parity certificates at
b = 0 and b = -6 read it.  Dynatomic polynomials, exact cycle multipliers,
orbit tests for rational parameters, and one numeric search for attracting
cycles that is certified by interval arithmetic complete the module.

Everything except ``find_attracting_cycle_numeric`` is exact integer or
rational arithmetic.  The numeric search works on closed intervals whose
ends are Python integers scaled by 2^-bits, rounded outward at every
product (lower ends down, upper ends up), so it uses no floating point and
no global state; it only reports a cycle when a containment argument proves
one exists and the multiplier bound is conclusive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .algebraic import RealAlgebraic, affine_transform, sign_at
from .cyclotomic import divisors, moebius
from .polyring import (
    IntegerPoly,
    IteratedMapPoly,
    ParabkitError,
    Rat,
    RationalPoly,
    discriminant,
    discriminant_in_z,
)

__all__ = [
    "CapExceededError",
    "IntegralityViolationError",
    "NotAFactorError",
    "MultiplierMismatchError",
    "DegreeMismatchError",
    "UnresolvedError",
    "NoConvergenceError",
    "PrecisionInsufficientError",
    "CycleCertificate",
    "RealBehavior",
    "ParityCertificate",
    "ParabolicVerdict",
    "PcfResult",
    "NumericCycleCertificate",
    "ITERATE_CAP",
    "DISCRIMINANT_CAP",
    "NUMERIC_PERIOD_CAP",
    "ESCAPE_BUDGET",
    "iterate_map",
    "period_poly",
    "discriminant_Pn",
    "point_discriminant",
    "parity_certificate",
    "dynatomic_poly",
    "cycle_multiplier",
    "verify_cycle",
    "is_pcf_rational",
    "escapes",
    "real_behavior",
    "is_parabolic_up_to",
    "find_attracting_cycle_numeric",
]

ITERATE_CAP = 6
DISCRIMINANT_CAP = 5
NUMERIC_PERIOD_CAP = 8
ESCAPE_BUDGET = 1000

# Orbit denominators double in bit length every step, so a non-integer
# bounded orbit exhausts memory long before any plausible iteration budget.
# The guard turns that into a clean UnresolvedError.
_ESCAPE_BIT_GUARD = 65536

_NUMERIC_BUDGET = 50000
_CONTAINMENT_MULTS = (8, 32, 128, 1024)


class CapExceededError(ParabkitError):
    """An iteration or degree cap was exceeded."""


class IntegralityViolationError(ParabkitError):
    """The substitution c = b/4 failed to clear denominators.

    This would falsify the identity disc_z(f_c^n(z) - z) = P_n(4c) and must
    never happen; it is checked anyway.
    """


class NotAFactorError(ParabkitError):
    """The claimed cycle polynomial does not divide f_c^n(z) - z."""


class MultiplierMismatchError(ParabkitError):
    """The exact cycle multiplier differs from the expected value."""


class DegreeMismatchError(ParabkitError):
    """The cycle polynomial degree does not equal the claimed period."""


class UnresolvedError(ParabkitError):
    """An orbit question could not be settled within the resource budget."""


class NoConvergenceError(ParabkitError):
    """The numeric orbit did not stabilize within the iteration budget."""


class PrecisionInsufficientError(ParabkitError):
    """The interval certificate is inconclusive at the working precision.

    ``modulus_upper`` is the smallest multiplier bound (an exact dyadic
    ``Fraction``) among the containment boxes tried, or None when no box
    was invariant.
    """

    def __init__(self, message: str, modulus_upper: Optional[Fraction] = None):
        super().__init__(message)
        self.modulus_upper = modulus_upper


@dataclass(frozen=True, slots=True)
class CycleCertificate:
    """Exact witness that g's roots form a cycle of f_c with known multiplier."""

    period: int
    cycle_poly: IntegerPoly
    parameter: Fraction
    multiplier: Fraction


@dataclass(frozen=True, slots=True)
class RealBehavior:
    """Tagged classification of the real critical orbit of f_c.

    ``detail`` depends on the tag: (period, multiplier root order) for
    "ParabolicLandmark", (preperiod, period) for "PostcriticallyFinite",
    and () otherwise.
    """

    tag: str
    detail: tuple = ()


ESCAPES_TO_INFINITY = "EscapesToInfinity"
ATTRACTING_FIXED_POINT = "AttractingFixedPoint"
ATTRACTING_TWO_CYCLE = "AttractingTwoCycle"
PARABOLIC_LANDMARK = "ParabolicLandmark"
POSTCRITICALLY_FINITE = "PostcriticallyFinite"
CORE_BOUNDED_UNRESOLVED = "CoreBoundedUnresolved"


@dataclass(frozen=True, slots=True)
class ParityCertificate:
    """Mod-2 record showing P_n cannot vanish at b = 0 or b = -6.

    Each field is a bit; a valid certificate has all three equal to 1.
    ``cross_check_disc_z2n`` records that P_n(0) equals the closed form of
    disc(z^(2^n) - z) proved in ``_disc_z2n_closed_form``.
    """

    n: int
    value_at_0_mod2: int
    value_at_minus6_mod2: int
    cross_check_disc_z2n: int

    @property
    def is_valid(self) -> bool:
        return (
            self.value_at_0_mod2 == 1
            and self.value_at_minus6_mod2 == 1
            and self.cross_check_disc_z2n == 1
        )


@dataclass(frozen=True, slots=True)
class ParabolicVerdict:
    """Outcome of a bounded parabolicity search.

    ``kind`` is "parabolic" with n the least witnessing period index, or
    "not-up-to-bound" with n the bound that was exhausted.
    """

    kind: str
    n: int

    @property
    def is_parabolic(self) -> bool:
        return self.kind == "parabolic"

    def __str__(self) -> str:
        if self.is_parabolic:
            return f"Parabolic({self.n})"
        return f"NotUpToBound({self.n})"


class PcfResult(NamedTuple):
    """Answer of the exact critical-orbit finiteness test."""

    is_finite: bool
    preperiod: int
    period: int


@dataclass(frozen=True, slots=True)
class NumericCycleCertificate:
    """Interval-certified attracting cycle.

    ``points`` are approximate cycle points (midpoints of the certified
    boxes, in orbit order) and ``multiplier_estimate`` is the midpoint of the
    multiplier box.  ``modulus_upper`` is a rigorous upper bound on the cycle
    multiplier modulus; the certificate is only issued when it is below 1.
    All three hold exact dyadic ``Fraction`` values.  ``exact_period`` is
    True when the boxes are pairwise disjoint, which proves the cycle period
    is exactly ``period`` rather than a proper divisor of it.
    """

    period: int
    points: tuple
    multiplier_estimate: Fraction
    modulus_upper: Fraction
    exact_period: bool
    precision: int


@lru_cache(maxsize=None)
def _iterate(n: int) -> IteratedMapPoly:
    f = IteratedMapPoly.z() * IteratedMapPoly.z() + IteratedMapPoly.c()
    if n == 1:
        return f
    prev = _iterate(n - 1)
    return prev * prev + IteratedMapPoly.c()


def iterate_map(n: int) -> IteratedMapPoly:
    """Return the n-fold composition of f_c(z) = z^2 + c over Z[c].

    >>> iterate_map(3).degree_in_z
    8
    >>> iterate_map(2).leading_in_z.coeffs
    (1,)
    """
    if n < 1:
        raise ValueError("iteration count must be at least 1")
    if n > ITERATE_CAP:
        raise CapExceededError(f"iterate cap is {ITERATE_CAP}, got n={n}")
    return _iterate(n)


def period_poly(n: int) -> IteratedMapPoly:
    """Return f_c^n(z) - z, whose roots are the points of period dividing n."""
    return iterate_map(n) - IteratedMapPoly.z()


@lru_cache(maxsize=None)
def _pn(n: int) -> IntegerPoly:
    d = discriminant_in_z(period_poly(n))
    coeffs = []
    for i in range(d.degree + 1):
        q, r = divmod(d.coeff(i), 4**i)
        if r:
            raise IntegralityViolationError(
                f"coefficient of c^{i} in disc_z(f^{n}(z) - z) is not divisible by 4^{i}"
            )
        coeffs.append(q)
    pn = IntegerPoly(tuple(coeffs))
    if pn.leading not in (1, -1):
        raise IntegralityViolationError(f"P_{n} is not +-monic (leading {pn.leading})")
    return pn


def discriminant_Pn(n: int) -> IntegerPoly:
    """Return P_n(b), the integer polynomial with disc_z(f_c^n(z) - z) = P_n(4c).

    The discriminant is taken in z over Z[c], then c = b/4 is substituted;
    integrality of every coefficient and a +-1 leading coefficient are
    asserted rather than assumed.  Computed once per n and cached.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > DISCRIMINANT_CAP:
        raise CapExceededError(f"discriminant cap is {DISCRIMINANT_CAP}, got n={n}")
    return _pn(n)


@lru_cache(maxsize=256)
def _point_discriminant(n: int, c: Fraction) -> Fraction:
    a, d = c.numerator, c.denominator
    w = IntegerPoly((a * d, 0, 1))
    for k in range(1, n):
        w = w * w + IntegerPoly.constant(a * d ** (2 ** (k + 1) - 1))
    m = 2**n
    g = w - IntegerPoly((0, d ** (m - 1)))
    return Fraction(discriminant(g), d ** (m * (m - 1)))


def point_discriminant(n: int, c: Rat) -> Fraction:
    """Return P_n(4c) = disc_z(f_c^n(z) - z) at a rational c = a/d, exactly.

    No P_n and no IteratedMapPoly is built.  Substituting z = w/d gives
    f_c^k(z) = W_k(w)/d^(2^k) with the integer polynomials W_1 = w^2 + a*d
    and W_(k+1) = W_k^2 + a*d^(2^(k+1) - 1).  With m = 2^n,
    f_c^n(z) - z = G(w)/d^m for the monic G = W_n - d^(m-1) w, whose roots
    are d times those of f_c^n(z) - z, so
    disc_z(f_c^n(z) - z) = prod_(i<j) (z_i - z_j)^2 = disc(G)/d^(m(m-1)).
    disc(G) is one subresultant PRS over the integers in degree m.  The
    value is an integer whenever 4c is one (P_n has integer coefficients).
    Cached per (n, c) in a bounded LRU cache.

    >>> point_discriminant(2, Fraction(-3, 4))
    Fraction(0, 1)
    >>> point_discriminant(2, 0)
    Fraction(-27, 1)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ITERATE_CAP:
        raise CapExceededError(f"iterate cap is {ITERATE_CAP}, got n={n}")
    return _point_discriminant(n, Fraction(c))


def _disc_z2n_closed_form(n: int) -> int:
    """disc(z^(2^n) - z): 1 for n = 1 and -(2^n - 1)^(2^n - 1) for n >= 2.

    For a monic p of degree m, disc p = (-1)^(m(m-1)/2) * prod p'(r) over
    the roots r of p.  The roots of p = z^m - z are 0 and the m - 1 roots
    zeta of zeta^(m-1) = 1, with p'(0) = -1 and
    p'(zeta) = m*zeta^(m-1) - 1 = m - 1, so the product is -(m-1)^(m-1).
    For m = 2 the sign (-1)^(m(m-1)/2) is -1, giving disc(z^2 - z) = 1; for
    m = 2^n with n >= 2, m(m-1)/2 = 2^(n-1)(2^n - 1) is even, giving
    -(2^n - 1)^(2^n - 1).  Either way the value is odd.

    >>> [_disc_z2n_closed_form(n) for n in (1, 2, 3)]
    [1, -27, -823543]
    """
    if n == 1:
        return 1
    m = 2**n
    return -((m - 1) ** (m - 1))


def parity_certificate(n: int) -> ParityCertificate:
    """Certify P_n(0) and P_n(-6) odd, and P_n(0) against its closed form.

    Both values are point discriminants, at c = 0 and c = -3/2, where 4c
    is an integer and so are the values.  P_n(0) = disc(z^(2^n) - z), which
    _disc_z2n_closed_form gives for every n (proof in its docstring);
    ``cross_check_disc_z2n`` is 1 when the point value equals it.
    """
    at_zero = int(point_discriminant(n, 0))
    at_minus_six = int(point_discriminant(n, Fraction(-3, 2)))
    return ParityCertificate(
        n=n,
        value_at_0_mod2=at_zero % 2,
        value_at_minus6_mod2=at_minus_six % 2,
        cross_check_disc_z2n=1 if at_zero == _disc_z2n_closed_form(n) else 0,
    )


def dynatomic_poly(n: int, c: Rat) -> RationalPoly:
    """Return the n-th dynatomic polynomial of f_c via the Moebius product.

    Computed as prod over d | n of (f_c^d(z) - z)^mu(n/d) with exact division;
    its roots are the points of exact period n (with multiplicity conventions
    at parabolic parameters).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    c = Fraction(c)
    numerator = RationalPoly.one()
    denominator = RationalPoly.one()
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 0:
            continue
        factor = period_poly(d).evaluate_at_c(c)
        if mu == 1:
            numerator = numerator * factor
        else:
            denominator = denominator * factor
    return numerator.divide_exact(denominator)


def cycle_multiplier(g: IntegerPoly, n: int) -> Fraction:
    """Multiplier of the cycle formed by the roots of g, for f with f'(z) = 2z.

    The product of the roots gives lambda = 2^n (-1)^n g(0) / lc(g) exactly.

    >>> cycle_multiplier(IntegerPoly((-1, 2)), 1)
    Fraction(1, 1)
    >>> cycle_multiplier(IntegerPoly((-1, 4, 4)), 2)
    Fraction(-1, 1)
    >>> cycle_multiplier(IntegerPoly((-1, -18, 4, 8)), 3)
    Fraction(1, 1)
    """
    if n < 1:
        raise ValueError("period must be at least 1")
    if g.degree != n:
        raise DegreeMismatchError(f"deg g = {g.degree} but period {n} was claimed")
    sign = -1 if n % 2 else 1
    return Fraction(2**n * sign * g.coeff(0), g.leading)


def verify_cycle(c: Rat, g: IntegerPoly, n: int, expected: Rat) -> CycleCertificate:
    """Check that g cuts out a period-n cycle of f_c with the expected multiplier.

    Divisibility g | f_c^n(z) - z is verified by exact division over Q.  The
    caller asserts that g's roots form a single cycle; the certificate stores
    the primitive representative of g.
    """
    c = Fraction(c)
    expected = Fraction(expected)
    if g.is_zero or g.degree != n:
        raise DegreeMismatchError(f"deg g = {g.degree} but period {n} was claimed")
    g = g.primitive()
    target = period_poly(n).evaluate_at_c(c)
    _, remainder = target.divmod_poly(g.to_rational())
    if not remainder.is_zero:
        raise NotAFactorError(f"{g} does not divide f^{n}(z) - z at c = {c}")
    lam = cycle_multiplier(g, n)
    if lam != expected:
        raise MultiplierMismatchError(f"multiplier is {lam}, expected {expected}")
    return CycleCertificate(period=n, cycle_poly=g, parameter=c, multiplier=lam)


def is_pcf_rational(c: Rat) -> PcfResult:
    """Decide finiteness of the critical orbit of f_c for rational c, exactly.

    A non-integer rational has orbit denominators that grow strictly, so the
    orbit never revisits a point and the answer is immediately False.  For
    integer c the orbit either exceeds max(2, |c|), after which it grows
    monotonically, or stays within a finite set of integers and must repeat.
    Preperiod counts strictly pre-periodic points of the orbit of the
    critical value c.

    >>> is_pcf_rational(0)
    PcfResult(is_finite=True, preperiod=0, period=1)
    >>> is_pcf_rational(-1)
    PcfResult(is_finite=True, preperiod=0, period=2)
    >>> is_pcf_rational(-2)
    PcfResult(is_finite=True, preperiod=1, period=1)
    """
    c = Fraction(c)
    if c.denominator != 1:
        return PcfResult(False, 0, 0)
    value = int(c)
    bound = max(2, abs(value))
    seen: dict[int, int] = {}
    z = value
    index = 1
    while True:
        if abs(z) > bound:
            return PcfResult(False, 0, 0)
        if z in seen:
            first = seen[z]
            return PcfResult(True, first - 1, index - first)
        seen[z] = index
        z = z * z + value
        index += 1


def escapes(c: Rat, budget: int = ESCAPE_BUDGET) -> bool:
    """Return True when the critical orbit of f_c provably escapes to infinity.

    The witness is an iterate with |z| > max(2, |c|), beyond which the
    modulus increases monotonically.  Integer parameters are decided exactly
    through orbit repetition.  For non-integer rationals the search stops at
    the iteration budget, or earlier when the exact orbit exceeds the bit
    guard, and raises UnresolvedError; parameters close to the escape
    boundary can exhaust the budget before producing a witness.
    """
    c = Fraction(c)
    if c.denominator == 1:
        return not is_pcf_rational(c).is_finite
    bound = max(Fraction(2), abs(c))
    z = c
    for _ in range(budget):
        if abs(z) > bound:
            return True
        if z.numerator.bit_length() + z.denominator.bit_length() > _ESCAPE_BIT_GUARD:
            raise UnresolvedError(f"orbit of {c} undecided within the bit guard")
        z = z * z + c
    raise UnresolvedError(f"orbit of {c} undecided within {budget} iterations")


def real_behavior(c: Rat) -> RealBehavior:
    """Classify the real critical orbit of f_c by exact rational comparisons.

    No simulation is involved: the attracting ranges come from the exact
    fixed-point multiplier 1 - sqrt(1 - 4c) being inside the unit interval
    for -3/4 < c < 1/4 and the two-cycle multiplier 4(c + 1) doing so for
    -5/4 < c < -3/4; the three interior parabolic landmarks are matched
    literally; what remains of [-2, 1/4] is settled by the exact orbit test
    when possible.
    """
    c = Fraction(c)
    if c < -2 or c > Fraction(1, 4):
        return RealBehavior(ESCAPES_TO_INFINITY)
    if c == Fraction(1, 4):
        return RealBehavior(PARABOLIC_LANDMARK, (1, 1))
    if c == Fraction(-3, 4):
        return RealBehavior(PARABOLIC_LANDMARK, (1, 2))
    if c == Fraction(-5, 4):
        return RealBehavior(PARABOLIC_LANDMARK, (2, 2))
    if Fraction(-3, 4) < c < Fraction(1, 4):
        return RealBehavior(ATTRACTING_FIXED_POINT)
    if Fraction(-5, 4) < c < Fraction(-3, 4):
        return RealBehavior(ATTRACTING_TWO_CYCLE)
    finite, preperiod, period = is_pcf_rational(c)
    if finite:
        return RealBehavior(POSTCRITICALLY_FINITE, (preperiod, period))
    return RealBehavior(CORE_BOUNDED_UNRESOLVED)


def is_parabolic_up_to(c: Union[Rat, RealAlgebraic], nmax: int) -> ParabolicVerdict:
    """Search for the least n <= nmax with P_n(4c) = 0.

    A rational c is tested by point_discriminant(n, c) == 0, which builds no
    P_n.  An irrational c keeps the bivariate P_n: its sign at b = 4c comes
    from the exact oracle ``algebraic.sign_at`` on the cached P_n, the
    cheapest exact route in a warm process, and a point evaluation at an
    algebraic c (a witness modulo a prime, say) would have to beat it first.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if nmax > DISCRIMINANT_CAP:
        raise CapExceededError(f"discriminant cap is {DISCRIMINANT_CAP}, got nmax={nmax}")
    if isinstance(c, RealAlgebraic) and not c.is_rational:
        b_point = affine_transform(c, 4, 0)

        def vanishes(n: int) -> bool:
            return sign_at(discriminant_Pn(n), b_point) == 0

    else:
        q = c.to_rational() if isinstance(c, RealAlgebraic) else Fraction(c)

        def vanishes(n: int) -> bool:
            return point_discriminant(n, q) == 0

    for n in range(1, nmax + 1):
        if vanishes(n):
            return ParabolicVerdict("parabolic", n)
    return ParabolicVerdict("not-up-to-bound", nmax)


def _precision_bits(precision: int) -> int:
    # A binary float of d decimal digits has round((d + 1) log2 10) bits of
    # mantissa, so one bit fewer is its ulp on [1, 2), where the orbit lives.
    return round((precision + 1) * math.log2(10)) - 1


def _scaled_floor(q: Fraction, bits: int) -> int:
    return (q.numerator << bits) // q.denominator


def _enclose_parameter(c: Union[Rat, RealAlgebraic], precision: int, bits: int):
    if isinstance(c, RealAlgebraic):
        if c.is_rational:
            lo = hi = c.to_rational()
        else:
            iso = c.refined(Fraction(1, 10 ** (precision + 5))).isolation
            lo, hi = iso.lo, iso.hi
    else:
        lo = hi = Fraction(c)
    return _scaled_floor(lo, bits), -_scaled_floor(-hi, bits)


# A box (lo, hi) of integers stands for the closed interval
# [lo * 2^-bits, hi * 2^-bits].  A product of two boxes carries 2 * bits
# fractional bits; dropping bits rounds the lower end down (>> floors) and
# the upper end up (-((-x) >> bits) is the ceiling), so every result encloses
# the exact image.


def _square_plus(z, c, bits: int):
    """Outward-rounded enclosure of {x^2 + y : x in z, y in c}."""
    lo, hi = z
    if lo >= 0:
        sq_lo, sq_hi = lo * lo, hi * hi
    elif hi <= 0:
        sq_lo, sq_hi = hi * hi, lo * lo
    else:
        sq_lo, sq_hi = 0, max(lo * lo, hi * hi)
    return (sq_lo >> bits) + c[0], -((-sq_hi) >> bits) + c[1]


def _mul(x, y, bits: int):
    """Outward-rounded enclosure of {a * b : a in x, b in y}."""
    corners = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return min(corners) >> bits, -((-max(corners)) >> bits)


def _midpoint(box) -> int:
    return (box[0] + box[1]) >> 1


def _width(box) -> int:
    return box[1] - box[0]


def _pairwise_disjoint(boxes) -> bool:
    for i in range(len(boxes)):
        for j in range(i + 1, len(boxes)):
            if not (boxes[i][1] < boxes[j][0] or boxes[j][1] < boxes[i][0]):
                return False
    return True


def _cycle_search(c, n, precision, budget):
    bits = _precision_bits(precision)
    one = 1 << bits
    enclosure = _enclose_parameter(c, precision, bits)
    noise = -(-one // 10 ** (precision - 1))  # 10^(1 - precision), in ulps
    z = (0, 0)
    recent = []  # interval orbit points, trimmed to the last n + 1
    steps = 0
    stabilized = False
    while steps < budget:
        z = _square_plus(z, enclosure, bits)
        steps += 1
        recent.append(z)
        if len(recent) > n + 1:
            recent.pop(0)
        mid = _midpoint(z)
        # No box end falls below the parameter box's lower end, so a bounded
        # midpoint also bounds the width and the integers stay small.
        if abs(mid) > 4 * one:
            raise NoConvergenceError(
                f"orbit left the bounded region after {steps} steps"
            )
        if len(recent) == n + 1:
            move = abs(mid - _midpoint(recent[0]))
            scale = max(one, abs(mid))
            tolerance = 4 * (_width(z) + ((noise * scale) >> bits))
            if move <= tolerance:
                stabilized = True
                break
    if not stabilized:
        raise NoConvergenceError(f"orbit did not stabilize within {budget} steps")

    # Polish: keep iterating while the n-step move shrinks, so the seed sits
    # as close to the true cycle as the working precision allows.
    best_recent = list(recent)
    best_move = abs(_midpoint(recent[-1]) - _midpoint(recent[0]))
    for _ in range(40 * n):
        z = _square_plus(z, enclosure, bits)
        recent.append(z)
        recent.pop(0)
        move = abs(_midpoint(recent[-1]) - _midpoint(recent[0]))
        if move < best_move:
            best_move = move
            best_recent = list(recent)
        if move <= _width(z):
            break

    cycle = best_recent[1:]
    move = best_move
    spread = max(_width(box) for box in cycle)
    scale = max([one] + [abs(_midpoint(box)) for box in cycle])
    floor = (noise * scale) >> bits  # 10 * 10^(-precision) * scale
    seed = _midpoint(cycle[0])
    # Ascending ladder: any containment success is a proof, so small boxes are
    # tried first and inflated candidates act as fallbacks.
    ladder = sorted(
        {floor * 4**k for k in range(5)}
        | {mult * (move + spread) + floor for mult in _CONTAINMENT_MULTS}
    )
    best_failure = None
    for delta in ladder:
        if delta > one:
            continue
        first = (seed - delta, seed + delta)
        boxes = [first]
        current = first
        for _ in range(n):
            current = _square_plus(current, enclosure, bits)
            boxes.append(current)
        last = boxes.pop()
        if not (last[0] > first[0] and last[1] < first[1]):
            continue
        lam = (one, one)
        for box in boxes:
            lam = _mul(lam, (2 * box[0], 2 * box[1]), bits)
        modulus_upper = Fraction(max(abs(lam[0]), abs(lam[1])), one)
        if modulus_upper >= 1:
            if best_failure is None or modulus_upper < best_failure:
                best_failure = modulus_upper
            continue
        return NumericCycleCertificate(
            period=n,
            points=tuple(Fraction(lo + hi, 2 * one) for lo, hi in boxes),
            multiplier_estimate=Fraction(lam[0] + lam[1], 2 * one),
            modulus_upper=modulus_upper,
            exact_period=_pairwise_disjoint(boxes),
            precision=precision,
        )
    if best_failure is not None:
        raise PrecisionInsufficientError(
            f"multiplier bound {float(best_failure):.8g} does not separate "
            f"from 1 at precision {precision}",
            modulus_upper=best_failure,
        )
    raise PrecisionInsufficientError(
        f"no invariant containment box found at precision {precision}"
    )


def find_attracting_cycle_numeric(
    c: Union[Rat, RealAlgebraic],
    n: int,
    precision: int = 64,
    budget: int = _NUMERIC_BUDGET,
) -> NumericCycleCertificate:
    """Search numerically for an attracting cycle of period n and certify it.

    The critical orbit is iterated in interval arithmetic until n
    consecutive points stabilize.  The candidate cycle is then inflated into
    boxes B_0, ..., B_{n-1}; containment of the n-step interval image
    strictly inside B_0 proves a cycle exists in the boxes, and the interval
    product of 2 z over them bounds its multiplier.  Success requires the
    upper bound to be strictly below 1.

    ``precision`` is in decimal digits.  The intervals have integer ends
    scaled by 2^-bits with bits = round((precision + 1) log2 10) - 1, so
    2^-bits is the ulp a binary float of that many digits has on [1, 2).
    Certificate fields are exact dyadic fractions.  The parameter
    box is the floor and ceiling, at that scale, of an isolating interval
    of c narrowed below 10^-(precision + 5).  Squares take the sign of the
    box into account, products take the extremes of the four corner
    products, and every rounding is outward, so each box encloses the exact
    image.  The result is deterministic for a fixed precision and budget and
    touches no global state.
    """
    if n < 1:
        raise ValueError("period must be at least 1")
    if n > NUMERIC_PERIOD_CAP:
        raise CapExceededError(f"numeric period cap is {NUMERIC_PERIOD_CAP}, got {n}")
    if precision < 2:
        raise ValueError("precision must be at least 2 digits")
    return _cycle_search(c, n, precision, budget)
