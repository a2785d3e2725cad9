"""Exact real algebraic numbers and totally-real tests.

A ``RealAlgebraic`` is a primitive integer polynomial (its minimal
polynomial, irreducibility supplied by the caller) together with a rational
interval isolating exactly one of its real roots. All queries reduce to
Sturm counts and exact signs of integer polynomials at rationals, and the
sign of a polynomial at the number to one Tarski query on a remainder
sequence; nothing is approximated unless explicitly asked for through
``approx``.  The order is exact for any squarefree minimal polynomial;
``==`` assumes the documented irreducible one.

There is deliberately no field arithmetic here: the classification
pipelines only ever need linear maps of a single value (``affine_transform``)
and signs of integer polynomials at a value (``sign_at``).
"""
from __future__ import annotations

from fractions import Fraction

from .polyring import (
    ConstantPolynomialError,
    IntegerPoly,
    ParabkitError,
    Rat,
    RationalInterval,
    _Bisection,
    _Record,
    _sturm_count_int,
    _tarski_query,
    cauchy_bound,
    format_poly,
    squarefree_part,
    sturm_count,
)

__all__ = [
    "NotIsolatingError",
    "NotSquarefreeError",
    "ZeroScaleError",
    "RealAlgebraic",
    "make_real_algebraic",
    "from_rational",
    "is_totally_real",
    "all_conjugates_in",
    "affine_transform",
    "sign_at",
]


class NotIsolatingError(ParabkitError):
    pass


class NotSquarefreeError(ParabkitError):
    pass


class ZeroScaleError(ParabkitError):
    pass


_REFINE_CAP = 4096


def _ensure_squarefree(p: IntegerPoly) -> None:
    if p.is_zero:
        raise NotSquarefreeError("the zero polynomial is not squarefree")
    if squarefree_part(p).degree != p.degree:
        raise NotSquarefreeError(f"{p} has a repeated root")


class RealAlgebraic(_Record):
    """One real root of an integer polynomial, pinned by an interval.

    Build through make_real_algebraic or from_rational; the constructor does
    not validate. The isolation interval is kept either degenerate (a known
    rational value) or open and holding exactly one root of minpoly. Both
    builders give a rational number a linear minpoly and a point isolation.
    An endpoint of an open isolation may itself be another root of minpoly,
    such as -1 for (x+1)(x^2-2) on (-1, 2].  The order (_compare) is exact
    for any squarefree minpoly; == assumes it irreducible, as it first
    compares minimal polynomials.  A rational hashes as its Fraction.
    """

    minpoly: IntegerPoly
    isolation: RationalInterval

    def __init__(self, minpoly, isolation):
        object.__setattr__(self, "minpoly", minpoly)
        object.__setattr__(self, "isolation", isolation)

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_rational(self) -> bool:
        return self.isolation.is_point or self.minpoly.degree == 1

    def to_rational(self) -> Fraction:
        if self.isolation.is_point:
            return self.isolation.lo
        if self.minpoly.degree == 1:
            return Fraction(-self.minpoly.coeff(0), self.minpoly.coeff(1))
        raise ParabkitError(f"{self} is not rational")

    def refined(self, max_width: Fraction) -> "RealAlgebraic":
        """Same number with isolation width at most max_width > 0.

        Sign bisection on the minimal polynomial, with no root counting, by
        the integer kernel polyring._Bisection, which also covers an excluded
        endpoint root; the number of halvings is worked out from the width
        before the first one.  The endpoints are the midpoints that halving
        in Fractions would reach, and a midpoint that is the root gives a
        point isolation.  The caller picks the width, so more than
        _REFINE_CAP halvings raise ParabkitError; no comparison refines.  As
        for the order, a squarefree minpoly suffices; == assumes it irreducible.
        """
        max_width = Fraction(max_width)
        if max_width <= 0:
            raise ValueError(f"refinement width must be positive, got {max_width}")
        iv = self.isolation
        if iv.is_point or iv.width <= max_width:
            return self
        narrowing = _Bisection(self.minpoly, iv.lo, iv.hi)
        halvings = narrowing.halvings_to(max_width)
        narrowing.halve(min(halvings, _REFINE_CAP))
        if halvings > _REFINE_CAP and narrowing.a != narrowing.b:
            raise ParabkitError("isolation refinement did not converge")
        return RealAlgebraic(self.minpoly, narrowing.interval())

    def approx(self, digits: int = 12) -> Fraction:
        """Rational approximation within 10**-digits of the true value."""
        return self.refined(Fraction(1, 10**digits)).isolation.midpoint

    def _compare(self, other) -> int:
        """-1, 0 or 1 as self is below, at or above other (int, Fraction or
        RealAlgebraic), exactly.  other outside the open isolation lies on its
        side, by its own rational comparison with the endpoint.  Inside, m has
        sign _Bisection.left on (lo, self) and the opposite on (self, hi), so
        the sign of m at other (one Tarski query if irrational) places it; 0
        makes other the one root of m there."""
        algebraic = isinstance(other, RealAlgebraic)
        if not (algebraic or isinstance(other, (int, Fraction))):
            raise TypeError(f"cannot order a RealAlgebraic and a {type(other).__name__}")
        if self.is_rational:
            v = self.to_rational()
            return -other._compare(v) if algebraic else (v > other) - (v < other)
        lo, hi = self.isolation.lo, self.isolation.hi
        if other <= lo:
            return 1
        if other >= hi:
            return -1
        s = sign_at(self.minpoly, other) if algebraic else self.minpoly.sign_at(other)
        return 0 if s == 0 else 1 if s == _Bisection(self.minpoly, lo, hi).left else -1

    def __eq__(self, other) -> bool:
        if not isinstance(other, (int, Fraction, RealAlgebraic)):
            return NotImplemented
        if isinstance(other, RealAlgebraic) and self.minpoly != other.minpoly:
            return False
        return self._compare(other) == 0

    def __hash__(self) -> int:
        return hash(self.to_rational()) if self.is_rational else hash(self.minpoly.coeffs)

    def __lt__(self, other) -> bool:
        return self._compare(other) < 0

    def __le__(self, other) -> bool:
        return self._compare(other) <= 0

    def __gt__(self, other) -> bool:
        return self._compare(other) > 0

    def __ge__(self, other) -> bool:
        return self._compare(other) >= 0

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.to_rational())
        iv = self.isolation
        return f"{format_poly(self.minpoly, 'x')}@[{iv.lo},{iv.hi}]"

    def __repr__(self) -> str:
        return f"RealAlgebraic({self})"


def make_real_algebraic(p: IntegerPoly, interval: RationalInterval) -> RealAlgebraic:
    """Validated constructor: p squarefree, interval isolating exactly one root.

    A rational root comes back as from_rational(r), with a linear minimal
    polynomial and a point isolation, so it equals the same number written
    as a rational, even when p is reducible.  By the rational root theorem a
    rational root of the primitive p has a denominator that divides L =
    lc(p), so it is k/L for an integer k, and two such numbers are at least
    1/L apart.  Once a scratch copy of the open isolation (lo, hi) is
    narrowed to width at most 1/L it holds at most one of them, k/L with
    k = ceil(lo*L), the least one not below lo; the root is rational exactly
    when k/L lies in it (or the narrowing hit the root) and p(k/L) = 0, both
    decided exactly, in integers; a root at an endpoint counts if closed.

    Otherwise the stored polynomial is the primitive part with positive
    leading coefficient, and the isolation is the caller's, opened and
    clamped to the root bound (-B, B), which holds every real root.
    Irreducibility of p is a caller-supplied precondition (there is no
    factorization engine here); every polynomial the pipelines construct
    has degree at most 3, where squarefree plus no rational root settles it:
    a reducible p of degree 2 or 3 has a linear factor.
    """
    if p.is_zero:
        raise NotSquarefreeError("the zero polynomial isolates nothing")
    _ensure_squarefree(p)
    p = p.primitive()
    # p, primitive and squarefree, is its own squarefree model
    hits, at_lo, at_hi = _sturm_count_int(p, interval)
    if hits != 1:
        raise NotIsolatingError(f"{interval} contains {hits} roots of {p}, expected 1")
    if at_lo == 0 and not interval.lo_strict:
        return from_rational(interval.lo)
    if at_hi == 0 and not interval.hi_strict:
        return from_rational(interval.hi)
    if p.degree == 1:
        return from_rational(Fraction(-p.coeff(0), p.coeff(1)))
    bound = cauchy_bound(p)
    isolation = RationalInterval(max(interval.lo, -bound), min(interval.hi, bound), True, True)
    lead = p.leading
    # the count's sign at lo starts the bisection unless the clamp moved lo
    fine = _Bisection(p, isolation.lo, isolation.hi, at_lo if isolation.lo == interval.lo else None)
    fine.halve(fine.halvings_to(Fraction(1, lead)))
    lo, hi, d = fine.a * lead, fine.b * lead, fine.d  # lead * (lo, hi), over d
    k = -(-lo // d)
    if (lo == hi or lo < k * d < hi) and p.sign_at(Fraction(k, lead)) == 0:
        return from_rational(Fraction(k, lead))
    return RealAlgebraic(p, isolation)


def from_rational(q: Rat) -> RealAlgebraic:
    """Exact rational embedded as a RealAlgebraic.

    >>> str(from_rational(Fraction(-7, 4)))
    '-7/4'
    """
    q = Fraction(q)
    p = IntegerPoly((-q.numerator, q.denominator))
    return RealAlgebraic(p, RationalInterval(q, q))


def is_totally_real(p: IntegerPoly) -> bool:
    """True when every root of p is real: deg p distinct real roots.

    >>> is_totally_real(IntegerPoly((41, 52, 16)))
    True
    >>> is_totally_real(IntegerPoly((1, 0, 1)))
    False
    """
    _ensure_squarefree(p)
    if p.degree < 1:
        raise ConstantPolynomialError("totally-real test needs degree >= 1")
    bound = cauchy_bound(p)
    return sturm_count(p, RationalInterval(-bound, bound)) == p.degree


def all_conjugates_in(p: IntegerPoly, interval: RationalInterval) -> bool:
    """True when p is totally real and every root lies in the interval:
    deg p distinct roots there, which makes p totally real."""
    _ensure_squarefree(p)
    if p.degree < 1:
        raise ConstantPolynomialError("conjugate location needs degree >= 1")
    return sturm_count(p, interval) == p.degree


def affine_transform(alpha: RealAlgebraic, s: Rat, t: Rat) -> RealAlgebraic:
    """The number s*alpha + t, for a validated alpha and rational s != 0.

    A rational alpha maps to a rational.  Otherwise the image minimal
    polynomial is built in integers from m = minpoly(alpha) of degree D, by
    writing s*alpha + t = (y + u)/v with t = u/v and y = (P/Q)*alpha for
    P/Q = s*v: y is a root of sum m_i Q^i P^(D-i) y^i (a scaling of the
    coefficients), y + u a root of that polynomial shifted by u (a Taylor
    shift), and (y + u)/v a root of its coefficients times v^i; the image
    polynomial is the primitive part.  The open isolation of an irrational
    alpha maps exactly to an open interval, its ends swapped when s < 0: the
    isolation of the image.  Nothing is re-validated: an affine map keeps
    the roots distinct and the interval isolating, and the image of an
    irrational is irrational.
    """
    s, t = Fraction(s), Fraction(t)
    if s == 0:
        raise ZeroScaleError("scale factor must be nonzero")
    if alpha.is_rational:
        return from_rational(s * alpha.to_rational() + t)
    u, v = t.numerator, t.denominator
    ratio = s * v
    P, Q = ratio.numerator, ratio.denominator
    deg = alpha.minpoly.degree
    cs = [c * Q**i * P ** (deg - i) for i, c in enumerate(alpha.minpoly.coeffs)]
    for i in range(deg):  # Taylor shift: cs becomes the coefficients at x - u
        for j in range(deg - 1, i - 1, -1):
            cs[j] -= u * cs[j + 1]
    image = IntegerPoly(tuple(c * v**i for i, c in enumerate(cs))).primitive()
    ends = sorted((s * alpha.isolation.lo + t, s * alpha.isolation.hi + t))
    return RealAlgebraic(image, RationalInterval(*ends, True, True))


def sign_at(p: IntegerPoly, alpha: RealAlgebraic) -> int:
    """Exact sign of p(alpha): -1, 0, or +1.

    A rational alpha is a single integer sign, IntegerPoly.sign_at.
    Otherwise the sign is one Tarski query (polyring._tarski_query): the sum
    of sign p(x) over the roots x of the minimal polynomial m in the
    isolation, read off one remainder sequence of m and m'p mod m.  The
    isolation holds one root of m, alpha, so the sum is sign p(alpha),
    decided exactly with no refinement.  This needs m squarefree only, not
    irreducible, and covers an endpoint that is another root of m.

    >>> root2 = make_real_algebraic(IntegerPoly((-2, 0, 1)), RationalInterval(1, 2))
    >>> [sign_at(IntegerPoly(cs), root2) for cs in ((-7, 5), (-2, 0, 1), (-3, 2))]
    [1, 0, -1]
    """
    if alpha.is_rational:
        return p.sign_at(alpha.to_rational())
    return _tarski_query(alpha.minpoly, p, alpha.isolation)
