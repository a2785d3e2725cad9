"""Iteration of the quadratic family f_c(z) = z^2 + c with exact certificates.

Symbolic iterates and period polynomials live in ``IteratedMapPoly`` (monic in
z over Z[c]).  From those this module derives the discriminant polynomials
P_n(b), defined by disc_z(f_c^n(z) - z) = P_n(4c), for ``pn`` and for an
algebraic parameter whose modular witness of P_n(4c) != 0 fails.  That
witness serves an irrational parameter of any degree: a cached table of
P_n(4x) mod p (``_qn_mod``) and one resultant over F_p with the minimal
polynomial (see ``is_parabolic_up_to``).  At a rational parameter c = a/d
every question about f_c^n(z) - z goes to one cached integer model,
G(w) = d^(2^n) (f_c^n(w/d) - w/d), monic in Z[w]: ``point_discriminant``
gives the value P_n(4c) as its discriminant and builds no P_n (the bounded
parabolicity search and the parity certificates at b = 0 and b = -6 read
it), ``verify_cycle`` divides it exactly, and ``dynatomic_poly`` is a
Moebius quotient of such models.
The real line is described once: ``escapes`` (the critical orbit is
bounded exactly on [-2, 1/4]) and one table of the four parabolic
parameters, with the Fatou windows between them.  Exact cycle multipliers,
orbit tests for rational parameters, and the multiplier polynomials
Delta_n(lambda, c) complete the module: an exact sign change of
Delta_n(., c) inside [-1, 1] certifies an attracting cycle
(``certify_attracting_cycle``).

Everything is exact integer or rational arithmetic; nothing rounds.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

from .algebraic import RealAlgebraic, affine_transform, sign_at
from .cyclotomic import divisors, moebius, moebius_product
from .polyring import (
    IntegerPoly,
    IteratedMapPoly,
    NotDivisibleError,
    ParabkitError,
    Rat,
    discriminant,
    discriminant_in_z,
    _IPOLY_RING,
    _Record,
    _disc_sign,
    _fp_interpolate,
    _fp_mul,
    _fp_resultant,
    _prem,
)

__all__ = [
    "CapExceededError",
    "IntegralityViolationError",
    "NotAFactorError",
    "MultiplierMismatchError",
    "DegreeMismatchError",
    "CycleCertificate",
    "RealBehavior",
    "ParityCertificate",
    "ParabolicVerdict",
    "PcfResult",
    "AttractingCycleCertificate",
    "ITERATE_CAP",
    "DISCRIMINANT_CAP",
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
    "multiplier_polynomial",
    "certify_attracting_cycle",
]

ITERATE_CAP = 6
DISCRIMINANT_CAP = 5

# Primes for the modular witness of P_n(4c) != 0 at an algebraic c: 32 primes
# below 2^30, so that a product of two residues fits in two CPython digits,
# and far above every degree n 2^(n-1) of P_n the cap allows.  Tried in this
# order.
_WITNESS_PRIMES = (
    1073741783, 1073741723, 1073741719, 1073741671, 1073741663, 1073741651, 1073741567,
    1073741527, 1073741503, 1073741467, 1073741419, 1073741399, 1073741387, 1073741371,
    1073741311, 1073741287, 1073741047, 1073740963, 1073740951, 1073740879, 1073740847,
    1073740819, 1073740807, 1073740783, 1073740691, 1073740571, 1073740567, 1073740543,
    1073740523, 1073740463, 1073740439, 1073740403,
)


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
    """An exact multiplier check failed.

    Either a cycle multiplier differs from the expected value, or
    Delta_n(., c) does not change sign on the claimed multiplier interval.
    """


class DegreeMismatchError(ParabkitError):
    """The cycle polynomial degree does not equal the claimed period."""


class CycleCertificate(_Record):
    """Exact witness that g's roots form a cycle of f_c with known multiplier."""

    period: int
    cycle_poly: IntegerPoly
    parameter: Fraction
    multiplier: Fraction


class RealBehavior(_Record):
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

# The real critical orbit of f_c is bounded exactly on [-2, 1/4] (escapes).
_ORBIT_BOUNDED = (Fraction(-2), Fraction(1, 4))

# The four real parabolic parameters, descending, each mapped to its cycle
# polynomial, the period and exact multiplier of that cycle, the least n
# with P_n(4c) = 0, and the tag of the Fatou window that ends there: on the
# open interval down to the next parameter the named cycle attracts, so f_c
# has no parabolic cycle (proof in is_parabolic_up_to).
_PARABOLIC_CYCLES = {
    Fraction(1, 4): (IntegerPoly((-1, 2)), 1, Fraction(1), 1, ATTRACTING_FIXED_POINT),
    Fraction(-3, 4): (IntegerPoly((1, 2)), 1, Fraction(-1), 2, ATTRACTING_TWO_CYCLE),
    Fraction(-5, 4): (IntegerPoly((-1, 4, 4)), 2, Fraction(-1), 4, None),
    Fraction(-7, 4): (IntegerPoly((-1, -18, 4, 8)), 3, Fraction(1), 3, None),
}


class ParityCertificate(_Record):
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


class ParabolicVerdict(_Record):
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


class AttractingCycleCertificate(_Record):
    """Exact witness of an attracting cycle of f_c.

    Delta_n(lambda, c) takes strictly opposite signs at lambda = lo and
    lambda = hi, with -1 <= lo < hi <= 1, so some cycle has an f^n-multiplier
    strictly between them; its modulus is below ``modulus_bound``.
    """

    period: int
    parameter: Union[Fraction, RealAlgebraic]
    lo: Fraction
    hi: Fraction
    modulus_bound: Fraction


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
def _period_model(n: int, c: Fraction) -> IntegerPoly:
    # G(w) = d^(2^n) (f_c^n(w/d) - w/d) at c = a/d, monic in Z[w]; with
    # z = w/d, f_c^k(z) = W_k(w)/d^(2^k) for W_1 = w^2 + a*d and
    # W_(k+1) = W_k^2 + a*d^(2^(k+1) - 1), and G = W_n - d^(2^n - 1) w.
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > ITERATE_CAP:
        raise CapExceededError(f"iterate cap is {ITERATE_CAP}, got n={n}")
    a, d = c.numerator, c.denominator
    w = IntegerPoly((a * d, 0, 1))
    for k in range(1, n):
        w = w * w + IntegerPoly.constant(a * d ** (2 ** (k + 1) - 1))
    return w - IntegerPoly((0, d ** (2**n - 1)))


@lru_cache(maxsize=256)
def _point_discriminant(n: int, c: Fraction) -> Fraction:
    m = 2**n
    return Fraction(discriminant(_period_model(n, c)), c.denominator ** (m * (m - 1)))


def point_discriminant(n: int, c: Rat) -> Fraction:
    """Return P_n(4c) = disc_z(f_c^n(z) - z) at a rational c = a/d, exactly.

    No P_n and no IteratedMapPoly is built.  The cached integer model G of
    f_c^n(z) - z (``_period_model``) is monic of degree m = 2^n, with roots
    d times those of f_c^n(z) - z, so
    disc_z(f_c^n(z) - z) = prod_(i<j) (z_i - z_j)^2 = disc(G)/d^(m(m-1)).
    disc(G) is one subresultant PRS over the integers in degree m.  The
    value is an integer whenever 4c is one (P_n has integer coefficients).
    Cached per (n, c) in a bounded LRU cache.

    >>> point_discriminant(2, Fraction(-3, 4))
    Fraction(0, 1)
    >>> point_discriminant(2, 0)
    Fraction(-27, 1)
    """
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


def dynatomic_poly(n: int, c: Rat) -> IntegerPoly:
    """Return the n-th dynatomic polynomial of f_c at a rational c = a/q.

    The Moebius product of (f_c^k(z) - z)^mu(n/k) over k | n, taken on the
    monic integer models G_k(w) = q^(2^k) (f_c^k(w/q) - w/q), is an exact
    division in Z[w] with the monic quotient H(w) = q^D Phi_n(w/q).  The
    result is the primitive part of H(q z): an integer polynomial with the
    roots of Phi_n, the points of exact period n (with multiplicity
    conventions at parabolic parameters).

    >>> dynatomic_poly(2, Fraction(-5, 4)).coeffs  # 4z^2 + 4z - 1
    (-1, 4, 4)
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    c = Fraction(c)
    model = moebius_product(n, lambda k: _period_model(k, c))
    return IntegerPoly(tuple(h * c.denominator**i for i, h in enumerate(model.coeffs))).primitive()


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

    With c = a/d, g | f_c^n(z) - z over Q exactly when h(w) = d^n g(w/d)
    divides the model G(w) = d^(2^n) (f_c^n(w/d) - w/d) over Q, and by
    Gauss's lemma exactly when the primitive part of h divides G in Z[w]:
    one exact division of the cached G.  The caller asserts that g's roots
    form a single cycle; the certificate stores the primitive part of g.
    """
    c = Fraction(c)
    expected = Fraction(expected)
    if g.is_zero or g.degree != n:
        raise DegreeMismatchError(f"deg g = {g.degree} but period {n} was claimed")
    g = g.primitive()
    h = IntegerPoly(tuple(k * c.denominator ** (n - i) for i, k in enumerate(g.coeffs))).primitive()
    try:
        _period_model(n, c).divide_exact(h)
    except NotDivisibleError:
        raise NotAFactorError(f"{g} does not divide f^{n}(z) - z at c = {c}") from None
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


def escapes(c: Union[Rat, RealAlgebraic]) -> bool:
    """True when the critical orbit of f_c escapes to infinity: c < -2 or c > 1/4.

    c is an int, a Fraction or a RealAlgebraic, compared exactly with the
    ends of [-2, 1/4]; anything else raises TypeError.  The orbit 0, c,
    f_c(c), ... is that of x -> x^2 + c:
    * c > 1/4: f_c(x) - x = (x - 1/2)^2 + c - 1/4 >= c - 1/4 > 0 for every
      real x, so the orbit increases by at least c - 1/4 at each step and
      has no fixed point to stop at;
    * c < -2: f_c(c) = c(c + 1) = |c|(|c| - 1) > max(2, |c|), and once
      |z| > max(2, |c|), |f_c(z)| >= |z|^2 - |c| > |z|(|z| - 1), with
      |z| - 1 > 1 growing at every step;
    * -2 <= c <= 1/4: b = (1 + sqrt(1 - 4c))/2 is real with b^2 + c = b and
      -b <= c (that is b <= 2), so |x| <= b gives c <= f_c(x) <= b^2 + c = b:
      f_c maps [-b, b], which holds 0, into itself.

    >>> [escapes(c) for c in (-3, -2, Fraction(1, 4), Fraction(1, 5), 1)]
    [True, False, False, False, True]
    """
    if not isinstance(c, (int, Fraction, RealAlgebraic)):
        raise TypeError(f"escapes needs an int, a Fraction or a RealAlgebraic, not {c!r}")
    lo, hi = _ORBIT_BOUNDED
    return c < lo or c > hi


def _window_tag(c) -> Union[str, None]:
    """The tag of the Fatou window strictly containing c, or None.

    The windows lie between adjacent rows of _PARABOLIC_CYCLES, read in
    ascending order; the lowest row ends no window.  c is an int, a
    Fraction or a RealAlgebraic; each endpoint comparison is one exact
    comparison with a Fraction.
    """
    lo = None
    for hi, row in reversed(_PARABOLIC_CYCLES.items()):
        if row[4] is not None and lo < c < hi:
            return row[4]
        lo = hi
    return None


def real_behavior(c: Rat) -> RealBehavior:
    """Classify the real critical orbit of f_c at a rational c, exactly.

    No simulation is involved.  Outside [-2, 1/4] the orbit escapes
    (``escapes``).  A parameter of _PARABOLIC_CYCLES is "ParabolicLandmark"
    with the period of its parabolic cycle and the root order of its
    multiplier (1 for 1, 2 for -1).  Between them lie the Fatou windows,
    where the exact fixed-point multiplier 1 - sqrt(1 - 4c) (on
    -3/4 < c < 1/4) or two-cycle multiplier 4(c + 1) (on -5/4 < c < -3/4)
    is inside (-1, 1); both come from the table is_parabolic_up_to reads.
    What remains of [-2, -5/4) is settled by the exact orbit test when
    possible.

    >>> real_behavior(Fraction(-7, 4))
    RealBehavior(tag='ParabolicLandmark', detail=(3, 1))
    """
    c = Fraction(c)
    if escapes(c):
        return RealBehavior(ESCAPES_TO_INFINITY)
    row = _PARABOLIC_CYCLES.get(c)
    if row is not None:
        _, period, multiplier, _, _ = row
        return RealBehavior(PARABOLIC_LANDMARK, (period, 1 if multiplier == 1 else 2))
    tag = _window_tag(c)
    if tag is not None:
        return RealBehavior(tag)
    finite, preperiod, period = is_pcf_rational(c)
    if finite:
        return RealBehavior(POSTCRITICALLY_FINITE, (preperiod, period))
    return RealBehavior(CORE_BOUNDED_UNRESOLVED)


@lru_cache(maxsize=None)
def _qn_mod(n: int, p: int) -> tuple:
    """Q_n(x) = P_n(4x) = disc_z(f_x^n(z) - z) mod p, low to high, for a prime
    p > N = n 2^(n-1); the proof that this is exact is in is_parabolic_up_to.

    Q_n(k) mod p for k = 0..N is disc(G) over F_p for the monic
    G(w) = f_k^n(w) - w = W_n - w of degree d = 2^n, with W_1 = w^2 + k and
    W_(j+1) = W_j^2 + k, the model of ``_period_model`` with denominator 1:
    (-1)^(d(d-1)/2) res(G, G').  Cached per (n, p).
    """
    sign = _disc_sign(2**n)
    values = []
    for k in range(n * 2 ** (n - 1) + 1):
        w = [k % p, 0, 1]
        for _ in range(1, n):
            w = _fp_mul(w, w, p)
            w[0] = (w[0] + k) % p
        w[1] = (w[1] - 1) % p
        values.append(sign * _fp_resultant(w, [i * a % p for i, a in enumerate(w)][1:], p) % p)
    return tuple(_fp_interpolate(values, p))


def is_parabolic_up_to(c: Union[Rat, RealAlgebraic], nmax: int) -> ParabolicVerdict:
    """Search for the least n <= nmax with P_n(4c) = 0.

    Inside a Fatou window the answer is NotUpToBound(nmax) at once, for c an
    int, a Fraction or a RealAlgebraic.  At real c < 1/4 the fixed-point
    multiplier 1 - sqrt(1 - 4c) lies in (-1, 1) exactly when -3/4 < c < 1/4,
    and the 2-cycle (the roots of z^2 + z + c + 1) has multiplier
    4 z_1 z_2 = 4(c + 1), in (-1, 1) exactly when -5/4 < c < -3/4.  Every
    attracting or parabolic cycle attracts a critical point (Fatou), and
    f_c has only one, 0, so inside a window f_c has no parabolic cycle.
    P_n(4c) = 0 exactly when f_c^n(z) - z has a multiple root: a point of
    some period k | n whose multiplier lambda has lambda^(n/k) = 1, a
    parabolic cycle.  So inside a window P_n(4c) != 0 for every n.  The
    windows end at rows of _PARABOLIC_CYCLES, which are parabolic and lie in
    no open window; each endpoint test is one exact comparison of c with a
    Fraction.  A window gives only NotUpToBound, and a row's recorded least
    n is never read here: "parabolic" comes from the routes below.

    A rational c is tested by point_discriminant(n, c) == 0, which builds no
    P_n.  At an irrational c = alpha with minimal polynomial m, of any degree,
    reducible or not, a modular resultant proves P_n(4 alpha) != 0 first
    (Collins, "The calculation of multivariate polynomial resultants", JACM
    18, 1971).  Let Q_n(x) = P_n(4x) = disc_z(f_x^n(z) - z), N = n 2^(n-1)
    and p the first prime of _WITNESS_PRIMES with p > N and p not dividing
    lc(m).  (1) Q_n is in Z[x]: the discriminant is a universal integer
    polynomial in the coefficients of a polynomial monic in z, so Q_n(k)
    mod p is the discriminant over F_p of f_k^n(w) - w.  (2) deg Q_n <= N:
    every periodic point has |z| <= R = (1 + sqrt(1 + 4|x|))/2, and
    Q_n(x) = +-prod ((f^n)'(z_i) - 1) over the 2^n roots, each factor at
    most (2R)^n + 1 in modulus, so |Q_n(x)| = O(|x|^N).  (3) So its values
    at the N + 1 nodes 0..N, distinct mod p since p > N, give Q_n mod p
    exactly (``_qn_mod``).  (4) lc(Q_n) = +-4^N and lc(m) are units mod p,
    so both degrees survive reduction and the Sylvester determinant
    Res(m, Q_n) reduces to Res(m mod p, Q_n mod p).  A nonzero residue makes
    Res(m, Q_n) = lc(m)^N prod Q_n(alpha_i) nonzero, so Q_n vanishes at no
    root of m, alpha included.  A zero residue, or no usable prime, sends n
    to the exact route: the sign of the cached bivariate P_n at b = 4 alpha
    by ``algebraic.sign_at``, one Tarski query, which is 0 exactly at a
    true zero.  So a "parabolic" verdict always comes from the exact route,
    and P_n is built only for an n whose witness residue is zero.
    """
    if nmax < 1:
        raise ValueError("nmax must be at least 1")
    if nmax > DISCRIMINANT_CAP:
        raise CapExceededError(f"discriminant cap is {DISCRIMINANT_CAP}, got nmax={nmax}")
    if _window_tag(c) is not None:
        return ParabolicVerdict("not-up-to-bound", nmax)
    if isinstance(c, RealAlgebraic) and not c.is_rational:
        m = c.minpoly

        def vanishes(n: int) -> bool:
            usable = (p for p in _WITNESS_PRIMES if p > n * 2 ** (n - 1) and m.leading % p)
            p = next(usable, None)
            if p is not None and _fp_resultant([k % p for k in m.coeffs], _qn_mod(n, p), p):
                return False
            return sign_at(discriminant_Pn(n), affine_transform(c, 4, 0)) == 0

    else:
        q = c.to_rational() if isinstance(c, RealAlgebraic) else Fraction(c)

        def vanishes(n: int) -> bool:
            return point_discriminant(n, q) == 0

    for n in range(1, nmax + 1):
        if vanishes(n):
            return ParabolicVerdict("parabolic", n)
    return ParabolicVerdict("not-up-to-bound", nmax)


def _root_power_sums(monic: list) -> list:
    """Power sums p_0, ..., p_(m-1) of the roots of a monic polynomial of degree m.

    Newton's identities: p_j + a_(m-1) p_(j-1) + ... + a_(m-j+1) p_1 + j a_(m-j) = 0
    for the coefficients a_i of z^i, low to high in ``monic``.
    """
    m = len(monic) - 1
    sums = [IntegerPoly.constant(m)]
    for j in range(1, m):
        acc = monic[m - j] * j
        for i in range(1, j):
            acc = acc + monic[m - i] * sums[j - i]
        sums.append(-acc)
    return sums


@lru_cache(maxsize=None)
def _multiplier_polynomial(n: int) -> IteratedMapPoly:
    derivative = IteratedMapPoly.constant(2**n) * IteratedMapPoly.z()
    for k in range(1, n):
        derivative = derivative * _iterate(k)
    cycles = sum(moebius(n // d) * 2**d for d in divisors(n)) // n
    # traces[k]: sum of D^k over the roots of the n-th dynatomic polynomial,
    # which is n times the k-th power sum of the cycle multipliers
    traces = [IntegerPoly.zero()] * (cycles + 1)
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 0:
            continue
        modulus = list(period_poly(d).coeffs_in_z)
        root_sums = _root_power_sums(modulus)
        reduced = IteratedMapPoly(_prem(list(derivative.coeffs_in_z), modulus, _IPOLY_RING))
        power = IteratedMapPoly.constant(1)
        for k in range(1, cycles + 1):
            power = IteratedMapPoly(_prem(list((power * reduced).coeffs_in_z), modulus, _IPOLY_RING))
            for r, p in zip(power.coeffs_in_z, root_sums):
                traces[k] = traces[k] + r * p * mu
    sums = [t.divide_exact(n) for t in traces]
    # Newton's identities: k e_k = sum_(i=1..k) (-1)^(i-1) e_(k-i) s_i
    elementary = [IntegerPoly.one()]
    for k in range(1, cycles + 1):
        acc = IntegerPoly.zero()
        for i in range(1, k + 1):
            term = elementary[k - i] * sums[i]
            acc = acc + term if i % 2 else acc - term
        elementary.append(acc.divide_exact(k))
    # Delta_n = sum_k (-1)^k e_k lambda^(cycles - k), stored low to high
    signed = [-e if k % 2 else e for k, e in enumerate(elementary)]
    return IteratedMapPoly(tuple(reversed(signed)))


def multiplier_polynomial(n: int) -> IteratedMapPoly:
    """Return Delta_n(lambda, c) = prod over the n-cycles of f_c of (lambda - lambda_j).

    The result is monic in lambda over Z[c], stored as an IteratedMapPoly
    whose variable is lambda; lambda_j = (f^n)'(z) at any point z of the
    j-th cycle (Milnor, "Geometry and dynamics of quadratic rational maps",
    Exp. Math. 2, 1993).  With D = (f^n)'(z) = 2^n z f(z) ... f^(n-1)(z),
    the trace of D^k modulo the monic f^d(z) - z is the sum of D^k over its
    roots: reduce D^k (remainder by a monic divisor), then pair the
    coefficients with the Newton power sums of the roots.  The roots of
    f^n(z) - z are those of the dynatomic polynomials Phi_d, d | n, so the
    Moebius combination over d | n gives the sum over the roots of Phi_n,
    n times the k-th power sum of the lambda_j; Newton's identities then
    give the coefficients.  Every division is exact in Z[c].  The
    construction specialises at every c: Delta_n(lambda, c)^n equals
    res_z(Phi_n, lambda - D), the product of lambda - D(z) over the roots z
    of Phi_n at that c.  Cached per n; capped by DISCRIMINANT_CAP.

    >>> multiplier_polynomial(2).coeffs_in_z  # lambda - 4c - 4
    (IntegerPoly(coeffs=(-4, -4)), IntegerPoly(coeffs=(1,)))
    """
    if n < 1:
        raise ValueError("period must be at least 1")
    if n > DISCRIMINANT_CAP:
        raise CapExceededError(f"discriminant cap is {DISCRIMINANT_CAP}, got n={n}")
    return _multiplier_polynomial(n)


def _at_multiplier(delta: IteratedMapPoly, x: Fraction) -> IntegerPoly:
    # q^N Delta(p/q, c) for x = p/q and N = deg Delta: an integer polynomial
    # in c with the sign of Delta(x, c)
    p, q = x.numerator, x.denominator
    top = delta.degree_in_z
    out = IntegerPoly.zero()
    for i, coeff in enumerate(delta.coeffs_in_z):
        out = out + coeff * (p**i * q ** (top - i))
    return out


def certify_attracting_cycle(
    c: Union[Rat, RealAlgebraic], n: int, a: Rat, b: Rat
) -> AttractingCycleCertificate:
    """Prove that f_c has an attracting cycle by a sign change of Delta_n(., c).

    Requires -1 <= a < b <= 1 and strictly opposite signs of Delta_n(a, c)
    and Delta_n(b, c), taken exactly (``algebraic.sign_at`` at an
    irrational c, ``IntegerPoly.sign_at`` at a rational one); otherwise
    MultiplierMismatchError.  The real polynomial Delta_n(., c) then has a
    root lambda in (a, b).  Since Delta_n(lambda, c)^n is the product of
    lambda - (f^n)'(z) over the roots z of Phi_n, lambda = (f^n)'(z) at a
    point with f^n(z) = z; its cycle has some period p | n and a multiplier
    mu with mu^(n/p) = lambda, so |mu| < 1 and the cycle attracts.  By
    Fatou's theorem it attracts the one critical point of f_c, so f_c has
    no parabolic cycle.  ``modulus_bound`` is max(|a|, |b|), above |lambda|.
    """
    a, b = Fraction(a), Fraction(b)
    if not -1 <= a < b <= 1:
        raise ValueError(f"multiplier interval ({a}, {b}) must satisfy -1 <= a < b <= 1")
    delta = multiplier_polynomial(n)
    if isinstance(c, RealAlgebraic):
        signs = [sign_at(_at_multiplier(delta, x), c) for x in (a, b)]
    else:
        c = Fraction(c)
        signs = [_at_multiplier(delta, x).sign_at(c) for x in (a, b)]
    if signs[0] * signs[1] != -1:
        raise MultiplierMismatchError(
            f"Delta_{n}(lambda, {c}) does not change sign on ({a}, {b})"
        )
    return AttractingCycleCertificate(
        period=n, parameter=c, lo=a, hi=b, modulus_bound=max(abs(a), abs(b))
    )
