"""Real algebraic numbers: construction, ordering, conjugates, transforms."""

import time
from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import helpers
import real_algebraic_table
from parabkit import algebraic, polyring
from parabkit.algebraic import (
    NotIsolatingError,
    NotSquarefreeError,
    RealAlgebraic,
    ZeroScaleError,
    affine_transform,
    all_conjugates_in,
    from_rational,
    is_totally_real,
    make_real_algebraic,
    sign_at,
)
from parabkit.cyclotomic import is_cyclotomic_product
from parabkit.polyring import (
    ConstantPolynomialError,
    IntegerPoly,
    ParabkitError,
    RationalInterval,
    cauchy_bound,
    isolate_real_roots,
    squarefree_part,
    sturm_count,
)

SQRT2_POLY = IntegerPoly((-2, 0, 1))
GOLDEN_POLY = IntegerPoly((-1, 1, 1))  # roots (-1 +- sqrt5)/2
CANDIDATE_POLY = IntegerPoly((41, 52, 16))  # roots (-13 +- sqrt5)/8


def _root(p, index):
    return make_real_algebraic(p, isolate_real_roots(p)[index])


def test_construction_from_isolating_interval():
    alpha = _root(SQRT2_POLY, 1)
    assert not alpha.is_rational
    assert alpha.degree == 2
    assert alpha.minpoly == SQRT2_POLY
    assert helpers.contains(alpha.isolation, alpha.approx(30))


def test_construction_rejects_bad_intervals():
    with pytest.raises(NotIsolatingError):
        make_real_algebraic(SQRT2_POLY, RationalInterval(F(-3), F(3)))  # two roots
    with pytest.raises(NotIsolatingError):
        make_real_algebraic(SQRT2_POLY, RationalInterval(F(3), F(4)))  # no roots


def test_construction_rejects_repeated_roots():
    with pytest.raises(NotSquarefreeError):
        make_real_algebraic(IntegerPoly((1, -2, 1)), RationalInterval(F(0), F(2)))


def test_degree_one_input_collapses_to_rational():
    alpha = make_real_algebraic(IntegerPoly((7, 4)), RationalInterval(F(-2), F(-1)))
    assert alpha.is_rational and alpha.to_rational() == F(-7, 4)


def test_from_rational():
    alpha = from_rational(F(-7, 4))
    assert alpha.is_rational and alpha.to_rational() == F(-7, 4)
    assert alpha.minpoly == IntegerPoly((7, 4))
    assert alpha.degree == 1
    assert str(alpha) == "-7/4"
    assert str(from_rational(3)) == "3"


def test_equality_is_semantic():
    sqrt2_a = _root(SQRT2_POLY, 1)
    sqrt2_b = make_real_algebraic(SQRT2_POLY, RationalInterval(F(1), F(2)))
    assert sqrt2_a == sqrt2_b
    assert hash(sqrt2_a) == hash(sqrt2_b)
    assert sqrt2_a != _root(SQRT2_POLY, 0)
    assert from_rational(F(1, 2)) == from_rational(F(2, 4))
    # a rational hashes as its Fraction, so either finds the other in a set
    half = from_rational(F(1, 2))
    assert half == F(1, 2) and hash(half) == hash(F(1, 2))
    assert F(1, 2) in {half} and half in {F(1, 2)} and 3 in {from_rational(3)}


def test_ordering():
    neg_sqrt2, sqrt2 = _root(SQRT2_POLY, 0), _root(SQRT2_POLY, 1)
    golden = _root(GOLDEN_POLY, 1)
    assert neg_sqrt2 < golden < sqrt2
    assert golden < from_rational(F(2, 3))
    assert from_rational(F(3, 5)) < golden
    assert sorted([sqrt2, golden, neg_sqrt2]) == [neg_sqrt2, golden, sqrt2]


def test_ordering_needs_no_narrowing():
    # two distinct numbers within 2^-10000 of each other, and sqrt2 under a
    # reducible minimal polynomial against the irreducible one: exact order
    sqrt2 = make_real_algebraic(SQRT2_POLY, RationalInterval(1, 2))
    near = make_real_algebraic(IntegerPoly((-(2**10001 + 1), 0, 2**10000)), RationalInterval(1, 2))
    start = time.monotonic()
    assert (sqrt2 < near, sqrt2 <= near, sqrt2 > near, sqrt2 >= near) == (True, True, False, False)
    assert (near < sqrt2, near > sqrt2, sqrt2 == near) == (False, True, False)
    assert time.monotonic() - start < 0.1
    reducible = make_real_algebraic(SQRT2_POLY * IntegerPoly((5, 1)), RationalInterval(1, 2))
    for a, b in ((reducible, sqrt2), (sqrt2, reducible)):
        assert (a < b, a > b, a <= b, a >= b) == (False, False, True, True)
        assert a != b  # == compares minimal polynomials first
    with pytest.raises(TypeError):
        sqrt2 < 1.5


def test_approx_accuracy():
    sqrt2 = _root(SQRT2_POLY, 1)
    approx = sqrt2.approx(25)
    with mpmath.workdps(40):
        err = abs(mpmath.mpf(approx.numerator) / approx.denominator - mpmath.sqrt(2))
        assert err < mpmath.mpf(10) ** -24


def test_refined_preserves_identity():
    sqrt2 = _root(SQRT2_POLY, 1)
    tight = sqrt2.refined(F(1, 10**12))
    assert tight == sqrt2
    assert tight.isolation.width <= F(1, 10**12)


def test_make_real_algebraic_takes_each_endpoint_sign_once(monkeypatch):
    # the root count's two endpoint signs also decide the closed-endpoint
    # roots; the sign at lo, which the clamp to the root bound leaves in
    # place here, also starts the rational-root test's bisection state, and
    # no sign tests the candidate -1, an end of the narrowed cell (-9/8, -1)
    taken = []
    sign_at = IntegerPoly.sign_at
    monkeypatch.setattr(IntegerPoly, "sign_at", lambda p, x: taken.append(x) or sign_at(p, x))
    alpha = make_real_algebraic(IntegerPoly((-3, 5, 7)), RationalInterval(F(-2), F(-1)))
    assert not alpha.is_rational
    assert taken == [F(-2), F(-1)]
    # a lo the clamp moves, here -10 to the root bound -4 of x^2-2, needs its
    # own sign at the clamped end
    taken.clear()
    assert not make_real_algebraic(IntegerPoly((-2, 0, 1)), RationalInterval(F(-10), F(-1))).is_rational
    assert taken == [F(-10), F(-1), F(-4)]


def test_excluded_endpoint_root_keeps_the_isolated_root():
    # -1 is a root of x^2-1 but lies outside (-1, 2]; the one root inside is 1.
    one = make_real_algebraic(IntegerPoly((-1, 0, 1)), RationalInterval(F(-1), F(2), lo_strict=True))
    assert one == 1
    assert helpers.contains(one.refined(F(1, 2**40)).isolation, F(1))
    assert from_rational(F(1, 2)) < one < from_rational(F(3, 2))


def test_both_endpoints_roots_open_interval():
    zero = make_real_algebraic(IntegerPoly((0, -1, 0, 1)), RationalInterval(F(-1), F(1), True, True))
    assert zero == 0
    assert zero.is_rational and zero.to_rational() == 0


@given(
    roots=st.sets(st.fractions(min_value=-6, max_value=6, max_denominator=4), min_size=1, max_size=5),
    shift=st.sampled_from((-7, -6, -5, -3, -2, 1, 2, 5)),
    exponent=st.integers(min_value=1, max_value=40),
)
@settings(max_examples=60, deadline=None)
def test_refined_keeps_one_root(roots, shift, exponent):
    # Distinct rational roots times x^2 + shift (two irrational roots or
    # none): always squarefree.  Each interval from isolate_real_roots is
    # also widened to end at the neighbouring rational roots where it still
    # isolates one root, so excluded endpoint roots are exercised.
    p = helpers.RationalPoly((F(shift), F(0), F(1)))
    for r in roots:
        p = p * helpers.RationalPoly((-r, F(1)))
    p = helpers.primitive_of(p)
    width = F(1, 2**exponent)
    for iv in isolate_real_roots(p):
        if iv.is_point:
            continue
        wide = iv
        below = max((r for r in roots if r <= iv.lo), default=iv.lo)
        above = min((r for r in roots if r >= iv.hi), default=iv.hi)
        for lo, hi in ((below, wide.hi), (wide.lo, above)):
            candidate = RationalInterval(lo, hi, True, True)
            if sturm_count(p, candidate) == 1:
                wide = candidate
        for value in (RealAlgebraic(p, wide), make_real_algebraic(p, wide)):
            tight = value.refined(width).isolation
            assert sturm_count(p, tight) == 1
            assert tight.is_point or tight.width <= width
            assert wide.lo <= tight.lo and tight.hi <= wide.hi  # so the same root


def test_str_forms():
    assert str(_root(SQRT2_POLY, 1)).startswith("x^2-2@[")
    assert str(_root(CANDIDATE_POLY, 0)).startswith("16x^2+52x+41@[")


def test_is_totally_real():
    assert is_totally_real(SQRT2_POLY)
    assert is_totally_real(CANDIDATE_POLY)
    assert not is_totally_real(IntegerPoly((1, 0, 1)))  # x^2+1
    assert not is_totally_real(IntegerPoly((-2, 0, 0, 1)))  # x^3-2
    from parabkit.cyclotomic import trace_polynomial

    assert is_totally_real(trace_polynomial(7))
    with pytest.raises(NotSquarefreeError):
        is_totally_real(IntegerPoly((1, -2, 1)))


def test_all_conjugates_in():
    assert all_conjugates_in(GOLDEN_POLY, RationalInterval(F(-2), F(1)))
    assert not all_conjugates_in(GOLDEN_POLY, RationalInterval(F(0), F(2)))
    assert all_conjugates_in(CANDIDATE_POLY, RationalInterval(F(-2), F(-5, 4)))
    assert not all_conjugates_in(CANDIDATE_POLY, RationalInterval(F(-2), F(-3, 2)))
    # complex conjugates disqualify regardless of the window
    assert not all_conjugates_in(IntegerPoly((1, 0, 1)), RationalInterval(F(-9), F(9)))


def test_affine_transform_rational():
    alpha = from_rational(F(-7, 4))
    image = affine_transform(alpha, F(4), F(6))  # b = 4c + 6
    assert image.is_rational and image.to_rational() == F(-1)


def test_affine_transform_quadratic_and_inverse():
    golden = _root(GOLDEN_POLY, 1)
    c = affine_transform(golden, F(1, 4), F(-3, 2))  # c = (b - 6)/4
    assert c.minpoly == CANDIDATE_POLY
    back = affine_transform(c, F(4), F(6))
    assert back == golden
    with pytest.raises(ZeroScaleError):
        affine_transform(golden, F(0), F(1))


def test_sign_at():
    sqrt2 = _root(SQRT2_POLY, 1)
    assert sign_at(SQRT2_POLY, sqrt2) == 0
    assert sign_at(IntegerPoly((-2, 1)), sqrt2) == -1  # x - 2 < 0 at sqrt2
    assert sign_at(IntegerPoly((0, 1)), sqrt2) == 1
    assert sign_at(IntegerPoly((-3, 0, 1)), sqrt2) == -1  # x^2 - 3 < 0 at sqrt2
    assert sign_at(IntegerPoly((5,)), sqrt2) == 1
    assert sign_at(IntegerPoly(()), sqrt2) == 0


def test_sign_at_rational_point():
    half = from_rational(F(1, 2))
    assert sign_at(IntegerPoly((-1, 2)), half) == 0
    assert sign_at(IntegerPoly((-1, 4)), half) == 1


def test_sign_at_reducible_minpoly():
    # -3/4 as the root of the squarefree but reducible (4x+3)(x^2-2) in
    # (-1, -1/4); no bisection midpoint of that interval is -3/4, and the
    # rational root collapses to the rational.  The root sqrt2 keeps the
    # reducible minimal polynomial, so its zeros are decided through the gcd.
    reducible = IntegerPoly((-6, -8, 3, 4))
    alpha = make_real_algebraic(reducible, RationalInterval(F(-1), F(-1, 4)))
    assert alpha.is_rational
    assert sign_at(IntegerPoly((3, 4)), alpha) == 0
    assert sign_at(IntegerPoly((-6, -8, 3, 4)), alpha) == 0
    assert sign_at(IntegerPoly((-2, 0, 1)), alpha) == -1  # x^2 - 2 at -3/4
    assert sign_at(IntegerPoly((4, 4)), alpha) == 1  # 4x + 4 at -3/4
    root2 = make_real_algebraic(reducible, RationalInterval(F(1), F(2)))
    assert not root2.is_rational and root2.minpoly == reducible
    assert sign_at(SQRT2_POLY, root2) == 0
    assert sign_at(reducible, root2) == 0
    assert sign_at(IntegerPoly((3, 4)), root2) == 1
    assert sign_at(IntegerPoly((-3, 0, 1)), root2) == -1


def test_rational_roots_collapse_to_rationals():
    # -3/4 is a root of (4x+3)(x^2-2) inside (-1, -1/4), where no bisection
    # midpoint reaches it, at the closed end of [-3/4, 0], and a bisection
    # midpoint of [-1, -1/2]; every form is the rational -3/4.
    reducible = IntegerPoly((-6, -8, 3, 4))
    for lo, hi in ((F(-1), F(-1, 4)), (F(-3, 4), F(0)), (F(-1), F(-1, 2))):
        alpha = make_real_algebraic(reducible, RationalInterval(lo, hi))
        assert alpha == from_rational(F(-3, 4))
        assert alpha.minpoly == IntegerPoly((3, 4)) and alpha.isolation.is_point
    # a large leading coefficient needs narrowing far below width 1
    huge = IntegerPoly((3, 10**50)) * SQRT2_POLY
    assert make_real_algebraic(huge, RationalInterval(F(-1), F(0))) == from_rational(F(-3, 10**50))
    assert make_real_algebraic(IntegerPoly((-3, 10**50)), RationalInterval(F(0), F(1))).isolation.is_point
    # an excluded end 0 is a rational root, but the root isolated in (0, 1]
    # is -5 + sqrt26 and the one in [-1/2, 0) is 5 - sqrt26
    above = make_real_algebraic(IntegerPoly((0, -1, 10, 1)), RationalInterval(F(0), F(1), lo_strict=True))
    assert not above.is_rational and above > 0
    below = make_real_algebraic(IntegerPoly((0, -1, -10, 1)), RationalInterval(F(-1, 2), F(0), hi_strict=True))
    assert not below.is_rational and below < 0


def test_make_real_algebraic_matches_the_recorded_table():
    for p, lo, hi, lo_strict, hi_strict, *expected in real_algebraic_table.TABLE:
        interval = RationalInterval(F(lo), F(hi), lo_strict, hi_strict)
        if len(expected) == 1:
            with pytest.raises(ParabkitError) as err:
                make_real_algebraic(IntegerPoly(p), interval)
            assert type(err.value).__name__ == expected[0], (p, interval)
            continue
        value = make_real_algebraic(IntegerPoly(p), interval)
        minpoly, *isolation = expected
        recorded = RealAlgebraic(value.minpoly, RationalInterval(F(isolation[0]), F(isolation[1]), *isolation[2:]))
        assert value.minpoly.coeffs == minpoly, (p, interval)
        if recorded.isolation.is_point:
            assert value.isolation == recorded.isolation, (p, interval)
            continue
        # the recorded isolation was narrowed to width 1; the stored one is
        # the caller's, opened and clamped to the root bound, around it
        bound = cauchy_bound(value.minpoly)
        clamped = RationalInterval(max(interval.lo, -bound), min(interval.hi, bound), True, True)
        assert value.isolation == clamped, (p, interval)
        assert clamped.lo <= recorded.isolation.lo and recorded.isolation.hi <= clamped.hi, (p, interval)
        assert value == recorded, (p, interval)
    # an isolation more than 4096 halvings wide: the rational-root test's
    # narrowing to width 1/lc has no cap, since the root bound fixes its length
    wide = make_real_algebraic(IntegerPoly((-(10**1300), 0, 1)), RationalInterval(0, 10**1300))
    assert wide == from_rational(10**650) and wide.isolation.is_point


def test_a_fresh_quadratic_builds_one_chain_and_one_bisection(monkeypatch):
    # counts, not times: one PRS (the cached Sturm chain), no second PRS for
    # the squarefree model, and one bisection state, the rational-root test's
    calls = {"_Bisection": 0}

    class CountedBisection(polyring._Bisection):
        def __init__(self, *args):
            calls["_Bisection"] += 1
            super().__init__(*args)

    monkeypatch.setattr(algebraic, "_Bisection", CountedBisection)
    misses = polyring._sturm_chain.cache_info().misses
    value = make_real_algebraic(IntegerPoly((-1234577, 1000033, 7654321)), RationalInterval(0, 1))
    assert not value.is_rational and value.isolation.width <= 1
    assert polyring._sturm_chain.cache_info().misses - misses == 1
    assert calls == {"_Bisection": 1}


def test_refined_rejects_a_non_positive_width():
    for value in (_root(SQRT2_POLY, 1), from_rational(F(1, 3))):
        for width in (F(0), F(-1, 3)):
            with pytest.raises(ValueError, match=str(width)):
                value.refined(width)


@st.composite
def squarefree_polys(draw):
    # squarefree integer polynomials of degree <= 5, some with rational roots
    # so that isolations can end at another root
    roots = draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6), max_size=3, unique=True))
    rest = IntegerPoly(tuple(draw(st.lists(st.integers(-30, 30), min_size=1, max_size=6 - len(roots)))))
    p = rest
    for r in roots:
        p = p * IntegerPoly((-r.numerator, r.denominator))
    assume(p.degree >= 1)
    return squarefree_part(p)


def _isolations(m):
    # every open isolation of a root of m, and the wider ones that end at
    # another (rational) root of m: the excluded endpoint case
    points = [iv.lo for iv in isolate_real_roots(m) if iv.is_point]
    for iv in isolate_real_roots(m):
        if iv.is_point:
            continue
        yield iv
        below = max((r for r in points if r < iv.lo), default=None)
        above = min((r for r in points if r > iv.hi), default=None)
        for lo, hi in ((below, iv.hi), (iv.lo, above), (below, above)):
            if lo is not None and hi is not None:
                wide = RationalInterval(lo, hi, True, True)
                if sturm_count(m, wide) == 1:
                    yield wide


widths = st.one_of(
    st.fractions(min_value=F(1, 10**30), max_value=4, max_denominator=10**30),
    st.integers(min_value=0, max_value=100).map(lambda k: F(1, 2**k)),
)


@given(m=squarefree_polys(), width=widths)
@settings(max_examples=100, deadline=None)
def test_refined_matches_fraction_bisection(m, width):
    for iv in _isolations(m):
        assert RealAlgebraic(m, iv).refined(width).isolation == helpers.fraction_refined(m, iv, width)
    minus_one_excluded = RationalInterval(F(-1), F(2), True, True)
    expected = helpers.fraction_refined(IntegerPoly((-1, 0, 1)), minus_one_excluded, width)
    assert RealAlgebraic(IntegerPoly((-1, 0, 1)), minus_one_excluded).refined(width).isolation == expected


@given(
    m=squarefree_polys(),
    g=st.lists(st.integers(min_value=-(10**30), max_value=10**30), min_size=1, max_size=4),
    c=st.sampled_from((-2, -1, 1, 2)),
    j=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_sign_at_matches_fraction_evaluation_near_zero(m, g, c, j):
    # p = g*m + c*x^j is a small perturbation of a multiple of m: it has a
    # root very close to each root alpha of m, yet p(alpha) = c*alpha^j is
    # not zero (a root 0 of m is skipped: a split point, or the one root in
    # the one cell (-B, B)).
    multiple = m * IntegerPoly(tuple(g))
    assume(not multiple.is_zero)
    p = multiple + IntegerPoly((0,) * j + (c,))
    for iv in isolate_real_roots(m):
        if iv.is_point or (m.coeff(0) == 0 and iv.lo < 0 < iv.hi):
            continue
        alpha = RealAlgebraic(m, iv)
        assert sign_at(multiple, alpha) == 0
        narrow = iv
        while sturm_count(p, narrow):
            narrow = helpers.fraction_refined(m, narrow, narrow.width / 2)
        value = helpers.evaluate(p, narrow.midpoint)
        assert sign_at(p, alpha) == (value > 0) - (value < 0)


@given(m=squarefree_polys(), cs=st.lists(st.integers(-50, 50), max_size=7))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_sign_at_matches_the_gcd_and_bisection_route(m, cs):
    # the Tarski query against the route it replaced, on reducible minimal
    # polynomials and isolations that end at another root; p times a factor
    # of m vanishes at some roots of m and not at others
    p = IntegerPoly(tuple(cs))
    polys = [p, p * m]
    for iv in isolate_real_roots(m):
        root = make_real_algebraic(m, iv)
        if root.is_rational:  # a linear minimal polynomial, a factor of m
            polys += [p * root.minpoly, p * m.divide_exact(root.minpoly)]
    for iv in _isolations(m):
        alpha = RealAlgebraic(m, iv)
        for q in polys:
            assert sign_at(q, alpha) == helpers.bisection_sign_at(q, alpha), (q, alpha)


def test_sign_at_a_convergent_of_sqrt2_within_2_to_the_minus_20000():
    # p/q, the 16000th convergent after 1/1, is below sqrt2 by less than
    # 1/q^2 < 2^-40000: the sign needs no refinement of the isolation
    p, q = 1, 1
    for _ in range(16000):
        p, q = p + 2 * q, p + q
    assert q.bit_length() > 20000
    sqrt2 = make_real_algebraic(SQRT2_POLY, RationalInterval(1, 2))
    start = time.monotonic()
    assert sign_at(IntegerPoly((-p, q)), sqrt2) == 1
    assert time.monotonic() - start < 1


@given(
    m=squarefree_polys(),
    n=squarefree_polys(),
    q=st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_ordering_matches_the_halving_route(m, n, q):
    # the exact three-way comparison against the halving loop it replaced,
    # wherever that loop converges: two irrationals, or one and a rational,
    # on reducible minimal polynomials and isolations ending at a root; a
    # pair that 64 halvings do not part, such as one number written with two
    # minimal polynomials, is left out
    numbers = [RealAlgebraic(p, iv) for p in (m, n) for iv in _isolations(p)]
    numbers += [from_rational(q)] + [make_real_algebraic(m, iv) for iv in isolate_real_roots(m)]
    for a in numbers:
        for b in numbers + [q, round(q)]:
            expected = helpers.halving_compare(a, b, cap=64)
            if expected is None:
                continue
            # == also asks for the same minimal polynomial
            equal = expected == 0 and (not isinstance(b, RealAlgebraic) or a.minpoly == b.minpoly)
            got = (a < b, a <= b, a > b, a >= b, a == b)
            assert got == (expected < 0, expected <= 0, expected > 0, expected >= 0, equal), (a, b)


nonzero_scales = st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool)


@given(
    m=squarefree_polys(),
    s=nonzero_scales,
    t=st.fractions(min_value=-50, max_value=50, max_denominator=50),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_affine_transform_matches_fraction_substitution(m, s, t):
    # the integer scaling and Taylor shift against the Fraction substitution
    # re-validated by make_real_algebraic, for every irrational root of m,
    # including isolations that end at another root
    for iv in _isolations(m):
        if make_real_algebraic(m, iv).is_rational:
            continue
        alpha = RealAlgebraic(m, iv)
        image = affine_transform(alpha, s, t)
        expected = helpers.fraction_affine_transform(alpha, s, t)
        assert (image.minpoly, image.isolation) == (expected.minpoly, expected.isolation)
        assert image == expected


def test_constant_polynomials_are_refused():
    for p in (IntegerPoly((5,)), IntegerPoly((1,))):
        with pytest.raises(ConstantPolynomialError):
            is_totally_real(p)
        with pytest.raises(ConstantPolynomialError):
            all_conjugates_in(p, RationalInterval(F(-1), F(1)))
        with pytest.raises(ConstantPolynomialError):
            is_cyclotomic_product(p)
