"""Exact polynomial arithmetic, resultants, Sturm counts, isolation, parsing."""

import random
import sys
import time
from fractions import Fraction as F
from itertools import product, zip_longest

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import _int_gcd
from parabkit.algebraic import make_real_algebraic
from parabkit.cyclotomic import trace_polynomial
from parabkit.polyring import (
    ConstantPolynomialError,
    IntegerPoly,
    NotDivisibleError,
    ParseError,
    RationalInterval,
    UnknownVariableError,
    ZeroPolynomialError,
    cauchy_bound,
    discriminant,
    discriminant_in_z,
    format_poly,
    isolate_real_roots,
    parse_poly,
    resultant,
    squarefree_part,
    sturm_count,
)
from parabkit import polyring
from parabkit.polyring import _KRONECKER_RATIO, _sign_changes, _sturm_chain

rational = st.fractions(min_value=-30, max_value=30, max_denominator=12)
rational_polys = st.lists(rational, min_size=1, max_size=7).map(lambda cs: helpers.RationalPoly(tuple(cs)))
small_int_polys = st.lists(
    st.integers(min_value=-9, max_value=9), min_size=2, max_size=5
).map(lambda cs: IntegerPoly(tuple(cs)))


def test_normalization_strips_trailing_zeros():
    p = IntegerPoly((1, 2, 0, 0))
    assert p.coeffs == (1, 2)
    assert p.degree == 1
    assert IntegerPoly((0, 0)).is_zero
    assert IntegerPoly.zero().degree == -1


def test_arithmetic_identities():
    p = parse_poly("x^3-2x+1")
    q = parse_poly("x^2+x")
    assert p + q - q == p
    assert p * IntegerPoly.one() == p
    assert p * IntegerPoly.zero() == IntegerPoly.zero()
    assert (p * q).degree == p.degree + q.degree
    x = F(3, 2)
    assert helpers.evaluate(p * q, x) == helpers.evaluate(p, x) * helpers.evaluate(q, x)
    assert parse_poly("3x^2-6") == IntegerPoly((-2, 0, 1))  # the primitive part


def test_integer_poly_content_and_primitive():
    p = IntegerPoly((-4, 0, -6))
    assert p.content() == -2  # content carries the sign of the leading term
    assert p.primitive() == IntegerPoly((2, 0, 3))
    prim = parse_poly("4/3x^2-2/3")
    assert prim == IntegerPoly((-1, 0, 2))
    assert prim.content() == 1 and not prim.is_monic


def test_integer_poly_divide_exact():
    p = IntegerPoly((-1, 0, 1))
    q = IntegerPoly((1, 1))
    assert (p * q).divide_exact(q) == p
    with pytest.raises(NotDivisibleError):
        IntegerPoly((1, 1, 1)).divide_exact(IntegerPoly((1, 1)))
    with pytest.raises(ZeroPolynomialError):
        p.divide_exact(IntegerPoly.zero())
    # product rule on a fixed pair
    r, s = IntegerPoly((1, 0, 1)), IntegerPoly((0, -1, 0, 1))
    assert (r * s).derivative() == r.derivative() * s + r * s.derivative()


# int factors and divisors for the kernel tests, up to 2000 bits
kernel_scalars = st.one_of(st.just(0), st.integers(-9, 9), st.integers(-(2**2000), 2**2000))


@st.composite
def kernel_coeff_lists(draw):
    """Coefficient lists of 1 to 200 terms of up to 2000 bits, with zeros at
    both ends and inside; the public constructor strips those at the top.
    The values come from a drawn Random, since a list of that size drawn
    term by term would overrun Hypothesis's buffer."""
    n = draw(st.one_of(st.integers(1, 12), st.integers(13, 200)))
    bits = draw(st.sampled_from((1, 8, 64, 600, 2000)))
    zeros = draw(st.sampled_from((0.0, 0.2, 0.7)))
    rng = draw(st.randoms(use_true_random=False))
    body = [0 if rng.random() < zeros else rng.randint(-1, 1) << rng.randint(0, bits) for _ in range(n)]
    body = [c + rng.randint(-abs(c), abs(c)) for c in body]
    return [0] * draw(st.integers(0, 3)) + body + [0] * draw(st.integers(0, 2))


def assert_kernel_result(got, expected_coeffs):
    # a result equals, and hashes like, the validated poly of the oracle
    expected = IntegerPoly(tuple(expected_coeffs))
    assert type(got) is IntegerPoly and type(got.coeffs) is tuple
    assert got == expected and got.coeffs == expected.coeffs
    assert hash(got) == hash(expected)


def check_kernel(a, b, k):
    p, q = IntegerPoly(tuple(a)), IntegerPoly(tuple(b))
    assert_kernel_result(p * q, helpers.schoolbook_product(p.coeffs, q.coeffs))
    assert_kernel_result(p * k, helpers.schoolbook_product(p.coeffs, k))
    assert_kernel_result(k * p, helpers.schoolbook_product(p.coeffs, k))
    assert_kernel_result(p + q, map(sum, zip_longest(p.coeffs, q.coeffs, fillvalue=0)))
    assert_kernel_result(p - p, ())
    assert_kernel_result(-p, [-c for c in p.coeffs])
    assert_kernel_result(p.derivative(), [i * c for i, c in enumerate(p.coeffs)][1:])
    if q.is_zero:
        with pytest.raises(ZeroPolynomialError):
            p.divide_exact(q)
        return
    assert_kernel_result((p * q).divide_exact(q), p.coeffs)
    quotient = helpers.schoolbook_quotient(p.coeffs, q.coeffs)
    if quotient is None:
        with pytest.raises(NotDivisibleError):
            p.divide_exact(q)
    else:
        assert_kernel_result(p.divide_exact(q), quotient)
    # a nonzero remainder below deg q, down to a constant alone
    for r in (IntegerPoly((1,)), IntegerPoly(tuple(b[: q.degree]))):
        if q.degree > 0 and not r.is_zero:
            with pytest.raises(NotDivisibleError):
                (p * q + r).divide_exact(q)
    if k:
        assert_kernel_result((p * k).divide_exact(k), p.coeffs)
    else:
        with pytest.raises(ZeroPolynomialError):
            p.divide_exact(k)


@given(a=kernel_coeff_lists(), b=kernel_coeff_lists(), k=kernel_scalars)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_kernel_matches_the_schoolbook_oracle(a, b, k):
    check_kernel(a, b, k)


@pytest.mark.parametrize("step", [1, 2, 4, 8, 16])
def test_kernel_on_both_sides_of_the_cutoff(step):
    # dense shapes just below, at and above the packing cutoff, far above
    # it, and a sparse one above it in length only
    rng = random.Random(step)
    short = _KRONECKER_RATIO + step
    edge = _KRONECKER_RATIO * short // step + 1  # the least long length that packs
    for long in (1, edge - 1, edge, edge + 1, 200):
        for bits in (1, 64, 2000):
            a = [rng.randint(-(2**bits), 2**bits) or 1 for _ in range(short)]
            b = [rng.randint(-(2**bits), 2**bits) or 1 for _ in range(long)]
            check_kernel(a, b, rng.randint(-(2**bits), 2**bits))
            check_kernel(b, a, 0)
    check_kernel([0] * 200 + [1], [1] * 201, 1)


@given(p=rational_polys, q=rational_polys)
@settings(max_examples=60, deadline=None)
def test_product_division_roundtrip(p, q):
    if q.is_zero:
        return
    p, q = helpers.primitive_of(p), helpers.primitive_of(q)
    assert (p * q).divide_exact(q) == p


@given(p=small_int_polys, q=small_int_polys, r=small_int_polys)
@settings(max_examples=40, deadline=None)
def test_resultant_multiplicative_and_swap(p, q, r):
    if p.degree < 1 or q.degree < 1 or r.degree < 1:
        return
    assert resultant(p * q, r) == resultant(p, r) * resultant(q, r)
    sign = F(-1) ** (p.degree * q.degree)
    assert resultant(p, q) == sign * resultant(q, p)


@given(p=small_int_polys, q=small_int_polys)
@settings(max_examples=60, deadline=None)
def test_resultant_matches_sylvester(p, q):
    if p.degree < 1 or q.degree < 1:
        return
    assert resultant(p, q) == helpers.sylvester_resultant(p, q)


def test_resultant_numeric_oracle():
    helpers.check_resultant_numeric(cases=30, tol=1e-6)


def test_discriminant_known_values():
    # disc(x^2 + bx + c) = b^2 - 4c
    def disc(text):
        return discriminant(parse_poly(text))

    assert disc("x^2+3x+1") == 5
    assert disc("x^2-2") == 8
    assert disc("x^3-x") == 4
    assert disc("(x-1)^2") == 0
    with pytest.raises(ConstantPolynomialError):
        disc("5")


def test_discriminant_in_z_matches_direct():
    # bivariate wrapper agrees with direct discriminants after specialization
    from parabkit.dynamics import iterate_map, period_poly

    pn = period_poly(2)
    direct = helpers.rational_discriminant(helpers.evaluate_at_c(pn, F(-1, 3)))
    via_poly = helpers.evaluate(discriminant_in_z(pn), F(-1, 3))
    assert via_poly == direct


def test_squarefree_part():
    p = parse_poly("(x-1)^2*(x+2)")
    sf = squarefree_part(p)
    assert sf == parse_poly("(x-1)(x+2)")
    q = parse_poly("x^2-2")
    assert squarefree_part(q) == q


@given(p=small_int_polys, q=small_int_polys, r=small_int_polys)
@settings(max_examples=60, deadline=None)
def test_int_gcd_divides_and_leaves_coprime_cofactors(p, q, r):
    a, b = p * r, q * r
    if a.is_zero or b.is_zero:
        return
    g = _int_gcd(a, b)
    assert g.leading > 0 and g.content() == 1
    g.divide_exact(r.primitive())  # the common factor r divides the gcd
    ca, cb = a.divide_exact(g), b.divide_exact(g)  # and the gcd divides both
    if ca.degree >= 1 and cb.degree >= 1:
        assert resultant(ca, cb) != 0


@given(p=small_int_polys, q=small_int_polys, e=st.integers(min_value=1, max_value=3))
@settings(max_examples=60, deadline=None)
def test_squarefree_model_has_the_same_roots_once(p, q, e):
    f = p**e * q
    if f.is_zero:
        return
    model = squarefree_part(f)
    assert model.leading > 0 and model.content() == 1
    f.divide_exact(model)  # every root of the model is a root of f
    if f.degree >= 1:
        (model ** f.degree).divide_exact(f.primitive())  # and conversely
        assert discriminant(model) != 0  # each root once
    # the parser-boundary conversion of f has the same model
    assert squarefree_part(helpers.primitive_of(helpers.RationalPoly(f.coeffs))) == model


factors = st.one_of(
    st.integers(-9, 9).filter(bool).map(lambda c: IntegerPoly((c,))),
    st.tuples(st.integers(-9, 9), st.integers(1, 6)).map(lambda ab: IntegerPoly((ab[0], ab[1]))),
    small_int_polys,
)


@given(
    parts=st.lists(st.tuples(factors, st.integers(min_value=1, max_value=4)), min_size=1, max_size=4),
    content=st.integers(-12, 12).filter(bool),
)
@settings(max_examples=150, deadline=None)
def test_squarefree_part_matches_the_gcd_route(parts, content):
    # products with repeated factors, constants, linear factors and content != 1
    f = IntegerPoly((content,))
    for g, e in parts:
        f = f * g**e
    if f.is_zero:
        return
    assert squarefree_part(f) == helpers.gcd_squarefree_part(f)


def test_cauchy_bound_contains_roots():
    p = parse_poly("x^2-10x+1")
    bound = cauchy_bound(p)
    assert sturm_count(p, RationalInterval(-bound, bound)) == 2
    # the least power of two at or above Cauchy's 1 + max|a_i|/|lc|
    for coeffs, bound in (((5,), 1), ((-2, 0, 1), 4), ((-1, 1, 1), 2), ((-3, 5, 7), 2), ((1, -14, 0, 1), 16)):
        assert cauchy_bound(IntegerPoly(coeffs)) == bound, coeffs
    huge = IntegerPoly((-(10**4300 - 1), 0, 1))
    assert cauchy_bound(huge) == 2**14285 and 10**4300 < 2**14285 < 10**4301  # 4301 digits


def test_sturm_count_endpoints():
    p = parse_poly("x^2-1")
    assert sturm_count(p, RationalInterval(F(-1), F(1))) == 2  # closed endpoints count
    assert sturm_count(p, RationalInterval(F(-1), F(0))) == 1
    assert sturm_count(p, RationalInterval(F(1), F(1))) == 1
    assert sturm_count(p, RationalInterval(F(-1, 2), F(1, 2))) == 0
    sqrt2 = parse_poly("x^2-2")
    assert sturm_count(sqrt2, RationalInterval(F(0), F(2))) == 1


small_fraction = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(
    roots=st.lists(small_fraction, max_size=3, unique=True),
    extra=small_int_polys,
    ends=st.lists(small_fraction, min_size=2, max_size=2),
    picks=st.tuples(st.integers(0, 4), st.integers(0, 4)),
)
@settings(max_examples=150, deadline=None)
def test_sturm_count_matches_divide_out_count(roots, extra, ends, picks):
    # rational roots placed at the endpoints, under all four strictness
    # pairs, and point intervals when both picks name one value
    p = IntegerPoly.one() if extra.is_zero else extra
    for r in roots:
        p = p * IntegerPoly((-r.numerator, r.denominator))
    if p.degree < 1:
        return
    q = squarefree_part(p)
    points = roots + ends
    lo, hi = sorted(points[i % len(points)] for i in picks)
    flags = product((False, True), repeat=2) if lo < hi else [(False, False)]
    for lo_strict, hi_strict in flags:
        iv = RationalInterval(lo, hi, lo_strict, hi_strict)
        assert sturm_count(q, iv) == helpers.divide_out_sturm_count(q, iv), iv


def _unreachable(*args):
    raise AssertionError("an endpoint root was divided out")


def test_sturm_count_takes_each_sign_once(monkeypatch):
    # every endpoint a root: one sign per chain entry and endpoint, no division
    q = parse_poly("(x-1)(x+1)(2x-1)")
    chain = _sturm_chain(q.coeffs)
    calls = []
    original = polyring._sign_at
    monkeypatch.setattr(polyring, "_sign_at", lambda cs, a, b: calls.append(cs) or original(cs, a, b))
    monkeypatch.setattr(IntegerPoly, "divide_exact", _unreachable)
    for lo_strict, hi_strict in product((False, True), repeat=2):
        calls.clear()
        iv = RationalInterval(F(-1), F(1), lo_strict, hi_strict)
        assert sturm_count(q, iv) == 1 + (not lo_strict) + (not hi_strict)
        assert len(calls) == 2 * len(chain)


wide_rational = st.fractions(min_value=-50, max_value=50, max_denominator=2**70)
int_coeffs = st.lists(st.integers(min_value=-(2**80), max_value=2**80), min_size=0, max_size=7)


@given(chain=st.lists(int_coeffs, min_size=1, max_size=6), x=wide_rational)
@settings(max_examples=150, deadline=None)
def test_sign_changes_match_fraction_horner(chain, x):
    chain = tuple(tuple(cs) for cs in chain)
    assert _sign_changes(chain, x) == helpers.fraction_sign_changes(chain, x)


@given(cs=int_coeffs, x=wide_rational)
@settings(max_examples=150, deadline=None)
def test_integer_sign_at_matches_evaluation(cs, x):
    q = IntegerPoly(tuple(cs))
    value = helpers.evaluate(q, x)
    assert q.sign_at(x) == (value > 0) - (value < 0)


@given(p=small_int_polys, lo=rational, hi=rational, flags=st.tuples(st.booleans(), st.booleans()))
@settings(max_examples=100, deadline=None)
def test_sturm_count_integer_and_rational_agree(p, lo, hi, flags):
    if p.is_zero:
        return
    lo, hi = min(lo, hi), max(lo, hi)
    iv = RationalInterval(lo, hi, *flags) if lo < hi else RationalInterval(lo, hi)
    r = helpers.RationalPoly(p.coeffs)
    # the parser-boundary conversion keeps the count, whatever the content
    assert sturm_count(p, iv) == sturm_count(helpers.primitive_of(r), iv)
    assert sturm_count(helpers.primitive_of(r * F(-2, 3)), iv) == sturm_count(p, iv)


def test_sturm_vs_numeric_and_constructed():
    helpers.check_sturm_numeric(cases=40)
    helpers.check_sturm_constructed(cases=20)


def test_isolate_real_roots_invariants():
    p = parse_poly("x^4-5x^2+2")
    intervals = isolate_real_roots(p)
    bound = cauchy_bound(p)
    assert len(intervals) == 4
    for prev, cur in zip(intervals, intervals[1:]):
        assert prev.hi <= cur.lo  # disjoint and ascending
    for iv in intervals:
        assert sturm_count(p, RationalInterval(iv.lo, iv.hi)) == 1
        for end in (iv.lo, iv.hi):  # an integer times a power of two, in [-B, B]
            assert end.denominator & (end.denominator - 1) == 0 and -bound <= end <= bound


def test_isolate_real_roots_of_a_huge_root_takes_three_counts(monkeypatch):
    # counts, not times: x^2 - 2*10^2000 splits (-B, B) once, at 0, and no
    # cell is narrowed, so no bisection state is built
    counts = []
    count = polyring._sturm_count_int
    monkeypatch.setattr(polyring, "_sturm_count_int", lambda q, iv: counts.append(iv) or count(q, iv))
    monkeypatch.setattr(polyring, "_Bisection", None)
    p = IntegerPoly((-2 * 10**2000, 0, 1))
    intervals = isolate_real_roots(p)
    bound = cauchy_bound(p)
    assert intervals == (RationalInterval(-bound, 0, True, True), RationalInterval(0, bound, True, True))
    assert len(counts) == 3


def test_isolate_real_roots_matches_fraction_oracle_on_trace_polynomials():
    for n in range(1, 31):
        tn = trace_polynomial(n)
        assert isolate_real_roots(tn) == helpers.fraction_isolate_real_roots(tn), n


@given(p=small_int_polys, q=small_int_polys)
@settings(max_examples=60, deadline=None)
def test_isolate_real_roots_matches_fraction_oracle(p, q):
    # products of small factors have rational roots, some of them not dyadic
    f = p * q
    if f.is_zero:
        return
    assert isolate_real_roots(f) == helpers.fraction_isolate_real_roots(f)


def test_isolate_rational_roots_become_points():
    # a root at a split point is a point; the one inside the cell (0, 2)
    # becomes one through make_real_algebraic
    p = parse_poly("x^2-3x+2")
    intervals = isolate_real_roots(p)
    assert [(iv.lo, iv.is_point) for iv in intervals] == [(F(0), False), (F(2), True)]
    assert [make_real_algebraic(p, iv).isolation for iv in intervals] == [
        RationalInterval(F(1), F(1)),
        RationalInterval(F(2), F(2)),
    ]
    assert isolate_real_roots(parse_poly("x^2+1")) == ()


def test_isolate_accepts_integer_poly():
    intervals = isolate_real_roots(IntegerPoly((41, 52, 16)))
    assert len(intervals) == 2
    assert intervals[0].hi <= intervals[1].lo


def test_interval_semantics():
    iv = RationalInterval(F(0), F(1), lo_strict=True)
    assert not helpers.contains(iv, F(0)) and helpers.contains(iv, F(1))
    assert iv.width == 1 and iv.midpoint == F(1, 2)
    assert str(iv) == "(0, 1]"
    point = RationalInterval(F(1, 3), F(1, 3))
    assert point.is_point and str(point) == "[1/3, 1/3]"
    with pytest.raises(ValueError):
        RationalInterval(F(2), F(1))


def test_parse_poly_grammar():
    assert parse_poly("-b+1", var="b") == IntegerPoly((-1, 1))  # lc > 0
    assert parse_poly("(b-1)(b+3)^3", var="b") == parse_poly("(b-1)*(b+3)^3", var="b")
    assert format_poly(parse_poly("(b-1)(b+3)^3", var="b"), "b") == "b^4+8b^3+18b^2-27"
    assert parse_poly("z^2 + z - 1/4", var="z") == parse_poly("z^2+z-1/4", var="z")
    assert parse_poly("2^3") == IntegerPoly((1,))
    assert parse_poly("1/2x^2+1/3x+1/6") == IntegerPoly((1, 2, 3))
    assert parse_poly("(2x+2)(3x-3)(1/6)") == IntegerPoly((-1, 0, 1)) == parse_poly("x^2-1")


def test_parse_poly_errors():
    with pytest.raises(ParseError) as err:
        parse_poly("x++1")
    assert err.value.position >= 0
    with pytest.raises(UnknownVariableError):
        parse_poly("x+y")
    with pytest.raises(ParseError):
        parse_poly("3/0")
    with pytest.raises(ParseError):
        parse_poly("x^5000")
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ZeroPolynomialError, match="^zero polynomial has no content$"):
        parse_poly("x-x")


def test_long_coefficients_parse_under_each_digit_limit():
    # coefficients of 14000 bits (4215 digits) are above 3 * 4300 bits, so
    # check_digits compares each with 10**limit, kept per limit
    rng = random.Random(14000)
    cs = [rng.getrandbits(14000) | 1 << 13999 for _ in range(3)]
    text = f"{cs[2]}x^2+{cs[1]}x-{cs[0]}+{cs[0]}-{cs[0]}"
    assert parse_poly(text) == IntegerPoly((-cs[0], cs[1], cs[2])).primitive()
    assert parse_poly(text) == helpers.primitive_of(helpers.parse_rational_poly(text))
    long_literal = "7" * 4500
    with pytest.raises(ParseError, match=r"has too many digits \(at position 2\)$"):
        parse_poly(f"x+{long_literal}")
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(5000)
        assert parse_poly(f"x+{long_literal}") == IntegerPoly((int(long_literal), 1))
    finally:
        sys.set_int_max_str_digits(limit)
    with pytest.raises(ParseError, match=r"has too many digits \(at position 2\)$"):
        parse_poly(f"x+{long_literal}")


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(data):
    coeffs = data.draw(st.lists(rational, min_size=1, max_size=7))
    var = data.draw(st.sampled_from(("x", "b", "z")))
    p = helpers.RationalPoly(tuple(coeffs))
    assert helpers.parse_rational_poly(format_poly(p, var), var=var) == p
    if not p.is_zero:
        assert parse_poly(format_poly(p, var), var=var) == helpers.primitive_of(p)


def test_parser_roundtrip_family():
    helpers.check_parser_roundtrip(cases=60)


# Expression text: the variable, integers and rationals, and a few special
# atoms (a second letter, a zero denominator, padded digits, large powers
# that meet the digit and degree caps), joined by sums, implicit and
# explicit products, powers, parentheses and leading signs; and short junk.
_specials = st.sampled_from(("y", "3/0", " 007 ", "10^1500", "x^1500", "(1/10^1500)"))
_atoms = st.one_of(
    st.just("x"),
    st.integers(0, 40).map(str),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(0, 40), st.integers(1, 12)),
    _specials,
)
_expression_texts = st.one_of(
    st.recursive(
        _atoms,
        lambda inner: st.one_of(
            st.builds(lambda a, s: f"{a}({s})", inner, _specials),
            st.builds(lambda a, b: a + b, inner, inner),
            st.builds(lambda a, b: f"{a} {b}", inner, inner),
            st.builds(lambda a, b: f"{a}*{b}", inner, inner),
            st.builds(lambda a, op, b: f"{a}{op}{b}", inner, st.sampled_from("+-"), inner),
            st.builds(lambda a, e: f"({a})^{e}", inner, st.integers(0, 5)),
            st.builds(lambda a, e: f"{a}^{e}", inner, st.integers(0, 5)),
            st.builds(lambda s, a: s + a, st.sampled_from("+-"), inner),
            inner.map(lambda a: f"({a})"),
        ),
        max_leaves=10,
    ),
    st.text(alphabet="x0123456789+-*/^() ", max_size=12),
)


@given(text=_expression_texts)
@settings(max_examples=400, deadline=None, derandomize=True)
@example(text="(10^1500)(10^1500)(10^1500)")
@example(text="(1/10^1500)^3+x")
@example(text="x^1500 x^1500 x^1500")
@example(text="(x^1500+2)(2x^1500-1/3)^2")
@example(text="(10^1500x+1)^2(x-10^1500)")
@example(text="x^\u00b2")  # a superscript two: "expected a number" at 2
@example(text="\u0663x")  # an Arabic-Indic three: "unexpected" at 0
def test_integer_parser_matches_the_fraction_parser(text):
    # the value is the primitive part of the value in Fractions, and every
    # refusal has the same type, message and position
    try:
        expected = helpers.parse_rational_poly(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert type(err.value) is type(exc)
        assert (str(err.value), err.value.position) == (str(exc), exc.position)
        return
    if expected.is_zero:
        with pytest.raises(ZeroPolynomialError, match="^zero polynomial has no content$"):
            parse_poly(text)
    else:
        assert parse_poly(text) == helpers.primitive_of(expected)


def test_parse_poly_bounds_the_work_of_products_and_powers():
    # refused at the operator, before the product or power is formed
    for text, operand, position in (
        ("(x+1)^2048", "'(x+1)^2048'", 5),
        ("3x^2-(x^2+x+1)^1024", "'(x^2+x+1)^1024'", 14),
        ("((10^8)x-1)^500", "'((10^8)x-1)^500'", 11),
        # each estimate below the cap, their sum above it
        ("(x+1)^1000*(x+1)^1000+1", "'(x+1)^1000'", 16),
        ("(x+1)^700*(x+1)^700+1", "'(x+1)^700*(x+1)^700'", 9),
        ("+".join(["(x+1)^1024"] * 200), "'(x+1)^1024'", 16),
        ("+".join(["(x+1)^256"] * 200), "'(x+1)^256'", 86 * 10 + 5),
        # sparse and wide: each product's loop visits all 4001 coefficients
        # of x^4000 for one nonzero one
        ("x^4000" + "*3" * 1000, "'x^4000" + "*3" * 513 + "'", 6 + 2 * 512),
        # each sum copies all 4001 coefficients of the running sum
        ("x^4000" + "+x" * 40000, "'x^4000" + "+x" * 241 + "'", 6 + 2 * 240),
    ):
        start = time.monotonic()
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert time.monotonic() - start < 1, text
        assert str(err.value).startswith(f"{operand} needs work "), text
        assert "above the cap" in str(err.value) and err.value.position == position, text
    # dense powers below the bound, and sparse ones up to the degree cap
    assert parse_poly("(x+1)^1024").coeffs[512] > 10**300
    assert parse_poly("x^4096+1").degree == 4096
    assert parse_poly("(x^2048+1)(x^2048-1)") == parse_poly("x^4096-1")
    assert parse_poly("(x^2+x+1)^300").degree == 600
