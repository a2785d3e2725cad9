"""Iterates, discriminant polynomials, cycles, orbits, and multiplier certificates."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from parabkit import dynamics
from parabkit.dynamics import (
    CapExceededError,
    DegreeMismatchError,
    MultiplierMismatchError,
    NotAFactorError,
    ParabolicVerdict,
    ParityCertificate,
    RealBehavior,
    certify_attracting_cycle,
    cycle_multiplier,
    discriminant_Pn,
    dynatomic_poly,
    escapes,
    is_parabolic_up_to,
    is_pcf_rational,
    iterate_map,
    parity_certificate,
    period_poly,
    point_discriminant,
    real_behavior,
    verify_cycle,
)
from parabkit.algebraic import (
    RealAlgebraic,
    affine_transform,
    from_rational,
    make_real_algebraic,
    sign_at,
)
from parabkit import classify
from parabkit.classify import parse_parameter
from parabkit.polyring import (
    IntegerPoly,
    RationalInterval,
    discriminant,
    format_poly,
    isolate_real_roots,
    parse_poly,
    resultant,
    squarefree_part,
    sturm_count,
)
from parabkit.polyring import _fp_resultant

P_FIXTURES = {
    1: "-b+1",
    2: "(b-1)(b+3)^3",
    3: "(b-1)(b+7)^3(b^2+b+7)^4",
    4: "(b-1)(b+3)^3(b+5)^6(b^3+9b^2+27b+135)^4(b^2-2b+5)^5",
}

DISC_Z2N = {
    1: 1,
    2: -27,
    3: -823543,
    4: -437893890380859375,
    5: -17069174130723235958610643029059314756044734431,
}

PN_AT_MINUS6 = {
    1: 7,
    2: 189,
    3: -13119127,
    4: 3402367550308777617,
    5: -2357323655163691109567151260958141759372172624351,
}


def _candidate_high():
    roots = isolate_real_roots(IntegerPoly((41, 52, 16)))
    return make_real_algebraic(IntegerPoly((41, 52, 16)), roots[1])


def test_iterate_map_shape():
    f2 = iterate_map(2)
    assert f2.degree_in_z == 4
    assert f2.leading_in_z == IntegerPoly((1,))
    # f^2(z) = z^4 + 2c z^2 + c^2 + c
    assert f2.coeffs_in_z[2] == IntegerPoly((0, 2))
    assert f2.coeffs_in_z[0] == IntegerPoly((0, 1, 1))
    assert f2.coeffs_in_z[1].is_zero and f2.coeffs_in_z[3].is_zero


def test_iterate_map_constant_term_is_critical_orbit():
    f3 = iterate_map(3)
    c_poly = f3.coeffs_in_z[0]
    val = F(0)
    for _ in range(3):
        val = val * val + F(1, 3)
    assert helpers.evaluate(c_poly, F(1, 3)) == val


def test_period_poly_vanishes_at_fixed_points():
    assert helpers.evaluate_at_c(period_poly(2), F(0)).coeff(0) == 0
    spec = helpers.evaluate_at_c(period_poly(1), F(-2))
    assert helpers.evaluate(spec, F(2)) == 0  # z = 2 is fixed for c = -2


def test_iterate_cap():
    with pytest.raises(CapExceededError):
        iterate_map(7)


def test_discriminant_fixtures_exact():
    for n, text in P_FIXTURES.items():
        assert discriminant_Pn(n).coeffs == helpers.parse_rational_poly(text, var="b").coeffs, n
    assert format_poly(discriminant_Pn(2), "b") == "b^4+8b^3+18b^2-27"


def test_discriminant_p5_is_monic_degree_80():
    p5 = discriminant_Pn(5)
    assert p5.degree == 80
    assert p5.leading == 1


def test_discriminant_pn_is_plus_minus_monic():
    for n in range(1, 6):
        assert discriminant_Pn(n).leading in (1, -1), n


def test_discriminant_methods_agree():
    helpers.check_subres_vs_interp(4)


def test_discriminant_cap_and_bad_method():
    with pytest.raises(CapExceededError):
        discriminant_Pn(6)


def test_parity_certificates_against_frozen_oracles():
    for n in range(1, 6):
        cert = parity_certificate(n)
        assert cert.n == n
        assert cert.is_valid, n
        assert cert.value_at_0_mod2 == 1
        assert cert.value_at_minus6_mod2 == 1
        assert discriminant_Pn(n).coeff(0) == DISC_Z2N[n], n
        assert int(helpers.evaluate(discriminant_Pn(n), -6)) == PN_AT_MINUS6[n], n
        assert DISC_Z2N[n] % 2 == 1 and PN_AT_MINUS6[n] % 2 == 1


def test_parity_certificate_needs_every_bit():
    # prop2 eliminates -3/2 on value_at_minus6_mod2; each bit alone at 0
    # makes the certificate invalid
    assert ParityCertificate(3, 1, 1, 1).is_valid
    for bits in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
        assert not ParityCertificate(3, *bits).is_valid, bits


def test_point_discriminant_against_frozen_oracles():
    for n in range(1, 6):
        assert point_discriminant(n, 0) == DISC_Z2N[n], n
        assert point_discriminant(n, F(-3, 2)) == PN_AT_MINUS6[n], n


@given(
    n=st.integers(min_value=1, max_value=5),
    c=st.fractions(min_value=-3, max_value=1, max_denominator=12),
)
@settings(max_examples=80, deadline=None, derandomize=True)
def test_point_discriminant_equals_pn_at_4c(n, c):
    # the point value against the bivariate P_n, at parameters whose
    # denominators are and are not powers of 2
    assert point_discriminant(n, c) == helpers.evaluate(discriminant_Pn(n), 4 * c)


def test_point_discriminant_at_the_prop2_parameters():
    for c in (F(1, 4), F(-3, 4), F(-5, 4), F(-7, 4), F(-2), F(-3, 2)):
        for n in range(1, 6):
            assert point_discriminant(n, c) == helpers.evaluate(discriminant_Pn(n), 4 * c), (c, n)


def test_disc_z2n_closed_form():
    # disc(z^(2^n) - z) is 1 for n = 1 and -(2^n - 1)^(2^n - 1) for n >= 2,
    # checked against the point value and a direct univariate discriminant
    for n in range(1, 7):
        m = 2**n
        closed = 1 if n == 1 else -((m - 1) ** (m - 1))
        assert dynamics._disc_z2n_closed_form(n) == closed
        assert point_discriminant(n, 0) == closed, n
        assert discriminant(IntegerPoly((0, -1) + (0,) * (m - 2) + (1,))) == closed, n
        assert parity_certificate(n).is_valid, n


def test_point_discriminant_range():
    with pytest.raises(ValueError):
        point_discriminant(0, F(1, 4))
    with pytest.raises(CapExceededError):
        point_discriminant(7, F(1, 4))
    assert point_discriminant(6, F(1, 4)) == 0  # n = 6 is within the iterate cap


def test_pn_root_iff_multiple_cycle():
    # P_n(4c) = 0 exactly when f^n(z) - z has a repeated root
    rng = random.Random(20260817)
    samples = [F(1, 4), F(-3, 4), F(-5, 4), F(-7, 4)]
    while len(samples) < 24:
        samples.append(F(rng.randint(-9, 2), rng.randint(1, 8)))
    for c in samples:
        for n in range(1, 5):
            spec = helpers.primitive_of(helpers.evaluate_at_c(period_poly(n), c))
            multiple = squarefree_part(spec).degree < spec.degree
            root = helpers.evaluate(discriminant_Pn(n), 4 * c) == 0
            assert multiple == root, (c, n)


def test_dynatomic_examples():
    d2 = dynatomic_poly(2, F(-5, 4))
    assert d2 == parse_poly("z^2+z-1/4", var="z")
    assert d2 == IntegerPoly((-1, 4, 4))
    d1 = dynatomic_poly(1, F(7, 3))
    assert d1 == parse_poly("z^2-z+7/3", var="z")
    d3 = dynatomic_poly(3, F(-7, 4))
    assert d3.degree == 6
    assert squarefree_part(d3) == IntegerPoly((-1, -18, 4, 8))
    with pytest.raises(CapExceededError):
        dynatomic_poly(7, F(0))


def test_dynatomic_product_identity():
    helpers.check_dynatomic_product(6)


@given(
    n=st.integers(min_value=1, max_value=4),
    c=st.fractions(min_value=-2, max_value=F(1, 4), max_denominator=12),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_dynatomic_poly_matches_fraction_oracle(n, c):
    # the Moebius quotient of integer models against the Moebius product
    # of f_c^d(z) - z in Fractions: the same polynomial up to its content
    expected = helpers.primitive_of(helpers.fraction_dynatomic_poly(n, c))
    assert dynatomic_poly(n, c) == expected


def test_cycle_multiplier_values():
    assert cycle_multiplier(IntegerPoly((-1, 2)), 1) == 1
    assert cycle_multiplier(IntegerPoly((1, 2)), 1) == -1
    assert cycle_multiplier(IntegerPoly((-1, 4, 4)), 2) == -1
    assert cycle_multiplier(IntegerPoly((-1, -18, 4, 8)), 3) == 1
    with pytest.raises(DegreeMismatchError):
        cycle_multiplier(IntegerPoly((-1, 4, 4)), 3)


def test_cycle_multiplier_numeric_oracle():
    helpers.check_multiplier_numeric(tol=1e-9)


def test_verify_cycle_certificates():
    certs = [verify_cycle(c, g, n, lam) for c, g, n, lam in helpers.PAPER_CYCLES]
    assert [c.multiplier for c in certs] == [1, -1, -1, 1]
    assert [c.period for c in certs] == [1, 1, 2, 3]
    for cert, (c, g, n, lam) in zip(certs, helpers.PAPER_CYCLES):
        assert cert.parameter == c
        assert cert.cycle_poly == g.primitive()


def test_verify_cycle_refuses_a_moved_constant_term():
    # the four paper cycles, each with its constant term moved by +-1: no
    # longer a factor of f_c^n(z) - z
    for c, g, n, lam in helpers.PAPER_CYCLES:
        verify_cycle(c, g, n, lam)
        for shift in (-1, 1):
            moved = IntegerPoly((g.coeff(0) + shift,) + g.coeffs[1:])
            with pytest.raises(NotAFactorError):
                verify_cycle(c, moved, n, lam)


def test_verify_cycle_rejections():
    with pytest.raises(MultiplierMismatchError):
        verify_cycle(F(-5, 4), IntegerPoly((-1, 4, 4)), 2, 1)
    with pytest.raises(NotAFactorError):
        verify_cycle(F(-1, 2), IntegerPoly((-1, 4, 4)), 2, -1)
    with pytest.raises(DegreeMismatchError):
        verify_cycle(F(-5, 4), IntegerPoly((-1, 4, 4)), 3, -1)


def test_is_pcf_rational_examples():
    assert is_pcf_rational(0) == (True, 0, 1)
    assert is_pcf_rational(-1) == (True, 0, 2)
    assert is_pcf_rational(-2) == (True, 1, 1)
    assert is_pcf_rational(F(1, 2)) == (False, 0, 0)
    assert is_pcf_rational(2) == (False, 0, 0)
    assert is_pcf_rational(F(1, 4)) == (False, 0, 0)


def _orbit_simulation(c, steps):
    """Exact critical-orbit simulation returning (is_finite, preperiod, period)."""
    seen = {}
    z = c  # orbit of the critical value
    bound = max(2, abs(c))
    for i in range(1, steps + 1):
        if z in seen:
            first = seen[z]
            return True, first - 1, i - first
        seen[z] = i
        if abs(z) > bound:
            return False, 0, 0
        z = z * z + c
    return None, 0, 0  # undecided within the budget


def test_is_pcf_matches_simulation_on_eighths():
    for k in range(-16, 3):
        c = F(k, 8)
        if c.denominator == 1:
            sim = _orbit_simulation(c, 100)
            assert sim is not None
            assert is_pcf_rational(c) == sim, c
        else:
            # non-integer orbits have strictly growing denominators, so the
            # simulation is capped by denominator size instead of step count
            z, grew = c, True
            for _ in range(40):
                nxt = z * z + c
                if nxt.denominator <= z.denominator:
                    grew = False
                    break
                z = nxt
                if z.denominator > 2**512:
                    break
            assert grew, c
            assert is_pcf_rational(c) == (False, 0, 0), c


def test_escapes():
    assert escapes(F(1, 2)) is True
    assert escapes(-3) is True
    assert escapes(2) is True
    assert escapes(F(-9, 4)) is True
    assert escapes(0) is False
    assert escapes(-2) is False
    assert escapes(F(-3, 2)) is False


def test_escapes_is_exact_at_the_ends_and_at_irrationals():
    for c in (-2, F(-2), F(1, 4), F(-3, 2), F(1, 5), F(-7, 4), from_rational(F(1, 4))):
        assert escapes(c) is False, c
    for c in (F(-2) - F(1, 10**30), F(1, 4) + F(1, 10**30), from_rational(F(-9, 4))):
        assert escapes(c) is True, c
    inside = (
        "x^2-2@[-2,-1]",  # -sqrt2
        "16x^2+52x+41@[-3/2,-1]",  # (sqrt5 - 13)/8
        "10^12(4x-1)^2-2@[0,1/4]",  # 1/4 - sqrt2/(4 10^6)
        "10^12(x+2)^2-2@[-2,0]",  # -2 + sqrt2/10^6
    )
    outside = (
        "x^2-5@[2,3]",
        "x^2-5@[-3,-2]",
        "10^12(4x-1)^2-2@[1/4,1]",  # 1/4 + sqrt2/(4 10^6)
        "10^12(x+2)^2-2@[-3,-2]",  # -2 - sqrt2/10^6
    )
    for text in inside:
        assert escapes(parse_parameter(text)) is False, text
    for text in outside:
        assert escapes(parse_parameter(text)) is True, text
    for c in (0.5, "1/4", None):
        with pytest.raises(TypeError):
            escapes(c)


def test_escapes_agrees_with_the_iterated_orbit():
    decided = 0
    for c in {F(k, d) for d in (1, 2, 3, 4, 5, 7, 8, 10, 16) for k in range(-4 * d, 2 * d + 1)}:
        oracle = helpers.iterated_escapes(c, budget=200, bit_guard=4096)
        if oracle is not None:
            assert escapes(c) is oracle, c
            decided += 1
    assert decided > 100


def test_parabolic_table_rows_are_certified():
    # each row: the least vanishing index, the cycle and the landmark answer
    assert len(dynamics._PARABOLIC_CYCLES) == 4
    for c, (g, period, multiplier, index, _) in dynamics._PARABOLIC_CYCLES.items():
        assert is_parabolic_up_to(c, 5) == ParabolicVerdict("parabolic", index), c
        assert verify_cycle(c, g, period, multiplier).multiplier == multiplier
        assert multiplier in (1, -1)
        detail = (period, 1 if multiplier == 1 else 2)
        assert real_behavior(c) == RealBehavior("ParabolicLandmark", detail), c
        assert dynamics._window_tag(c) is None and not escapes(c)


def test_real_behavior_tags():
    assert real_behavior(F(1, 8)).tag == "AttractingFixedPoint"
    assert real_behavior(F(-11, 10)).tag == "AttractingTwoCycle"
    assert real_behavior(F(-1)).tag == "AttractingTwoCycle"
    assert real_behavior(F(-3, 2)).tag == "CoreBoundedUnresolved"
    assert real_behavior(3) == RealBehavior("EscapesToInfinity", ())
    assert real_behavior(F(-21, 10)).tag == "EscapesToInfinity"
    assert real_behavior(F(1, 4)) == RealBehavior("ParabolicLandmark", (1, 1))
    assert real_behavior(F(-3, 4)) == RealBehavior("ParabolicLandmark", (1, 2))
    assert real_behavior(F(-5, 4)) == RealBehavior("ParabolicLandmark", (2, 2))
    assert real_behavior(F(-2)) == RealBehavior("PostcriticallyFinite", (1, 1))


def test_real_behavior_boundary_coherence():
    # two-cycle multiplier is 4(c + 1); compare exactly on both sides of -3/4
    eps = F(1, 1000)
    inside = real_behavior(F(-3, 4) - eps)
    outside = real_behavior(F(-3, 4) + eps)
    assert inside.tag == "AttractingTwoCycle"
    assert outside.tag == "AttractingFixedPoint"
    assert abs(4 * (F(-3, 4) - eps + 1)) < 1
    assert abs(4 * (F(-3, 4) + eps + 1)) > 1


def test_is_parabolic_up_to_landmarks():
    assert str(is_parabolic_up_to(F(1, 4), 5)) == "Parabolic(1)"
    assert str(is_parabolic_up_to(F(-3, 4), 5)) == "Parabolic(2)"
    assert str(is_parabolic_up_to(F(-5, 4), 5)) == "Parabolic(4)"
    assert str(is_parabolic_up_to(F(-7, 4), 5)) == "Parabolic(3)"
    v = is_parabolic_up_to(F(-3, 2), 5)
    assert str(v) == "NotUpToBound(5)" and v.is_parabolic is False
    assert is_parabolic_up_to(F(1, 4), 5).is_parabolic is True


def _unreachable(*args):
    raise AssertionError("called inside a Fatou window")


def test_windows_answer_without_witness_or_pn(monkeypatch):
    # the fixed point attracts on (-3/4, 1/4), the 2-cycle on (-5/4, -3/4)
    for name in ("_qn_mod", "discriminant_Pn", "point_discriminant"):
        monkeypatch.setattr(dynamics, name, _unreachable)
    tiny = F(1, 10**40)
    inside = (
        0,
        F(1, 8),
        F(-1),
        F(1, 4) - tiny,
        F(-3, 4) + tiny,
        F(-3, 4) - tiny,
        F(-5, 4) + tiny,
        from_rational(F(-11, 10)),
        parse_parameter("x^2+14x+8@[-3/4,-1/2]"),
        parse_parameter("x^3+3x+1@[-1,0]"),
        parse_parameter("2x^3+2x+3@[-1,-3/4]"),
    )
    for c in inside:
        assert dynamics._window_tag(c) is not None, c
        assert str(is_parabolic_up_to(c, 5)) == "NotUpToBound(5)", c


def test_window_endpoints_take_the_exact_routes():
    # -3/4 as a Fraction, as from_rational, as the root of the reducible
    # (4x+3)(x^2-2) that parse_parameter collapses, and as that root left in
    # an open isolation, which only the exact comparisons place on the end
    reducible = IntegerPoly((-6, -8, 3, 4))
    forms = (
        F(-3, 4),
        from_rational(F(-3, 4)),
        parse_parameter("(4x+3)(x^2-2)@[-1,-1/4]"),
        RealAlgebraic(reducible, RationalInterval(F(-1), F(-1, 4), True, True)),
    )
    assert not forms[-1].is_rational
    for c in forms:
        assert dynamics._window_tag(c) is None, c
        assert str(is_parabolic_up_to(c, 5)) == "Parabolic(2)", c
    for c, verdict in ((F(1, 4), "Parabolic(1)"), (F(-5, 4), "Parabolic(4)")):
        assert dynamics._window_tag(c) is None
        assert str(is_parabolic_up_to(from_rational(c), 5)) == verdict
    # outside the windows, on [-2, -5/4), the witness still decides
    outside = parse_parameter("x^2-2@[-2,-1]")
    assert dynamics._window_tag(outside) is None
    assert str(is_parabolic_up_to(outside, 5)) == "NotUpToBound(5)"


def test_real_behavior_reads_the_window_table():
    for k in range(-88, 18):
        c = F(k, 40)
        tag = dynamics._window_tag(c)
        if tag is not None:
            assert real_behavior(c).tag == tag, c
        elif -2 <= c <= F(1, 4):
            assert real_behavior(c).tag not in ("AttractingFixedPoint", "AttractingTwoCycle"), c
    details = {F(1, 4): (1, 1), F(-3, 4): (1, 2), F(-5, 4): (2, 2), F(-7, 4): (3, 1)}
    assert list(dynamics._PARABOLIC_CYCLES) == sorted(details, reverse=True)
    for landmark, detail in details.items():
        assert real_behavior(landmark) == RealBehavior("ParabolicLandmark", detail)


def test_is_parabolic_up_to_algebraic_and_cap():
    assert str(is_parabolic_up_to(_candidate_high(), 5)) == "NotUpToBound(5)"
    with pytest.raises(CapExceededError):
        is_parabolic_up_to(F(1, 4), 6)


# ---------------------------------------------------------------------------
# modular witnesses for P_n(4 alpha) != 0 at an irrational alpha

# parameters with a parabolic cycle, rational and the irrational root of the
# cubic factor of P_4(4c), and the PCF parameters in [-2, 1/4]
_NEAR_CENTRES = (F(1, 4), F(-3, 4), F(-5, 4), F(-7, 4), F(-1941, 1000), F(-2), F(-1), F(0))
_CUBIC_CONTROL = IntegerPoly((135, 108, 144, 64))  # P_4(4c) = 0 at its real root


def _exact_zeros(alpha):
    # the exact route: the sign of the bivariate P_n at b = 4 alpha
    b = affine_transform(alpha, 4, 0)
    return [sign_at(discriminant_Pn(n), b) == 0 for n in range(1, 6)]


def _exact_verdict(alpha):
    zeros = _exact_zeros(alpha)
    return f"Parabolic({zeros.index(True) + 1})" if True in zeros else "NotUpToBound(5)"


def _core_irrational_roots(m):
    roots = (make_real_algebraic(m, iv) for iv in isolate_real_roots(m))
    return [a for a in roots if not a.is_rational and not (a < -2 or a > F(1, 4))]


def _core_roots_on(m):
    # the roots of a squarefree m in [-2, 1/4], each on m itself: a rational
    # root of a reducible m is left in its open isolation, as in
    # test_window_endpoints_take_the_exact_routes, so that the search reads
    # it as irrational and proves it on the reducible m
    m = m.primitive()
    roots = []
    for iv in isolate_real_roots(m):
        alpha = make_real_algebraic(m, iv)
        if alpha.is_rational and not iv.is_point:
            alpha = RealAlgebraic(m, iv)
        if not alpha.is_rational and not (alpha < -2 or alpha > F(1, 4)):
            roots.append(alpha)
    return roots


def _qn(n):
    # Q_n(x) = P_n(4x) in Z[x]
    return IntegerPoly(tuple(k * 4**i for i, k in enumerate(discriminant_Pn(n).coeffs)))


def _witness(m, n):
    # (p, Res(m mod p, Q_n mod p)) at the prime the witness takes for n, or None
    usable = [p for p in dynamics._WITNESS_PRIMES if p > n * 2 ** (n - 1) and m.leading % p]
    if not usable:
        return None
    p = usable[0]
    return p, _fp_resultant([k % p for k in m.coeffs], dynamics._qn_mod(n, p), p)


@pytest.mark.parametrize("p", [dynamics._WITNESS_PRIMES[0], 83])
def test_witness_table_is_pn_of_4x_mod_p(p):
    # the interpolated table equals the bivariate route's P_n(4x), reduced
    for n in range(1, 6):
        assert dynamics._qn_mod(n, p) == tuple(k % p for k in _qn(n).coeffs), n


def _near(draw, degree):
    # (Dx - A)^k - e has the roots A/D + (e)^(1/k)/D, close to a parabolic or
    # PCF parameter
    centre = draw(st.sampled_from(_NEAR_CENTRES))
    scale = draw(st.sampled_from((1, 3, 10, 1000, 10**6)))
    A, D = centre.numerator * scale, centre.denominator * scale
    e = draw(st.integers(-30, 30).filter(bool))
    return IntegerPoly((-A, D)) ** degree - IntegerPoly.constant(e)


def _at_centre(draw, degree):
    # Dx - A with the root A/D a parabolic or PCF parameter
    centre = draw(st.sampled_from(_NEAR_CENTRES))
    return IntegerPoly((-centre.numerator, centre.denominator))


def _random(draw, degree):
    coeffs = draw(st.lists(st.integers(-64, 64), min_size=degree, max_size=degree))
    return IntegerPoly(tuple(coeffs) + (draw(st.integers(1, 64)),))


@st.composite
def _witness_minpolys(draw):
    """Quadratics, cubics and quartics, irreducible or not, many with a root
    close to a parabolic or PCF parameter; a reducible one is a product of
    two such factors, one of them perhaps linear with its root on such a
    parameter, or the cubic control times a linear factor."""
    kind = draw(st.sampled_from(("random", "near", "near", "control", "reducible")))
    if kind == "control":
        m = _CUBIC_CONTROL + IntegerPoly.constant(draw(st.integers(-40, 40)))
        return m * _random(draw, 1) if draw(st.booleans()) else m
    if kind != "reducible":
        factor = _random if kind == "random" else _near
        return factor(draw, draw(st.sampled_from((2, 2, 3, 4))))
    low = draw(st.sampled_from((1, 2)))
    high = draw(st.sampled_from(range(low, 5 - low)))
    factors = (_random, _near, _at_centre) if low == 1 else (_random, _near)
    return draw(st.sampled_from(factors))(draw, low) * _near(draw, high)


@given(_witness_minpolys())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_witness_verdicts_equal_the_exact_route(m):
    # At every n the witness residue is the integer Res(m, Q_n) reduced mod
    # its prime, a nonzero residue never meets an exact zero, and the
    # verdict is the exact route's, whether m is reducible or not (a
    # reducible quadratic through its rational roots left open).  Inside a
    # Fatou window that verdict reads neither a witness table nor a P_n.
    if m.degree < 2 or squarefree_part(m).degree != m.degree:
        return
    for alpha in _core_roots_on(m):
        zeros = _exact_zeros(alpha)
        for n, zero in enumerate(zeros, start=1):
            p, residue = _witness(alpha.minpoly, n)
            assert residue == resultant(alpha.minpoly, _qn(n)) % p
            assert not (residue and zero)
        if dynamics._window_tag(alpha) is None:
            assert str(is_parabolic_up_to(alpha, 5)) == _exact_verdict(alpha)
            continue
        with mock.patch.object(dynamics, "_qn_mod", _unreachable), mock.patch.object(
            dynamics, "discriminant_Pn", _unreachable
        ):
            verdict = str(is_parabolic_up_to(alpha, 5))
        assert verdict == "NotUpToBound(5)" == _exact_verdict(alpha)


def test_witness_keeps_the_parabolic_controls():
    # the residue vanishes at n = 4 alone, for the cubic and for the
    # reducible quartic alike, and the exact route confirms the zero
    cubic = parse_parameter("64x^3+144x^2+108x+135@[-2,-15/8]")
    quartic = parse_parameter("(64x^3+144x^2+108x+135)(2x+1)@[-2,-15/8]")
    assert quartic.degree == 4
    for alpha in (cubic, quartic):
        residues = [_witness(alpha.minpoly, n)[1] for n in range(1, 6)]
        assert [bool(r) for r in residues] == [True, True, True, False, True]
        assert str(is_parabolic_up_to(alpha, 5)) == "Parabolic(4)" == _exact_verdict(alpha)


def test_reducible_cubic_and_quartic_build_no_pn(monkeypatch):
    cubic = parse_parameter("(2x+1)(x^2-3)@[-7/4,-3/2]")
    quartic = parse_parameter("x^4-3@[-2,-1]")
    assert cubic.degree == 3 and quartic.degree == 4
    built = []
    monkeypatch.setattr(dynamics, "discriminant_Pn", lambda n: built.append(n) or discriminant_Pn(n))
    for alpha in (cubic, quartic):
        assert str(is_parabolic_up_to(alpha, 5)) == "NotUpToBound(5)"
    assert built == []
    monkeypatch.undo()
    assert _exact_verdict(cubic) == _exact_verdict(quartic) == "NotUpToBound(5)"


@given(
    st.integers(-20, 20),
    st.integers(1, 20),
    st.lists(st.integers(-20, 20), min_size=3, max_size=3).filter(lambda q: q[2] != 0),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_reducible_minpolys_witness_through_every_factor(a, b, q):
    # Res(gh, Q) = Res(g, Q) Res(h, Q): the residue of a reducible m is the
    # product of its factors' residues, so it is zero exactly when one of
    # them is, and no certificate of irreducibility is needed
    linear, quadratic = IntegerPoly((a, b)), IntegerPoly(tuple(q))
    for g, h in ((linear, quadratic), (linear, IntegerPoly((q[0], q[2]))), (quadratic, quadratic)):
        for n in range(1, 6):
            p, residue = _witness(g * h, n)
            assert residue == _witness(g, n)[1] * _witness(h, n)[1] % p, (g, h, n)


def test_tiny_primes_keep_every_answer_exact(monkeypatch):
    # A prime at or below N = n 2^(n-1) cannot recover P_n(4x) mod p from
    # N + 1 values, so with the primes 3 and 7 every n >= 3 takes the exact
    # route.  Mod the primes just above 80 = N for n = 5, residues vanish
    # by accident; each such n goes to the exact route too, so every verdict
    # stays that of the exact route.  The polynomials are drawn in
    # y = 4x + 6, which sends (-2, 1) onto (-2, -5/4), outside the windows.
    rng = random.Random(12)
    shift = IntegerPoly((6, 4))
    tables = []
    table = dynamics._qn_mod
    monkeypatch.setattr(dynamics, "_qn_mod", lambda n, p: tables.append((n, p)) or table(n, p))
    false_zeros = 0
    for primes in ((3, 7), (83, 89)):
        monkeypatch.setattr(dynamics, "_WITNESS_PRIMES", primes)
        for _ in range(120):
            q = [rng.randint(-9, 9) for _ in range(rng.choice((2, 3, 4)))] + [rng.randint(1, 9)]
            m = sum((shift**i * k for i, k in enumerate(q)), IntegerPoly.zero())
            if squarefree_part(m).degree != m.degree:
                continue
            for alpha in _core_irrational_roots(m):
                zeros = _exact_zeros(alpha)
                if primes[0] > 80 and dynamics._window_tag(alpha) is None:
                    residues = [_witness(m, n)[1] for n in range(1, 6)]
                    false_zeros += sum(not r and not zero for r, zero in zip(residues, zeros))
                assert str(is_parabolic_up_to(alpha, 5)) == _exact_verdict(alpha)
    assert tables and all(p > n * 2 ** (n - 1) for n, p in tables)
    assert {n for n, p in tables if p < 80} == {1, 2} and false_zeros > 0


def test_leading_coefficient_divisible_by_every_prime_falls_back(monkeypatch):
    # L (2x+3)^k - 1 and + 2 have roots next to -3/2, in [-2, -5/4) and so
    # outside the Fatou windows, with every tuple prime dividing lc = 2^k L:
    # no table is read and the exact route decides
    lead = 1
    for p in dynamics._WITNESS_PRIMES:
        lead *= p
    monkeypatch.setattr(dynamics, "_qn_mod", _unreachable)
    for m in (
        IntegerPoly((9, 12, 4)) * lead - IntegerPoly.one(),
        IntegerPoly((27, 54, 36, 8)) * lead + IntegerPoly.constant(2),
    ):
        roots = _core_irrational_roots(m)
        assert roots
        for alpha in roots:
            assert alpha < F(-5, 4) and dynamics._window_tag(alpha) is None
            assert str(is_parabolic_up_to(alpha, 5)) == "NotUpToBound(5)" == _exact_verdict(alpha)


def test_witness_primes():
    import sympy

    primes = dynamics._WITNESS_PRIMES
    top = dynamics.DISCRIMINANT_CAP * 2 ** (dynamics.DISCRIMINANT_CAP - 1)
    assert len(primes) == len(set(primes)) == 32
    assert all(sympy.isprime(p) and top < p < 2**30 for p in primes)


# The row of prop2's attracting-cycle table: period, multiplier interval,
# trap and enclosure of c = (-13 + sqrt5)/8.
(_PROP2_ROW,) = classify._ATTRACTING_CYCLES.values()

# The roots of this sextic are the f^4-multipliers of the 4-cycles of f_c at
# both roots of 16x^2 + 52x + 41: it is the norm from Q(sqrt5), up to a
# power of 2, of the monic polynomial whose roots are the 4-cycle
# multipliers at one root (Milnor, Exp. Math. 2, 1993).
_MULTIPLIER_SEXTIC = IntegerPoly((1135061, 1930947, 69670, 10807, 922, -9, 1))


def _mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def _point(c):
    return RationalInterval(c, c)


def test_numeric_certificate_period_four():
    k, a, b, trap, enclosure = _PROP2_ROW
    cert = certify_attracting_cycle(_candidate_high(), k, a, b, trap, enclosure)
    assert (cert.period, cert.lo, cert.hi, cert.modulus_bound) == (4, F(-3, 5), F(-1, 2), F(3, 5))
    assert (cert.trap, cert.enclosure) == (trap, enclosure)
    # independent high-precision orbit oracle: the enclosure holds c, the
    # trap holds the cycle point the critical orbit converges to, and the
    # multiplier lies in the certified interval
    with mpmath.workdps(120):
        c = (-13 + mpmath.sqrt(5)) / 8
        assert _mp(enclosure.lo) < c < _mp(enclosure.hi)
        z = mpmath.mpf(0)
        for _ in range(2000):
            z = z * z + c
        assert _mp(trap.lo) < z < _mp(trap.hi)
        lam = mpmath.mpf(1)
        for _ in range(4):
            lam *= 2 * z
            z = z * z + c
        assert mpmath.mpf(-3) / 5 < lam < mpmath.mpf(-1) / 2


def test_numeric_certificate_interval_holds_one_sextic_root():
    # exactly one 4-cycle multiplier at either root lies in [-1, 1], and the
    # certified interval holds it
    k, a, b, trap, enclosure = _PROP2_ROW
    cert = certify_attracting_cycle(_candidate_high(), k, a, b, trap, enclosure)
    assert sturm_count(_MULTIPLIER_SEXTIC, RationalInterval(cert.lo, cert.hi, True, True)) == 1
    assert sturm_count(_MULTIPLIER_SEXTIC, RationalInterval(-1, 1)) == 1


def test_numeric_certificate_superattracting():
    # the 2-cycle {0, -1} of f_(-1) has multiplier 0; the trap holds 0
    eps = F(1, 10**50)
    trap = RationalInterval(-eps / 100, eps / 100)
    cert = certify_attracting_cycle(F(-1), 2, -eps, eps, trap, _point(F(-1)))
    assert cert.modulus_bound == eps
    with pytest.raises(MultiplierMismatchError):
        certify_attracting_cycle(F(-1), 2, eps, 2 * eps, trap, _point(F(-1)))


def test_numeric_certificate_fixed_point():
    # the fixed-point multipliers at c = 1/8 are 1 -+ sqrt(1/2)
    trap = RationalInterval(F(7, 50), F(3, 20))
    cert = certify_attracting_cycle(F(1, 8), 1, F(1, 4), F(1, 3), trap, _point(F(1, 8)))
    assert cert.modulus_bound == F(1, 3)
    assert (1 - F(1, 3)) ** 2 < F(1, 2) < (1 - F(1, 4)) ** 2  # so 1/4 < 1 - sqrt(1/2) < 1/3
    with pytest.raises(MultiplierMismatchError):
        certify_attracting_cycle(F(1, 8), 1, F(1, 3), 1, trap, _point(F(1, 8)))


def _around_two_cycle_point(c, radius):
    # [p - radius, p + radius] for the 2-cycle point p = (-1 + sqrt(-3 - 4c))/2
    # of f_c, with sqrt(u/v) = sqrt(uv)/v taken by an integer square root to
    # within 10^-40/v
    d = -3 - 4 * c
    scale = 10**40
    root = F(math.isqrt(d.numerator * d.denominator * scale**2), d.denominator * scale)
    p = (root - 1) / 2
    return RationalInterval(p - radius, p + radius)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.fractions(min_value=F(-6, 5), max_value=F(-4, 5), max_denominator=10**6),
    st.fractions(min_value=F(1, 10**6), max_value=F(1, 5), max_denominator=10**6),
    st.fractions(min_value=F(1, 10**6), max_value=F(1, 5), max_denominator=10**6),
)
def test_numeric_two_cycle_bound_covers_exact_multiplier(c, below, above):
    # For -5/4 < c < -3/4 the 2-cycle has the exact multiplier 4(c + 1),
    # inside (-4/5, 4/5) here: a narrow trap around a cycle point certifies
    # an interval around it, and not one beside it.
    lam = 4 * (c + 1)
    trap = _around_two_cycle_point(c, min(below, above) / 64)
    cert = certify_attracting_cycle(c, 2, lam - below, lam + above, trap, _point(c))
    assert abs(lam) < cert.modulus_bound < 1
    with pytest.raises(MultiplierMismatchError):
        certify_attracting_cycle(c, 2, lam + above, min(lam + 2 * above, 1), trap, _point(c))


def test_numeric_certificate_guards():
    trap = RationalInterval(F(-1, 10), F(1, 10))
    with pytest.raises(CapExceededError):
        certify_attracting_cycle(F(-1), 6, -1, 1, trap, _point(F(-1)))
    with pytest.raises(ValueError):
        certify_attracting_cycle(F(-1), 0, -1, 1, trap, _point(F(-1)))
    for a, b in ((F(-11, 10), 0), (0, F(11, 10)), (F(1, 2), F(1, 2)), (F(1, 2), 0)):
        with pytest.raises(ValueError):
            certify_attracting_cycle(F(-1), 2, a, b, trap, _point(F(-1)))
    # a trap and multiplier interval that certify c = -1 prove nothing for
    # a parameter outside the enclosure
    assert certify_attracting_cycle(F(-1), 2, -1, 1, trap, _point(F(-1))).modulus_bound == 1
    with pytest.raises(MultiplierMismatchError):
        certify_attracting_cycle(F(-1, 10**9) - 1, 2, -1, 1, trap, _point(F(-1)))


def _enclosure(alpha):
    # the isolation of alpha refined to width 10^-12, as a closed interval
    iso = alpha.refined(F(1, 10**12)).isolation
    return RationalInterval(iso.lo, iso.hi)


_CUBIC_PARAMETER = parse_parameter("64x^3+144x^2+108x+135@[-2,-15/8]")

# Parabolic parameters with a period k of their parabolic cycle, an
# enclosure, and a trap [-beta, beta] that f_c maps into itself (c >= -beta
# and beta^2 + c <= beta), so that only the derivative bound refuses it.
_PARABOLIC_CONTROLS = (
    (F(-5, 4), 2, _point(F(-5, 4)), F(17, 10)),
    (F(-7, 4), 3, _point(F(-7, 4)), F(19, 10)),
    (_CUBIC_PARAMETER, 4, _enclosure(_CUBIC_PARAMETER), F(39, 20)),
)


@given(st.sampled_from(_PARABOLIC_CONTROLS), helpers.TRAPS)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_numeric_certificate_rejects_parabolic_cycle(control, trap):
    # Negative control.  At a parabolic parameter the parabolic cycle
    # attracts the one critical point, so by Fatou's theorem no cycle
    # attracts, and no trap may certify one even with (a, b) = (-1, 1).
    c, k, enclosure, beta = control
    for j in (trap, RationalInterval(-beta, beta)):
        with pytest.raises(MultiplierMismatchError):
            certify_attracting_cycle(c, k, -1, 1, j, enclosure)


def _conjugate_low():
    m = IntegerPoly((41, 52, 16))
    return make_real_algebraic(m, isolate_real_roots(m)[0])


@given(helpers.TRAPS)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_numeric_certificate_refuses_the_conjugate(trap):
    # Negative control.  At c = (-13 - sqrt5)/8 < -5/4 the fixed points and
    # the 2-cycle repel, and no 4-cycle multiplier lies in [-1, 1] (the
    # sextic's one root there belongs to the conjugate), so no trap certifies
    # a cycle of period dividing 4.
    low = _conjugate_low()
    for j in (trap, RationalInterval(F(-39, 20), F(39, 20))):
        with pytest.raises(MultiplierMismatchError):
            certify_attracting_cycle(low, 4, -1, 1, j, _enclosure(low))


def test_numeric_certificate_refuses_a_parameter_outside_its_enclosure():
    # the trap and enclosure that certify the high root say nothing about
    # the low one, which lies outside the enclosure
    with pytest.raises(MultiplierMismatchError, match="not in the enclosure"):
        certify_attracting_cycle(_conjugate_low(), *_PROP2_ROW)


@given(
    st.fractions(min_value=-2, max_value=F(1, 4), max_denominator=100),
    st.integers(min_value=1, max_value=3),
    helpers.TRAPS,
)
@example(F(-13, 50), 1, RationalInterval(F(-1, 4), F(1, 4)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_numeric_certificate_holds_at_sample_points(c, k, trap):
    # An accepted certificate holds pointwise: f_c^k maps the ends, the
    # midpoint and 0 (when in the trap) of the trap into it, with (f^k)'
    # strictly inside (-1, 1) there.  The example's trap holds 0, which f_c
    # maps to c = -13/50, outside it.
    try:
        certify_attracting_cycle(c, k, -1, 1, trap, _point(c))
    except MultiplierMismatchError:
        return
    samples = {trap.lo, trap.midpoint, trap.hi} | ({F(0)} if trap.lo <= 0 <= trap.hi else set())
    for z in samples:
        slope = 1
        for _ in range(k):
            slope *= 2 * z
            z = z * z + c
        assert trap.lo <= z <= trap.hi and -1 < slope < 1
