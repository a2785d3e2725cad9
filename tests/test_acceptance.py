"""Acceptance gate: one test and one printed pass/fail line per criterion.

The printed lines bypass pytest capture so they appear in the terminal log
next to the verbose test results.  Caches are cleared before the timed
criteria so the measured runtimes are cold, not warmed by earlier tests.
"""

import contextlib
import time
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import helpers
from parabkit import cyclotomic as _cyclotomic
from parabkit import dynamics as _dynamics
from parabkit import polyring as _polyring
from parabkit.cyclotomic import admissible_orders
from parabkit.dynamics import (
    MultiplierMismatchError,
    certify_attracting_cycle,
    cycle_multiplier,
    discriminant_Pn,
    is_parabolic_up_to,
    parity_certificate,
    verify_cycle,
)
from parabkit.classify import prop1_pipeline, prop2_pipeline
from parabkit.polyring import IntegerPoly


def _clear_caches():
    for module in (_polyring, _cyclotomic, _dynamics):
        for name in dir(module):
            member = getattr(module, name)
            if hasattr(member, "cache_clear"):
                member.cache_clear()
    # the point values read by prop2 and the parity certificates start cold too
    assert _dynamics._point_discriminant.cache_info().currsize == 0
    assert _dynamics._pn.cache_info().currsize == 0


@contextlib.contextmanager
def criterion(capfd, number, description, notes=None):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"criterion {number} FAIL: {description}", flush=True)
        raise
    line = f"criterion {number} PASS: {description}"
    if notes:
        line += f" [{'; '.join(notes)}]"
    with capfd.disabled():
        print(line, flush=True)


def test_criterion_1_discriminant_fixtures(capfd):
    notes = []
    with criterion(capfd, 1, "P_1..P_4 equal the displayed factored forms exactly", notes):
        _clear_caches()
        start = time.monotonic()
        fixtures = {
            1: "-b+1",
            2: "(b-1)(b+3)^3",
            3: "(b-1)(b+7)^3(b^2+b+7)^4",
            4: "(b-1)(b+3)^3(b+5)^6(b^3+9b^2+27b+135)^4(b^2-2b+5)^5",
        }
        for n, text in fixtures.items():
            assert discriminant_Pn(n).coeffs == helpers.parse_rational_poly(text, var="b").coeffs, n
        elapsed = time.monotonic() - start
        assert elapsed < 30
        notes.append(f"{elapsed:.2f}s, bound 30s")


def test_criterion_2_parity_certificates(capfd):
    notes = []
    with criterion(capfd, 2, "parity certificates valid for n = 1..5", notes):
        _clear_caches()
        start = time.monotonic()
        disc_z2n = {1: 1, 2: -27, 3: -823543, 4: -437893890380859375}
        for n in range(1, 6):
            cert = parity_certificate(n)
            assert cert.is_valid, n
            assert cert.value_at_0_mod2 == 1 and cert.value_at_minus6_mod2 == 1
            assert int(helpers.evaluate(discriminant_Pn(n), -6)) % 2 == 1
        for n in range(1, 5):
            assert discriminant_Pn(n).coeff(0) == disc_z2n[n], n
        elapsed = time.monotonic() - start
        assert elapsed < 300
        notes.append(f"n=5 in {elapsed:.2f}s, bound 300s")


def test_criterion_3_cycle_certificates(capfd):
    with criterion(capfd, 3, "the four cycle certificates verify exactly"):
        expected = (
            (F(1, 4), IntegerPoly((-1, 2)), 1, F(1)),
            (F(-3, 4), IntegerPoly((1, 2)), 1, F(-1)),
            (F(-5, 4), IntegerPoly((-1, 4, 4)), 2, F(-1)),
            (F(-7, 4), IntegerPoly((-1, -18, 4, 8)), 3, F(1)),
        )
        for c, g, n, lam in expected:
            assert cycle_multiplier(g, n) == lam
            cert = verify_cycle(c, g, n, lam)
            assert (cert.parameter, cert.period, cert.multiplier) == (c, n, lam)


def test_criterion_4_admissible_orders(capfd):
    with criterion(capfd, 4, "admissible orders match the two enumerations"):
        assert tuple(admissible_orders(F(0), False)) == (2, 3, 4)
        assert tuple(admissible_orders(F(1, 2), True)) == (2, 3, 4, 5)


def test_criterion_5_prop1(capfd):
    notes = []
    with criterion(capfd, 5, "prop1_pipeline returns exactly {-2, -1, 0}", notes):
        _clear_caches()
        start = time.monotonic()
        report = prop1_pipeline()
        elapsed = time.monotonic() - start
        assert report.parameters == (F(-2), F(-1), F(0))
        assert elapsed < 1
        notes.append(f"{elapsed:.3f}s, bound 1s")


def test_criterion_6_prop2(capfd):
    notes = []
    with criterion(
        capfd, 6, "prop2_pipeline(5) returns exactly {1/4, -3/4, -5/4, -7/4}", notes
    ):
        _clear_caches()
        start = time.monotonic()
        report = prop2_pipeline(5)
        elapsed = time.monotonic() - start
        assert report.parameters == (F(-7, 4), F(-5, 4), F(-3, 4), F(1, 4))
        eliminations = {
            c.reason.split("(")[0]: c for c in report.certificates if c.verdict == "eliminated"
        }
        assert eliminations["PreperiodicPCF"].candidate.to_rational() == F(-2)
        assert eliminations["ParityOdd"].candidate.to_rational() == F(-3, 2)
        attracting = eliminations["AttractingCycle"]
        assert "period 4" in attracting.reason
        assert attracting.modulus_bound is not None and attracting.modulus_bound < 1
        galois = eliminations["GaloisConjugateEliminated"]
        assert galois.candidate < attracting.candidate  # (-sqrt5-13)/8 side
        assert elapsed < 300
        notes.append(f"{elapsed:.2f}s, bound 300s")


def test_criterion_7_property_suites(capfd):
    with criterion(capfd, 7, "property suites pass at full strength"):
        helpers.check_cyclotomic_product(100)
        helpers.check_trace_identity(50)
        worst = helpers.check_resultant_numeric(cases=30, tol=1e-6)
        assert worst < 1e-6
        helpers.check_subres_vs_interp(4)
        helpers.check_dynatomic_product(6)
        helpers.check_sturm_numeric(cases=40)
        helpers.check_sturm_constructed(cases=20)
        helpers.check_parser_roundtrip(cases=60)


_multiplier_ends = st.fractions(min_value=-1, max_value=1, max_denominator=50)


@given(_multiplier_ends, _multiplier_ends)
@example(F(-1), F(1))
@example(F(0), F(1))
@example(F(1, 2), F(1))
@settings(max_examples=100, deadline=None, derandomize=True)
def _refuses_the_parabolic_three_cycle(a, b):
    # Delta_3(lambda, -7/4) = (lambda - 1)^2 never changes sign, and
    # lambda = 1 is a double root: no interval inside [-1, 1] certifies
    if a == b:
        return
    with pytest.raises(MultiplierMismatchError):
        certify_attracting_cycle(F(-7, 4), 3, min(a, b), max(a, b))


def test_criterion_8_negative_controls(capfd):
    with criterion(capfd, 8, "negative controls refuse to certify"):
        verdict = is_parabolic_up_to(F(-3, 2), 5)
        assert str(verdict) == "NotUpToBound(5)"
        assert verdict.is_parabolic is False
        _refuses_the_parabolic_three_cycle()
        report = prop1_pipeline(threshold=1, order_cap=8)
        rejected = [
            c
            for c in report.certificates
            if c.candidate.is_rational and c.candidate.to_rational() == 2
        ]
        assert len(rejected) == 1
        assert rejected[0].verdict == "eliminated"
        assert "is_pcf_rational" in rejected[0].reason
        assert F(2) not in report.parameters
