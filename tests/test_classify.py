"""Classification pipelines, JSON reports, and the command line interface."""

import collections
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from parabkit.classify import (
    Certificate,
    ClassificationReport,
    Environment,
    PipelineMismatchError,
    cli_main,
    parse_parameter,
    prop1_pipeline,
    prop2_pipeline,
    report_from_json,
    report_to_json,
)
from parabkit import classify
from parabkit.classify import _prop2_candidates
from parabkit.algebraic import NotIsolatingError, from_rational, make_real_algebraic
from parabkit.dynamics import ParabolicVerdict
from parabkit.polyring import (
    IntegerPoly,
    ParseError,
    RationalInterval,
    format_poly,
    isolate_real_roots,
)


def run_cli(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(list(argv))
    return code, out.getvalue()


# --- first pipeline ---


def test_prop1_canonical():
    report = prop1_pipeline()
    assert report.proposition == "prop1"
    assert report.parameters == (F(-2), F(-1), F(0))
    assert len(report.certificates) == 3
    assert all(c.verdict == "confirmed" for c in report.certificates)
    for cert in report.certificates:
        assert "PostcriticallyFinite" in cert.reason
    assert report.environment.nmax == 0


def test_prop1_diagnostic_threshold_one():
    report = prop1_pipeline(threshold=1, order_cap=8)
    assert report.parameters == (F(-2), F(-1), F(0))
    by_value = {
        c.candidate.to_rational(): c for c in report.certificates if c.candidate.is_rational
    }
    assert by_value[F(2)].verdict == "eliminated"
    assert "is_pcf_rational" in by_value[F(2)].reason
    assert by_value[F(1)].verdict == "eliminated"
    assert by_value[F(0)].verdict == "confirmed"


def test_prop1_diagnostic_strict():
    report = prop1_pipeline(strict=True)
    assert report.parameters == (F(-2), F(-1))


def test_prop1_candidates_monotone_in_threshold():
    prev = None
    for t in (F(0), F(1, 4), F(1, 2), F(1)):
        report = prop1_pipeline(threshold=t, order_cap=8)
        cands = {str(c.candidate) for c in report.certificates}
        if prev is not None:
            assert prev <= cands, t
        prev = cands


def test_prop1_is_deterministic():
    a, b = prop1_pipeline(), prop1_pipeline()
    assert a == b


# --- second pipeline ---


@pytest.fixture(scope="module")
def prop2_report():
    return prop2_pipeline(5)


def test_prop2_canonical_parameters(prop2_report):
    assert prop2_report.proposition == "prop2"
    assert prop2_report.parameters == (F(-7, 4), F(-5, 4), F(-3, 4), F(1, 4))
    assert prop2_report.environment.nmax == 5
    assert prop2_report.environment.runtime_ms >= 0


def test_prop2_certificate_breakdown(prop2_report):
    eliminated = [c for c in prop2_report.certificates if c.verdict == "eliminated"]
    confirmed = [c for c in prop2_report.certificates if c.verdict == "confirmed"]
    assert len(eliminated) == 4 and len(confirmed) == 4
    reasons = sorted(c.reason.split("(")[0] for c in eliminated)
    assert reasons == [
        "AttractingCycle",
        "GaloisConjugateEliminated",
        "ParityOdd",
        "PreperiodicPCF",
    ]
    for cert in confirmed:
        assert "Parabolic(" in cert.reason
        assert cert.checked_up_to == 5


def test_prop2_elimination_details(prop2_report):
    by_reason = {c.reason.split("(")[0]: c for c in prop2_report.certificates if c.verdict == "eliminated"}
    pcf = by_reason["PreperiodicPCF"]
    assert pcf.candidate.to_rational() == F(-2)
    assert "preperiod 1, period 1" in pcf.reason
    parity = by_reason["ParityOdd"]
    assert parity.candidate.to_rational() == F(-3, 2)
    assert "odd" in parity.reason
    attracting = by_reason["AttractingCycle"]
    assert not attracting.candidate.is_rational
    assert attracting.modulus_bound == F(3, 5)
    assert attracting.reason.startswith("AttractingCycle(period 4")
    galois = by_reason["GaloisConjugateEliminated"]
    assert not galois.candidate.is_rational
    assert str(attracting.candidate) in galois.reason
    for cert in (pcf, parity, attracting, galois):
        assert cert.checked_up_to == 5
    assert sum(1 for c in prop2_report.certificates if c.modulus_bound is not None) == 1


def test_prop2_modulus_bound_is_an_upper_bound(prop2_report):
    # The multiplier of the attracting 4-cycle at c = (-13 + sqrt5)/8 is the
    # root in (-1, 0) of this integer polynomial; the bound must lie above its
    # modulus exactly, not only after rounding to 53 bits.
    norm = IntegerPoly((1135061, 1930947, 69670, 10807, 922, -9, 1))
    lam = make_real_algebraic(norm, RationalInterval(F(-1), F(0), True, True))
    (bound,) = [c.modulus_bound for c in prop2_report.certificates if c.modulus_bound is not None]
    assert lam > -bound
    assert bound < 1


def test_prop2_enclosure_matches_the_fraction_bisection():
    # The integer bisection kernel reproduces the Fraction-midpoint loop
    # endpoint for endpoint on a width-10^-69 enclosure of (-13 + sqrt5)/8.
    golden_high = [c for c in _prop2_candidates() if not c.is_rational][1]
    width = F(1, 10**69)
    expected = helpers.fraction_refined(golden_high.minpoly, golden_high.isolation, width)
    assert golden_high.refined(width).isolation == expected


def test_prop2_refuses_an_irrational_with_no_eliminated_conjugate(monkeypatch):
    # negative control for the Galois step: -sqrt3 is totally real and lies
    # in [-2, -5/4), but no conjugate of it has an attracting cycle, so no
    # step of the chain places it
    candidates = classify._prop2_candidates
    minus_sqrt3 = make_real_algebraic(IntegerPoly((-3, 0, 1)), RationalInterval(F(-2), F(-1)))
    monkeypatch.setattr(classify, "_prop2_candidates", lambda: candidates() + [minus_sqrt3])
    with pytest.raises(PipelineMismatchError, match=r"^unplaced candidate x\^2-3@\[-2,-1\]$"):
        prop2_pipeline()


def test_prop2_nmax_too_small_is_a_mismatch():
    with pytest.raises(PipelineMismatchError):
        prop2_pipeline(1)


# --- the certificate chain ---

_REPORTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reports")


@pytest.mark.parametrize(
    "name, run",
    [
        ("prop1", prop1_pipeline),
        ("prop2", prop2_pipeline),
        ("prop1_threshold_1_order_cap_8", lambda: prop1_pipeline(threshold=1, order_cap=8)),
    ],
)
def test_report_bytes_are_pinned(name, run):
    # the stored reports were written by the literal-dispatch pipelines that
    # the certificate chains replaced, with their isolations re-pinned to the
    # unnarrowed Sturm cells; only runtime_ms may differ
    report = run()
    report = ClassificationReport(
        report.proposition,
        report.parameters,
        report.certificates,
        Environment(report.environment.nmax, 0),
    )
    with open(os.path.join(_REPORTS, f"{name}.json")) as fh:
        assert report_to_json(report) + "\n" == fh.read()


def test_prop2_certificate_calls(monkeypatch):
    calls = collections.Counter()
    for name in (
        "certify_attracting_cycle",
        "is_parabolic_up_to",
        "parity_certificate",
        "verify_cycle",
        "is_pcf_rational",
    ):
        def counting(*args, _name=name, _original=getattr(classify, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(classify, name, counting)
    prop2_pipeline()
    assert calls == {
        "certify_attracting_cycle": 1,
        "is_parabolic_up_to": 5,
        "parity_certificate": 5,
        "verify_cycle": 4,
        "is_pcf_rational": 1,
    }


def test_prop2_refuses_an_invalid_parity_certificate(monkeypatch):
    monkeypatch.setattr(classify, "parity_certificate", lambda n: types.SimpleNamespace(is_valid=False))
    with pytest.raises(PipelineMismatchError, match="parity certificate failed at n=1"):
        prop2_pipeline()


def test_prop2_refuses_a_wrong_vanishing_index(monkeypatch):
    g, n, lam, _, tag = classify._PARABOLIC_CYCLES[F(-5, 4)]
    monkeypatch.setitem(classify._PARABOLIC_CYCLES, F(-5, 4), (g, n, lam, 2, tag))
    with pytest.raises(PipelineMismatchError, match=r"-5/4 verdict Parabolic\(4\), expected Parabolic\(2\)"):
        prop2_pipeline()


def test_prop2_refuses_an_unplaced_candidate(monkeypatch):
    monkeypatch.setattr(classify, "_ATTRACTING_CYCLES", {})
    with pytest.raises(PipelineMismatchError, match="unplaced candidate 16x\\^2\\+52x\\+41"):
        prop2_pipeline()


def test_prop2_refuses_a_vanishing_pn_at_minus_two(monkeypatch):
    original = classify.is_parabolic_up_to

    def vanishing_at_minus_two(c, nmax):
        return ParabolicVerdict("parabolic", 3) if c == -2 else original(c, nmax)

    monkeypatch.setattr(classify, "is_parabolic_up_to", vanishing_at_minus_two)
    with pytest.raises(PipelineMismatchError, match=r"P_3\(-8\) vanished"):
        prop2_pipeline()


# --- reports ---


def test_report_json_shape(prop2_report):
    payload = json.loads(report_to_json(prop2_report))
    assert list(payload) == ["schema", "proposition", "parameters", "certificates", "environment"]
    assert payload["schema"] == "parab-kit/1"
    assert payload["proposition"] == "prop2"
    assert payload["parameters"] == ["-7/4", "-5/4", "-3/4", "1/4"]
    assert len(payload["certificates"]) == 8
    for entry in payload["certificates"]:
        assert list(entry)[:4] == ["candidate", "verdict", "reason", "checked_up_to"]
    withbound = [e for e in payload["certificates"] if "modulus_bound" in e]
    assert len(withbound) == 1
    env = payload["environment"]
    assert list(env) == ["nmax", "runtime_ms"]
    assert env["nmax"] == 5 and env["runtime_ms"] >= 0


def test_report_json_roundtrip(prop2_report):
    assert report_from_json(report_to_json(prop2_report)) == prop2_report
    r1 = prop1_pipeline()
    text = report_to_json(r1)
    assert json.loads(text)["parameters"] == ["-2", "-1", "0"]
    assert report_from_json(text) == r1


def test_a_report_with_narrowed_isolations_still_loads(prop2_report):
    # reports written before isolations lost their width target name the
    # same candidates with narrower isolations
    narrowed = {
        "16x^2+52x+41@[-2,-3/2]": "16x^2+52x+41@[-31/16,-15/8]",
        "16x^2+52x+41@[-3/2,-1]": "16x^2+52x+41@[-11/8,-21/16]",
    }
    payload = json.loads(report_to_json(prop2_report))
    assert narrowed.keys() <= {entry["candidate"] for entry in payload["certificates"]}
    for entry in payload["certificates"]:
        entry["candidate"] = narrowed.get(entry["candidate"], entry["candidate"])
    loaded = report_from_json(json.dumps(payload))
    assert [c.candidate for c in loaded.certificates] == [c.candidate for c in prop2_report.certificates]


def test_report_json_deterministic(prop2_report):
    again = prop2_pipeline(5)
    a = json.loads(report_to_json(prop2_report))
    b = json.loads(report_to_json(again))
    a["environment"]["runtime_ms"] = b["environment"]["runtime_ms"] = 0
    assert json.dumps(a) == json.dumps(b)


def test_report_from_json_rejects_other_schemas(prop2_report):
    payload = json.loads(report_to_json(prop2_report))
    payload["schema"] = "parab-kit/2"
    with pytest.raises(ValueError):
        report_from_json(json.dumps(payload))


def test_certificate_str():
    cert = Certificate(from_rational(F(-2)), "eliminated", "PreperiodicPCF(...)", 5)
    text = str(cert)
    assert text.startswith("-2: eliminated [PreperiodicPCF")
    assert "n=5" in text


# --- parameter parsing ---


def test_parse_parameter_rational():
    p = parse_parameter("-7/4")
    assert p.is_rational and p.to_rational() == F(-7, 4)
    assert parse_parameter("3").to_rational() == 3
    assert parse_parameter("0.25") == F(1, 4) and parse_parameter("1e1300") == 10**1300


def test_parse_parameter_algebraic():
    q = parse_parameter("16x^2+52x+41@[-3/2,-1]")
    assert not q.is_rational
    assert str(q).startswith("16x^2+52x+41@")
    assert parse_parameter(str(q)) == q


def test_parse_parameter_errors():
    with pytest.raises(ParseError):
        parse_parameter("")
    with pytest.raises(ParseError):
        parse_parameter("x^2-2@[1;2]")
    with pytest.raises(ParseError):
        parse_parameter("zz**")
    with pytest.raises(NotIsolatingError):
        parse_parameter("x^2-2@[-3,3]")


# --- command line ---


def test_cli_pn():
    code, out = run_cli("pn", "--n", "2")
    assert code == 0 and out.strip() == "b^4+8b^3+18b^2-27"
    code, out = run_cli("pn", "--n", "2", "--check-parity")
    assert code == 0 and "parity" in out


def test_cli_pn_cap_is_a_verification_failure():
    code, _ = run_cli("pn", "--n", "99")
    assert code == 1


def test_cli_kronecker():
    code, out = run_cli("kronecker", "--poly", "x^2-x-1")
    assert code == 0 and out.strip() == "not a product of cyclotomics"
    code, out = run_cli("kronecker", "--poly", "x^4+x^3+2x^2+x+1")
    assert code == 0 and "orders [3, 4]" in out


def test_cli_classify():
    code, out = run_cli("classify", "--c", "-11/10")
    assert code == 0 and "AttractingTwoCycle" in out
    code, out = run_cli("classify", "--c", "1/4")
    assert code == 0 and "ParabolicLandmark" in out
    code, out = run_cli("classify", "--c", "16x^2+52x+41@[-3/2,-1]")
    assert code == 0 and "NotUpToBound(5)" in out


def test_cli_classify_names_every_parabolic_parameter():
    code, out = run_cli("classify", "--c", "-7/4")
    assert code == 0 and out.strip() == "-7/4: ParabolicLandmark (3, 1)"
    code, out = run_cli("classify", "--c", "-7/4", "--json")
    assert code == 0
    assert json.loads(out) == {"c": "-7/4", "tag": "ParabolicLandmark", "detail": [3, 1]}
    code, out = run_cli("classify", "--c", "-3/2", "--json")
    assert code == 0 and json.loads(out)["tag"] == "CoreBoundedUnresolved"


def test_cli_classify_algebraic_outside_core_escapes():
    # Same answer as for a rational c outside [-2, 1/4]; compare "--c 3".
    _, rational = run_cli("classify", "--c", "3", "--json")
    assert json.loads(rational)["tag"] == "EscapesToInfinity"
    for text in ("x^2-5@[2,3]", "x^2-5@[-3,-2]"):  # sqrt 5 and -sqrt 5 < -2
        code, out = run_cli("classify", "--c", text, "--json")
        assert code == 0
        assert json.loads(out) == {"c": text, "tag": "EscapesToInfinity", "detail": []}
        code, out = run_cli("classify", "--c", text)
        assert code == 0 and out.strip() == f"{text}: EscapesToInfinity"


def test_cli_calls_share_no_state():
    # Every call in the process reads the same command tables; each call
    # still gets its own output format and exit code.
    for _ in range(2):
        code, out = run_cli("classify", "--c", "1/4", "--json")
        assert code == 0 and json.loads(out)["tag"] == "ParabolicLandmark"
        code, out = run_cli("classify", "--c", "1/4")
        assert code == 0 and out.strip() == "1/4: ParabolicLandmark (1, 1)"
        with contextlib.redirect_stderr(io.StringIO()):
            assert run_cli("classify", "--c", "1/4", "--bogus") == (2, "")
        assert run_cli("verify", "prop1", "--quiet") == (0, "")


def test_readme_quick_tour():
    import doctest

    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
    failures, attempted = doctest.testfile(readme, module_relative=False)
    assert attempted > 0 and failures == 0


def test_import_does_not_load_mpmath():
    import parabkit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parabkit.__file__)))
    probe = "import sys, parabkit; print('mpmath' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_import_loads_no_dataclasses_machinery():
    # the record classes are built without dataclasses, which would pull in
    # inspect, ast and dis, and the command line without argparse; -S keeps
    # site hooks from loading them first
    import parabkit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parabkit.__file__)))
    probe = "import sys; b = set(sys.modules); import parabkit; print(*set(sys.modules) - b)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    added = set(result.stdout.split())
    assert "parabkit.classify" in added
    assert not added & {"dataclasses", "inspect", "ast", "dis", "argparse"}


def test_fresh_prop2_builds_no_pn():
    # prop2 reads P_n only at rational points: in a fresh process it leaves
    # the P_n cache empty and never calls the bivariate resultant; the
    # discriminant_Pn call afterwards shows that the probe sees both.
    import parabkit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parabkit.__file__)))
    probe = (
        "from parabkit import dynamics, polyring\n"
        "calls = []\n"
        "original = polyring.resultant_in_z\n"
        "polyring.resultant_in_z = lambda *args: calls.append(1) or original(*args)\n"
        "from parabkit.classify import prop2_pipeline\n"
        "prop2_pipeline()\n"
        "print(dynamics._pn.cache_info().currsize, len(calls))\n"
        "dynamics.discriminant_Pn(2)\n"
        "print(dynamics._pn.cache_info().currsize, len(calls))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["0 0", "1 1"]


# Classifies one parameter in a fresh process and prints its exit code and
# verdict, the P_n cache size, the bivariate resultant calls and the n of
# every P_n built, and the number of distinct primes whose witness table
# (P_n(4x) mod p) was read.
_CLASSIFY_PROBE = (
    "import contextlib, io, json, sys\n"
    "from parabkit import dynamics, polyring\n"
    "calls = []\n"
    "original = polyring.resultant_in_z\n"
    "polyring.resultant_in_z = lambda *args: calls.append(1) or original(*args)\n"
    "built = []\n"
    "pn = dynamics.discriminant_Pn\n"
    "dynamics.discriminant_Pn = lambda n: built.append(n) or pn(n)\n"
    "primes = set()\n"
    "table = dynamics._qn_mod\n"
    "dynamics._qn_mod = lambda n, p: primes.add(p) or table(n, p)\n"
    "from parabkit.classify import cli_main\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = cli_main(['classify', '--c', sys.argv[1], '--json'])\n"
    "print(code, json.loads(out.getvalue())['parabolic'])\n"
    "print(dynamics._pn.cache_info().currsize, len(calls), built)\n"
    "print(len(primes))\n"
)


def _run_classify_probe(parameter) -> list:
    import parabkit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parabkit.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", _CLASSIFY_PROBE, parameter],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split("\n")[:3]


@pytest.mark.parametrize(
    "parameter, expected, built",
    [
        # modular witnesses prove P_1..P_5 nonzero: no P_n is built, at a
        # quadratic, a quartic and a reducible cubic alike
        ("16x^2+52x+41@[-3/2,-1]", "NotUpToBound(5)", "0 0 []"),
        ("x^2+14x+8@[-3/4,-1/2]", "NotUpToBound(5)", "0 0 []"),
        ("x^4-3@[-2,-1]", "NotUpToBound(5)", "0 0 []"),
        ("(2x+1)(x^2-3)@[-7/4,-3/2]", "NotUpToBound(5)", "0 0 []"),
        # P_4(4c) = 0 at the cubic control: only the zero residue at n = 4
        # sends it to the exact route, which builds P_4 alone
        ("64x^3+144x^2+108x+135@[-2,-15/8]", "Parabolic(4)", "1 1 [4]"),
    ],
)
def test_fresh_classify_builds_pn_only_for_zero_residues(parameter, expected, built):
    assert _run_classify_probe(parameter)[:2] == [f"0 {expected}", built]


@pytest.mark.parametrize(
    "parameter, searched",
    [
        # inside a Fatou window (the fixed point attracts on (-3/4, 1/4), the
        # 2-cycle on (-5/4, -3/4)): no witness table and no P_n
        ("x^2+14x+8@[-3/4,-1/2]", 0),
        ("x^3+3x+1@[-1,0]", 0),
        ("2x^3+2x+3@[-1,-3/4]", 0),
        # outside them, on [-2, -5/4): the tables of one prime serve every n,
        # and still no P_n
        ("16x^2+52x+41@[-3/2,-1]", 1),
        ("x^3+x^2+1@[-2,-1]", 1),
    ],
)
def test_fresh_classify_skips_witnesses_inside_the_windows(parameter, searched):
    assert _run_classify_probe(parameter) == ["0 NotUpToBound(5)", "0 0 []", str(searched)]


def test_cli_multiplier():
    code, out = run_cli("multiplier", "--c", "-5/4", "--period", "2", "--cycle-poly", "4z^2+4z-1")
    assert code == 0 and "-1" in out
    code, _ = run_cli("multiplier", "--c", "-1/2", "--period", "2", "--cycle-poly", "4z^2+4z-1")
    assert code == 1


def test_cli_totally_real():
    code, out = run_cli("totally-real", "--poly", "16x^2+52x+41")
    assert code == 0 and out.strip() == "totally real"
    code, out = run_cli("totally-real", "--poly", "x^2+1")
    assert code == 0 and out.strip() == "not totally real"


def test_cli_isolate():
    code, out = run_cli("isolate", "--poly", "x^2-2")
    assert code == 0 and len(out.strip().splitlines()) == 2
    code, out = run_cli("isolate", "--poly", "x^2-3x+2")
    assert code == 0
    assert [line.strip() for line in out.strip().splitlines()] == ["1", "2"]
    # rational roots print exactly, as points in JSON
    for poly, expected in (
        ("3x^2-x-2", ["-2/3", "1"]),
        ("x-12345678901234567890", ["12345678901234567890"]),
        ("(x-3)(x^2-2)", ["(-8, 0)", "(0, 2)", "3"]),
        ("x^7-7x^5+14x^3-7x", ["(-2, -7/4)", "(-7/4, -3/2)", "(-1, 0)", "0", "(0, 1)", "(3/2, 7/4)", "(7/4, 2)"]),
    ):
        code, out = run_cli("isolate", "--poly", poly)
        assert code == 0 and out.splitlines() == expected, poly
    code, out = run_cli("isolate", "--poly", "3x^2-x-2", "--json")
    assert code == 0 and json.loads(out) == [
        {"lo": "-2/3", "hi": "-2/3", "point": True},
        {"lo": "1", "hi": "1", "point": True},
    ]


def test_cli_verify_prop1():
    code, out = run_cli("verify", "prop1")
    assert code == 0 and "{-2, -1, 0}" in out
    code, out = run_cli("verify", "prop1", "--json")
    assert code == 0 and json.loads(out)["parameters"] == ["-2", "-1", "0"]
    code, out = run_cli("--json", "verify", "prop1")
    assert code == 0 and json.loads(out)["proposition"] == "prop1"
    code, out = run_cli("--quiet", "verify", "prop1")
    assert code == 0 and out == ""


def test_cli_verify_prop2():
    code, out = run_cli("verify", "prop2", "--nmax", "5", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["parameters"] == ["-7/4", "-5/4", "-3/4", "1/4"]
    assert len(payload["certificates"]) == 8
    code, _ = run_cli("verify", "prop2", "--nmax", "1")
    assert code == 1


def test_cli_usage_errors():
    assert run_cli("nonsense")[0] == 2
    assert run_cli("classify", "--c", "zz**")[0] == 2
    assert run_cli("pn")[0] == 2
    assert run_cli()[0] == 2
    assert run_cli("classify", "--c", "x^2-5@[0,1]")[0] == 2  # no root in the interval
    assert run_cli("isolate", "--poly", "0")[0] == 2
    assert run_cli("kronecker", "--poly", "5")[0] == 2  # constant polynomial
    assert run_cli("totally-real", "--poly", "5")[0] == 2
    assert run_cli("classify", "--c", "(x^2-2)^2@[1,2]")[0] == 2  # repeated root
    with contextlib.redirect_stderr(io.StringIO()):
        assert run_cli("verify", "prop2", "--precision", "64")[0] == 2  # no such option
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli("multiplier", "--c", "1/0", "--period", "1", "--cycle-poly", "2x-1")
    assert code == 2
    assert err.getvalue().startswith("error: not a rational parameter: '1/0'")
    # numbers with more digits than the interpreter prints are refused where
    # they are parsed, quoting the input
    long_literal = "1" * 5000
    for argv, quoted in (
        (("classify", "--c", "1e5000"), "'1e5000'"),
        (("multiplier", "--c", "1e5000", "--period", "1", "--cycle-poly", "2x-1"), "'1e5000'"),
        (("classify", "--c", "x^2-2@[1,1e5000]"), "'1e5000'"),
        (("classify", "--c", "x^2-2@[-1e5000,-1]"), "'-1e5000'"),
        # digits are ASCII only, and any other digit is refused where it stands
        (("classify", "--c", "x^\u00b2-2@[0,2]"), "error: expected a number (at position 2)"),
        (("classify", "--c", "\u0663x-2@[0,1]"), "error: unexpected '\u0663' (at position 0)"),
        (("classify", "--c", "\u0663"), "error: unexpected '\u0663' (at position 0)"),
        (("classify", "--c", "1_000"), "error: unexpected '_' (at position 1)"),
        (("classify", "--c", "x-2@[\u0661,\u0663]"), "error: unexpected '\u0661' (at position 5)"),
        (("classify", "--c", "x-2@[1, 3_0]"), "error: unexpected '_' (at position 9)"),
        (("multiplier", "--c", "\u0663", "--period", "1", "--cycle-poly", "2x-1"), "(at position 0)"),
        (("pn", "--n", "\u0663"), "error: argument --n: unexpected '\u0663' (at position 0)"),
        (("isolate", "--poly", f"x-{long_literal}"), f"'{long_literal}' has too many digits (at position 2)"),
        # a printable coefficient whose irrational root's isolating interval
        # is not printable: the root bound 2^14285 has 4301 digits
        (("isolate", "--poly", "x^2-" + "9" * 4300), f"'an isolating interval endpoint of x^2-{'9' * 4300}'"),
    ):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run_cli(*argv)[0] == 2, argv[:3]
        assert quoted in err.getvalue(), argv[:3]
        assert "Exceeds the limit" not in err.getvalue(), argv[:3]
    # so are values that short literals build, at the operator that builds
    # them and before a power is computed
    for argv, quoted in (
        (("isolate", "--poly", "x-(10^4096)^2"), "'(10^4096)^2' has too many digits (at position 11)"),
        (("classify", "--c", "x-(10^4096)^2@[0,1]"), "'(10^4096)^2' has too many digits"),
        (("kronecker", "--poly", "x^2-(10^4096)^2"), "'(10^4096)^2' has too many digits"),
        (("isolate", "--poly", "((10^100)^100)^100-x"), "'(10^100)^100' has too many digits (at position 9)"),
        (("totally-real", "--poly", "(x^4096+1)^64"), "degree 262144, above the cap 4096 (at position 10)"),
        (("isolate", "--poly", "(x^2+10^1000x+1)^5"), "'(x^2+10^1000x+1)^5' has too many digits (at position 16)"),
        (("isolate", "--poly", "(10^4000)(10^4000)-x"), "'(10^4000)(10^4000)' has too many digits (at position 9)"),
        (("isolate", "--poly", "9" * 4300 + "+1-x"), "has too many digits (at position 4300)"),
        # and so is a product or power whose work estimate is too large
        (("isolate", "--poly", "(x+1)^2048"), "'(x+1)^2048' needs work "),
        (("classify", "--c", "(x+1)^2048-1@[0,1]"), "above the cap 268435456 (at position 5)"),
    ):
        err = io.StringIO()
        start = time.monotonic()
        with contextlib.redirect_stderr(err):
            assert run_cli(*argv)[0] == 2, argv[:3]
        assert time.monotonic() - start < 1, argv[:3]
        assert quoted in err.getvalue(), argv[:3]
        assert "Exceeds the limit" not in err.getvalue(), argv[:3]
    # a rational root prints exactly, here 10^4300 - 1, at the digit limit
    assert run_cli("isolate", "--poly", "9" * 4300 + "-x") == (0, "9" * 4300 + "\n")
    # and so does the root bound 2^14281 of x^2 - 10^4299, at 4300 digits
    bound = str(2**14281)
    assert run_cli("isolate", "--poly", "x^2-1" + "0" * 4299) == (0, f"(-{bound}, 0)\n(0, {bound})\n")


def test_cli_classify_clamps_wide_isolations():
    # an isolation much wider than the root bound (here 4) is clamped to it:
    # exactly one root, so the same answer and bytes
    for wide, tight in (("x^2-2@[1,1e1300]", "x^2-2@[1,4]"), ("x^2-2@[-1e1300,-1]", "x^2-2@[-4,-1]")):
        for flags in ((), ("--json",)):
            code, out = run_cli("classify", "--c", wide, *flags)
            assert code == 0 and (code, out) == run_cli("classify", "--c", tight, *flags), wide
    assert run_cli("classify", "--c", "x^2-2@[1,10]")[1].startswith("x^2-2@[1,4]: ")


def test_cli_classify_narrows_an_isolation_past_the_refinement_cap():
    # sqrt(2^10001) = 2^5000 sqrt2 on [0, 2^5001]: the rational-root test
    # takes more than 4096 halvings to width 1/lc = 1, a number the root
    # bound fixes, so no cap applies
    code, out = run_cli("classify", "--c", f"x^2-{2 * 4**5000}@[0,{2**5001}]")
    assert code == 0 and out.strip().endswith(": EscapesToInfinity")


def test_cli_negative_values_after_space():
    # flag values starting with a dash are accepted in both spellings
    code, out = run_cli("classify", "--c=-11/10")
    assert code == 0 and "AttractingTwoCycle" in out
    code, out = run_cli("classify", "--c", "-2")
    assert code == 0 and "PostcriticallyFinite" in out


# one valid argv per subcommand
_ONE_PER_COMMAND = (
    ("verify", "prop1"),
    ("pn", "--n", "2", "--check-parity"),
    ("kronecker", "--poly", "x^4+x^3+2x^2+x+1"),
    ("classify", "--c", "-7/4"),
    ("multiplier", "--c", "-5/4", "--period", "2", "--cycle-poly", "4z^2+4z-1"),
    ("totally-real", "--poly", "16x^2+52x+41"),
    ("isolate", "--poly", "(x-3)(x^2-2)"),
)


# the runtime, the one field that differs between two runs of one command
_RUNTIME = re.compile(r'(verified in |"runtime_ms": )[0-9]+')


def _masked(text: str) -> str:
    return _RUNTIME.sub(r"\1#", text)


@pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=lambda argv: argv[0])
def test_cli_output_flags_before_or_after_the_subcommand(argv):
    code, text = run_cli(*argv)
    assert text.strip() and text.endswith("\n")
    documents = set()
    for json_at in (None, "before", "after"):
        for quiet_at in (None, "before", "after"):
            placed = (("--json", json_at), ("--quiet", quiet_at))
            before = [flag for flag, at in placed if at == "before"]
            after = [flag for flag, at in placed if at == "after"]
            got_code, out = run_cli(*before, *argv, *after)
            assert got_code == code, placed
            if quiet_at:
                assert out == "", placed
            elif json_at:
                json.loads(out)
                documents.add(_masked(out))
    assert len(documents) == 1


@pytest.mark.parametrize("argv", _ONE_PER_COMMAND, ids=lambda argv: argv[0])
def test_cli_handlers_return_their_output(argv):
    # a handler prints nothing and never reads --json or --quiet (absent from
    # this namespace); cli_main prints the lines or the payload it returns
    args, _, _ = classify._parse_argv(list(argv))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code, payload, lines = args.run(args)
    assert out.getvalue() == err.getvalue() == ""
    code_text, text = run_cli(*argv)
    code_json, document = run_cli(*argv, "--json")
    assert code_text == code_json == code
    assert _masked(text) == _masked("\n".join(lines) + "\n")
    assert _masked(document) == _masked(json.dumps(payload, indent=2) + "\n")


def test_cli_every_handler_is_covered():
    covered = {classify._parse_argv(list(argv))[0].run for argv in _ONE_PER_COMMAND}
    assert covered == {value for name, value in vars(classify).items() if name.startswith("_run_")}


# each value flag given a value that starts with '-', and the exit code the
# handler gives it
_DASH_VALUES = {
    "--nmax": (("verify", "prop2", "--nmax", "-1"), 2),  # nmax must be at least 1
    "--n": (("pn", "--n", "-1"), 2),  # n must be at least 1
    "--poly": (("totally-real", "--poly", "-x^2+2"), 0),
    "--c": (("classify", "--c", "-7/4"), 0),
    "--period": (("multiplier", "--c", "-5/4", "--period", "-2", "--cycle-poly", "4z^2+4z-1"), 2),
    "--cycle-poly": (("multiplier", "--c", "-5/4", "--period", "2", "--cycle-poly", "-4z^2-4z+1"), 0),
}


def test_cli_value_flags_take_values_that_start_with_a_dash():
    # the flags _COMMANDS declares as taking a value are the flags the parser
    # asks a value of, and each is given one that starts with '-' below
    declared = {
        flag
        for _, _, _, arguments in classify._COMMANDS
        for flag, options in arguments
        if flag.startswith("--") and options.get("action") != "store_true"
    }
    asking = set()
    for name, _, _, arguments in classify._COMMANDS:
        for flag, _ in arguments:
            try:
                classify._parse_argv([name, flag])
            except classify._CommandLineExit as refused:
                if f"argument {flag}: expected one argument" in str(refused):
                    asking.add(flag)
    assert declared == asking == set(_DASH_VALUES)
    for flag, (argv, expected) in _DASH_VALUES.items():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code, _ = run_cli(*argv)
        assert code == expected, flag
        assert "usage:" not in err.getvalue() and "expected one argument" not in err.getvalue(), flag


# --- the command-line grammar ---


def run_cli_streams(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _with_equals(argv):
    # argv with each "--flag value" pair of a value flag written "--flag=value"
    joined, tokens = [], iter(argv)
    for token in tokens:
        joined.append(f"{token}={next(tokens)}" if token in _DASH_VALUES else token)
    return joined


@pytest.mark.parametrize(
    "argv", _ONE_PER_COMMAND + (("verify", "prop2", "--nmax", "3"),), ids=lambda argv: "-".join(argv[:2])
)
def test_cli_flag_space_value_and_flag_equals_value_agree(argv):
    joined = _with_equals(argv)
    assert (joined == list(argv)) == (not set(argv) & set(_DASH_VALUES))
    assert classify._parse_argv(joined) == classify._parse_argv(list(argv))


def test_cli_a_unique_prefix_names_its_flag():
    parse = classify._parse_argv
    assert parse(["pn", "--n", "2", "--check"]) == parse(["pn", "--n", "2", "--check-parity"])
    assert parse(["--js", "classify", "--c", "1/4", "--q"]) == parse(["--json", "classify", "--c", "1/4", "--quiet"])
    assert parse(["verify", "--nm=3", "prop2"]) == parse(["verify", "prop2", "--nmax", "3"])
    multiplier = ["multiplier", "--c", "-5/4", "--per", "2", "--cy", "-4z^2-4z+1"]
    args, as_json, quiet = parse(multiplier)
    assert (args.c, args.period, args.cycle_poly, as_json, quiet) == ("-5/4", 2, "-4z^2-4z+1", False, False)
    assert run_cli(*multiplier) == run_cli("multiplier", "--c", "-5/4", "--period", "2", "--cycle-poly", "-4z^2-4z+1")
    # a repeated flag keeps its last value
    assert parse(["classify", "--c", "1", "--c", "1/4"])[0].c == "1/4"
    assert parse(["verify", "prop2", "--nmax", "2", "--nm", "4"])[0].nmax == 4


def test_cli_help_names_every_command_and_flag():
    common = ("-h", "--help", "--json", "--quiet")
    for flag in ("-h", "--help"):
        for before in ((), ("--json",)):
            code, out, err = run_cli_streams(*before, flag)
            assert code == 0 and err == "" and out.startswith("usage: parabkit ")
            for word in common:
                assert word in out
            for name, help_text, _, _ in classify._COMMANDS:
                assert name in out and help_text in out
        for name, help_text, _, arguments in classify._COMMANDS:
            code, out, err = run_cli_streams(name, flag)
            assert code == 0 and err == "" and out.startswith(f"usage: parabkit {name} "), name
            assert help_text in out, name
            for word in common:
                assert word in out, name
            for arg, options in arguments:
                assert arg in out or ",".join(options["choices"]) in out, (name, arg)
                assert options.get("help", "") in out, (name, arg)


# command lines the parser refuses, each with what is wrong with it
_REFUSED = (
    ((), "no command"),
    (("nonsense",), "an unknown command"),
    (("classify", "--c", "1/4", "--bogus"), "an unknown flag"),
    (("--c", "1/4", "classify"), "a command's flag before the command"),
    (("classify", "--c"), "a missing value"),
    (("multiplier", "--c", "-5/4", "--period", "2"), "a missing required flag"),
    (("pn", "--n", "two"), "a bad int"),
    (("pn", "--n", "1_0"), "an int with an underscore"),
    (("pn", "--n", "9" * 5000), "an int past the digit limit"),
    (("verify", "prop3"), "a bad choice"),
    (("verify",), "a missing positional"),
    (("verify", "prop1", "prop2"), "an extra positional"),
    (("verify", "prop1", "--"), "an ambiguous prefix"),
    (("--json=yes", "verify", "prop1"), "a value given to a flag that takes none"),
)


@pytest.mark.parametrize("argv", [argv for argv, _ in _REFUSED], ids=[why for _, why in _REFUSED])
def test_cli_refusals_print_usage_and_one_error(argv):
    prog = f"parabkit {argv[0]}" if argv and argv[0] in {row[0] for row in classify._COMMANDS} else "parabkit"
    code, out, err = run_cli_streams(*argv)
    usage, error = err.rstrip("\n").split("\n")
    assert code == 2 and out == ""
    assert usage.startswith(f"usage: {prog} ")
    assert error.startswith(f"{prog}: error: ")
    # and a fresh process exits 2 with the same two lines, no traceback
    import parabkit

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(parabkit.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "from parabkit.classify import main; main()", *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (result.returncode, result.stdout, result.stderr) == (2, "", err)


_TABLE_WORDS = sorted(
    {row[0] for row in classify._COMMANDS}
    | {arg for row in classify._COMMANDS for arg, _ in row[3]}
    | {"-h", "--help", "--json", "--quiet", "--js", "--q", "--check", "--nm", "--cy", "--"}
)
_TABLE_VALUES = (
    "prop1", "prop2", "-1", "0", "1", "2", "3", "4", "1/4", "-7/4", "-3/2", "x^2-2", "x^2-2@[1,2]", "4z^2+4z-1",
)
_cli_tokens = st.one_of(
    st.sampled_from(_TABLE_WORDS),
    st.sampled_from(_TABLE_VALUES),
    st.builds(lambda flag, value: f"{flag}={value}", st.sampled_from(_TABLE_WORDS), st.sampled_from(_TABLE_VALUES)),
    st.text(max_size=6),
)


@given(argv=st.lists(_cli_tokens, max_size=7))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_exit_codes_on_fuzzed_token_sequences(argv):
    # any sequence of the table's commands, flags and values, and junk:
    # an exit code, never an exception
    code, _, err = run_cli_streams(*argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err


def test_cli_classify_reducible_minpoly():
    # (4x+3)(x^2-2) is squarefree but reducible; both intervals isolate its
    # root -3/4, and no bisection midpoint of [-1, -1/4] is -3/4.  The answer
    # is the rational one.  Its root -sqrt2 gets the answer of x^2-2.
    expected = run_cli("classify", "--c", "-3/4", "--json")
    for interval in ("[-1,-1/4]", "[-1,-1/2]"):
        assert run_cli("classify", "--c", f"(4x+3)(x^2-2)@{interval}", "--json") == expected, interval
    code, out = run_cli("classify", "--c", "(4x+3)(x^2-2)@[-2,-1]", "--json")
    irreducible = json.loads(run_cli("classify", "--c", "x^2-2@[-2,-1]", "--json")[1])
    assert code == 0 and json.loads(out)["parabolic"] == irreducible["parabolic"]


def test_parse_parameter_collapses_rational_roots():
    assert parse_parameter("(4x+3)(x^2-2)@[-1,-1/4]") == parse_parameter("-3/4")
    assert parse_parameter("(4x+3)(x^2-2)@[-3/4,0]") == parse_parameter("-3/4")
    assert str(parse_parameter("(4x+3)(x^2-2)@[-1,-1/4]")) == "-3/4"
    assert not parse_parameter("(4x+3)(x^2-2)@[1,2]").is_rational


_coeff_lists = st.lists(st.integers(min_value=-20, max_value=20), max_size=5)
_polys = st.one_of(
    _coeff_lists.map(lambda cs: IntegerPoly(tuple(cs))),
    st.tuples(_coeff_lists, _coeff_lists).map(
        lambda pair: IntegerPoly(tuple(pair[0])) * IntegerPoly(tuple(pair[1]))
    ),
)
_poly_texts = _polys.map(lambda p: format_poly(p, "x"))
_huge_ints = st.builds(
    lambda k, r: 10**k - r,
    st.integers(min_value=100, max_value=300),
    st.integers(min_value=0, max_value=10**6),
)
_huge_rationals = st.builds(
    lambda sign, num, den: F(sign * num, den),
    st.sampled_from((-1, 1)),
    st.one_of(_huge_ints, st.integers(min_value=0, max_value=9)),
    st.one_of(_huge_ints, st.integers(min_value=1, max_value=9)),
)
_rational_texts = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=8),
    _huge_rationals,
).map(str)
_junk_texts = st.text(alphabet="x0123456789+-*/()@[],. ", max_size=10)


def _isolated_root_text(p, index, pad):
    # a well-formed minpoly@[lo,hi] whenever p has a real root; a pad with a
    # huge denominator gives huge ends
    roots = () if p.is_zero else isolate_real_roots(p)
    if not roots:
        return format_poly(p, "x")
    iv = roots[index % len(roots)]
    return f"{format_poly(p, 'x')}@[{iv.lo - pad},{iv.hi + pad}]"


_parameter_texts = st.one_of(
    _rational_texts,
    st.builds(lambda p, lo, hi: f"{p}@[{lo},{hi}]", _poly_texts, _rational_texts, _rational_texts),
    st.builds(
        _isolated_root_text,
        _polys,
        st.integers(min_value=0, max_value=3),
        st.one_of(st.just(F(0)), _huge_ints.map(lambda h: F(1, h))),
    ),
    _junk_texts,
)
_cli_argvs = st.one_of(
    st.tuples(st.just("classify"), st.just("--c"), _parameter_texts),
    st.tuples(
        st.just("multiplier"),
        st.just("--c"),
        _rational_texts,
        st.just("--period"),
        st.integers(min_value=0, max_value=4).map(str),
        st.just("--cycle-poly"),
        st.one_of(_poly_texts, _junk_texts),
    ),
    st.tuples(
        st.sampled_from(("kronecker", "totally-real", "isolate")),
        st.just("--poly"),
        st.one_of(_poly_texts, _junk_texts),
    ),
)


@given(argv=_cli_argvs, as_json=st.booleans())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_exit_codes_on_fuzzed_input(argv, as_json):
    # zero, constant, non-monic and reducible polynomials, malformed
    # minpoly@[lo,hi], small rationals and rationals with numerators and
    # denominators up to 10^300: an exit code, never an exception
    with contextlib.redirect_stderr(io.StringIO()):
        code, _ = run_cli(*argv, *(("--json",) if as_json else ()))
    assert code in (0, 1, 2)


_repeated_root_polys = st.tuples(_polys, _polys).filter(
    lambda pair: pair[0].degree >= 1 and not pair[1].is_zero
).map(lambda pair: pair[0] * pair[0] * pair[1])


@given(
    p=_repeated_root_polys,
    lo=_rational_texts,
    hi=_rational_texts,
    command=st.sampled_from(("classify", "totally-real")),
)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_cli_repeated_roots_are_usage_errors(p, lo, hi, command):
    # g^2 * h has a repeated root: a malformed parameter or polynomial
    text = format_poly(p, "x")
    argv = ("classify", "--c", f"{text}@[{lo},{hi}]") if command == "classify" else (command, "--poly", text)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv)
    assert code == 2, (argv, err.getvalue())


_verify_and_pn_argvs = st.one_of(
    st.tuples(
        st.just("verify"),
        st.sampled_from(("prop1", "prop2")),
        st.just("--nmax"),
        st.integers(min_value=-1, max_value=7).map(str),
    ),
    st.builds(
        lambda n, parity: ("pn", "--n", str(n)) + (("--check-parity",) if parity else ()),
        st.integers(min_value=-2, max_value=7),
        st.booleans(),
    ),
)


@given(argv=_verify_and_pn_argvs, as_json=st.booleans())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_cli_exit_codes_on_fuzzed_verify_and_pn(argv, as_json):
    # nmax and n below, inside and above the caps: an exit code and a
    # one-line message, never an exception
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code, _ = run_cli(*argv, *(("--json",) if as_json else ()))
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
