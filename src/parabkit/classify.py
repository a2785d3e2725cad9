"""End-to-end classification pipelines and the command-line interface.

Two pipelines reproduce classification arguments for the real quadratic
family f_c(z) = z^2 + c as machine-checked transcripts:

* ``prop1_pipeline`` shows that the totally real postcritically finite
  parameters are exactly -2, -1 and 0.
* ``prop2_pipeline`` shows that the totally real parameters with a parabolic
  cycle are exactly 1/4, -3/4, -5/4 and -7/4.

Both share the same skeleton.  A Kronecker-style argument turns "algebraic
integer with all conjugates in a short real interval" into "root of a trace
polynomial T_n for an admissible order n", which produces a finite candidate
list; every candidate is then confirmed or eliminated by an exact certificate.
The resulting ``ClassificationReport`` serializes to a versioned JSON schema
and back.

The command line (``cli_main``) is one table, ``_COMMANDS``, and one walk
over it: ``_parse_argv`` reads the tokens once, left to right, looking each
word and flag up in the table, and builds the help and usage text from the
same rows.  A value flag takes the next token whatever it looks like, so
``--c -7/4`` needs no special case.  Each ``_run_*`` handler prints nothing:
it returns (exit code, payload, lines), and ``cli_main`` prints once,
nothing under ``--quiet``, the payload as JSON under ``--json`` and the
lines otherwise.
"""

from __future__ import annotations

import json
import re
import sys
import time
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Union

from .algebraic import (
    NotIsolatingError,
    NotSquarefreeError,
    RealAlgebraic,
    affine_transform,
    all_conjugates_in,
    from_rational,
    is_totally_real,
    make_real_algebraic,
)
from .cyclotomic import (
    ADMISSIBLE_SCAN_CAP, admissible_orders, is_cyclotomic_product, trace_polynomial,
)
from .dynamics import (
    DISCRIMINANT_CAP,
    ESCAPES_TO_INFINITY,
    RealBehavior,
    _PARABOLIC_CYCLES,
    certify_attracting_cycle,
    cycle_multiplier,
    discriminant_Pn,
    escapes,
    is_parabolic_up_to,
    is_pcf_rational,
    parity_certificate,
    real_behavior,
    verify_cycle,
)
from .polyring import (
    ConstantPolynomialError,
    IntegerPoly,
    ParabkitError,
    ParseError,
    Rat,
    RationalInterval,
    ZeroPolynomialError,
    _Record,
    check_digits,
    format_poly,
    isolate_real_roots,
    parse_poly,
    squarefree_part,
)

__all__ = [
    "PipelineMismatchError",
    "Certificate",
    "Environment",
    "ClassificationReport",
    "SCHEMA_ID",
    "PROP2_CAVEAT",
    "prop1_pipeline",
    "prop2_pipeline",
    "report_to_json",
    "report_from_json",
    "parse_parameter",
    "cli_main",
    "main",
]

SCHEMA_ID = "parab-kit/1"

PROP2_CAVEAT = (
    "Bounded checks cover n <= nmax only; the congruence P_n(-6) = P_n(0) (mod 2) "
    "with P_n(0) odd extends the -3/2 elimination to every period, and a strictly "
    "preperiodic critical orbit rules out parabolic cycles of any period at -2."
)


class PipelineMismatchError(ParabkitError):
    """A pipeline step disagreed with its recorded expectation."""


class Certificate(_Record):
    """Per-candidate verdict with its machine-checked reason.

    ``verdict`` is "confirmed" or "eliminated".  ``checked_up_to`` records
    the period bound of any bounded search involved (0 when none was).
    ``modulus_bound`` carries the exact rational upper bound on a cycle
    multiplier modulus for the attracting-cycle elimination.
    """

    candidate: RealAlgebraic
    verdict: str
    reason: str
    checked_up_to: int
    modulus_bound: Optional[Fraction] = None

    def __str__(self) -> str:
        tail = f" (checked up to n={self.checked_up_to})" if self.checked_up_to else ""
        return f"{self.candidate}: {self.verdict} [{self.reason}]{tail}"


class Environment(_Record, compare=("nmax",)):
    nmax: int
    runtime_ms: int


class ClassificationReport(_Record):
    """Outcome of one pipeline run: final parameters plus all certificates."""

    proposition: str
    parameters: tuple
    certificates: tuple
    environment: Environment


PROP1_EXPECTED = (Fraction(-2), Fraction(-1), Fraction(0))
PROP2_EXPECTED = tuple(sorted(_PARABOLIC_CYCLES))

# Candidates eliminated by an attracting cycle: period k, multiplier interval
# (a, b), trap J and enclosure C of c = (-13 + sqrt5)/8.  For every c in C,
# f_c^k maps J, which holds a point of the 4-cycle near -0.05373, into itself
# with (f^k)' in (a, b) on J (certify_attracting_cycle).
_ATTRACTING_CYCLES = {
    make_real_algebraic(
        IntegerPoly((41, 52, 16)),
        RationalInterval(Fraction(-11, 8), Fraction(-21, 16), True, True),
    ): (
        4,
        Fraction(-3, 5),
        Fraction(-1, 2),
        RationalInterval(Fraction(-2687, 50000), Fraction(-1343, 25000)),
        RationalInterval(Fraction(-1345491503, 10**9), Fraction(-1345491502, 10**9)),
    ),
}

# parity_certificate(n) reads P_n at b = -6, that is at c = -3/2.
_PARITY_PARAMETER = Fraction(-3, 2)


def _prop1_certificate(candidate: RealAlgebraic, window: RationalInterval) -> Certificate:
    """Exact orbit, then conjugate window, then confirmation of a rational."""
    bounds = f"[{window.lo}, {window.hi}]"
    if candidate.is_rational:
        finite, preperiod, period = is_pcf_rational(candidate.to_rational())
        if not finite:
            reason = "NotPostcriticallyFinite(is_pcf_rational: critical orbit is infinite)"
            return Certificate(candidate, "eliminated", reason, 0)
    if not all_conjugates_in(candidate.minpoly, window):
        return Certificate(candidate, "eliminated", f"ConjugateOutsideInterval({bounds})", 0)
    if candidate.is_rational:
        orbit = f"PostcriticallyFinite(preperiod {preperiod}, period {period})"
        return Certificate(candidate, "confirmed", f"{orbit}; conjugates in {bounds}", 0)
    # Only reachable with a diagnostic threshold: the exact orbit test covers
    # rational parameters, so an irrational candidate cannot be confirmed and
    # is excluded from the final set.
    reason = "PcfUndecidedIrrational(exact orbit test requires a rational parameter)"
    return Certificate(candidate, "eliminated", reason, 0)


def prop1_pipeline(
    threshold: Rat = Fraction(0), strict: bool = False, order_cap: int = ADMISSIBLE_SCAN_CAP
) -> ClassificationReport:
    """Classify totally real postcritically finite parameters.

    A totally real PCF parameter is an algebraic integer all of whose
    conjugates lie in [-2, 2t] with t = 0 (positive parameters have infinite
    critical orbits).  Writing c = a + 1/a then forces every conjugate of a
    onto the unit circle, so a is a root of unity and c is a root of a trace
    polynomial of admissible order.  Each candidate root is confirmed or
    eliminated by the exact orbit test and conjugate location.

    ``threshold`` and ``strict`` expose the interval endpoint as a
    diagnostic knob; the classification itself is the default call.  The
    default run must come out to exactly {-2, -1, 0}, otherwise
    PipelineMismatchError is raised.
    """
    start = time.monotonic()
    threshold = Fraction(threshold)
    orders = admissible_orders(threshold, strict, scan_cap=order_cap)
    window = RationalInterval(Fraction(-2), 2 * threshold)
    certificates = [
        _prop1_certificate(make_real_algebraic(tn, isolation), window)
        for tn in map(trace_polynomial, orders)
        for isolation in isolate_real_roots(tn)
    ]
    confirmed = sorted(
        cert.candidate.to_rational() for cert in certificates if cert.verdict == "confirmed"
    )
    if threshold == 0 and not strict:
        if tuple(orders) != (2, 3, 4):
            raise PipelineMismatchError(f"expected orders (2, 3, 4), got {tuple(orders)}")
        if tuple(confirmed) != PROP1_EXPECTED:
            raise PipelineMismatchError(f"expected parameters {{-2, -1, 0}}, got {confirmed}")
    runtime_ms = int((time.monotonic() - start) * 1000)
    return ClassificationReport(
        proposition="prop1",
        parameters=tuple(confirmed),
        certificates=tuple(certificates),
        environment=Environment(nmax=0, runtime_ms=runtime_ms),
    )


def _prop2_candidates() -> list:
    """Kronecker stage: candidates c = (b - 6)/4 for roots b of admissible T_n."""
    orders = admissible_orders(Fraction(1, 2), True)
    if tuple(orders) != (2, 3, 4, 5):
        raise PipelineMismatchError(f"expected orders (2, 3, 4, 5), got {tuple(orders)}")
    candidates = []
    for n in orders:
        tn = trace_polynomial(n)
        for isolation in isolate_real_roots(tn):
            b = make_real_algebraic(tn, isolation)
            candidates.append(affine_transform(b, Fraction(1, 4), Fraction(-3, 2)))
    candidates.sort()
    rationals = [cand.to_rational() for cand in candidates if cand.is_rational]
    if rationals != [Fraction(-2), Fraction(-7, 4), Fraction(-3, 2)] or len(candidates) != 5:
        raise PipelineMismatchError(f"unexpected candidate list {candidates}")
    return candidates


def _prop2_certificate(candidate: RealAlgebraic, nmax: int, settled) -> Certificate:
    """Exact cycle, parity, exact orbit, multiplier, then Galois closure.

    Parity comes before the exact orbit because it settles its one point for
    every n, so the orbit test and its P_n cross-check run only at the
    rationals no table names.  ``settled`` holds the certificates given so
    far; the Galois step reads it for a conjugate of ``candidate`` with an
    attracting cycle.
    """
    if candidate.is_rational:
        c = candidate.to_rational()
        if c in _PARABOLIC_CYCLES:
            g, n, lam, index, _ = _PARABOLIC_CYCLES[c]
            verdict = is_parabolic_up_to(c, nmax)
            if not (verdict.is_parabolic and verdict.n == index):
                raise PipelineMismatchError(f"{c} verdict {verdict}, expected Parabolic({index})")
            verify_cycle(c, g, n, lam)
            reason = f"{verdict}; cycle period {n} multiplier {lam}"
            return Certificate(candidate, "confirmed", reason, nmax)
        if c == _PARITY_PARAMETER:
            for n in range(1, nmax + 1):
                if not parity_certificate(n).is_valid:
                    raise PipelineMismatchError(f"parity certificate failed at n={n}")
            reason = f"ParityOdd(P_n(-6) odd, hence nonzero, for n <= {nmax})"
            return Certificate(candidate, "eliminated", reason, nmax)
        finite, preperiod, period = is_pcf_rational(c)
        if finite and preperiod >= 1:
            verdict = is_parabolic_up_to(c, nmax)
            if verdict.is_parabolic:
                raise PipelineMismatchError(f"P_{verdict.n}({4 * c}) vanished")
            reason = (
                f"PreperiodicPCF(preperiod {preperiod}, period {period}; "
                f"a strictly preperiodic critical orbit lands on a repelling cycle, "
                f"while a parabolic cycle must attract it; P_n({4 * c}) != 0 for n <= {nmax})"
            )
            return Certificate(candidate, "eliminated", reason, nmax)
    elif candidate in _ATTRACTING_CYCLES:
        cycle = certify_attracting_cycle(candidate, *_ATTRACTING_CYCLES[candidate])
        reason = (
            f"AttractingCycle(period {cycle.period}, f^{cycle.period} maps {cycle.trap} into "
            f"itself with (f^{cycle.period})' in ({cycle.lo}, {cycle.hi}) for c in "
            f"{cycle.enclosure}, so |multiplier| < {cycle.modulus_bound})"
        )
        return Certificate(candidate, "eliminated", reason, nmax, cycle.modulus_bound)
    for cert in settled:
        if cert.modulus_bound is not None and cert.candidate.minpoly == candidate.minpoly:
            reason = (
                f"GaloisConjugateEliminated(conjugate {cert.candidate} has an attracting "
                f"cycle of period {_ATTRACTING_CYCLES[cert.candidate][0]}; a totally real "
                f"parabolic parameter needs every conjugate parabolic)"
            )
            return Certificate(candidate, "eliminated", reason, nmax)
    raise PipelineMismatchError(f"unplaced candidate {candidate}")


def prop2_pipeline(nmax: int = 5) -> ClassificationReport:
    """Classify totally real parameters carrying a parabolic cycle.

    The landmarks 1/4, -3/4 and -5/4 cover [-5/4, 1/4].  On [-2, -5/4) a
    totally real parabolic parameter has 4c + 6 an algebraic integer with
    every conjugate in [-2, 1), hence a root of an admissible trace
    polynomial, which gives five candidates.  Every parameter then goes
    through the one chain of ``_prop2_certificate``, whose steps read two
    tables: ``dynamics._PARABOLIC_CYCLES`` (confirmed by the least vanishing
    P_n and an exact cycle) and ``_ATTRACTING_CYCLES`` (eliminated by an
    exact interval contraction).  The final set must be exactly
    {1/4, -3/4, -5/4, -7/4}.

    Every P_n it reads is at a rational point (the parabolic parameters and
    -2 through is_parabolic_up_to, b = 0 and b = -6 through
    parity_certificate), so it computes point discriminants and builds no
    bivariate P_n.

    At c = (-13 + sqrt5)/8, f_c^4 maps a rational trap J into itself with
    (f^4)' in (-3/5, -1/2) on J, for every c in a rational enclosure of the
    parameter, so f_c has an attracting cycle with an f^4-multiplier in that
    interval and |multiplier| < 3/5.  That cycle has period exactly 4: at
    real c < 1/4 the fixed points z are real, so their f^4-multiplier
    (2z)^4 is not negative, and the 2-cycle multiplier 4(c + 1) is real, so
    its square is not negative either.  The smaller candidate is its Galois
    conjugate.

    Raises PipelineMismatchError when a recorded expectation fails or no
    step settles a candidate, and MultiplierMismatchError if the contraction
    check fails.  An nmax outside 1..DISCRIMINANT_CAP is refused by the
    first is_parabolic_up_to call.
    """
    start = time.monotonic()
    # the Kronecker stage covers [-2, -5/4)
    landmarks = [from_rational(c) for c in _PARABOLIC_CYCLES if c >= Fraction(-5, 4)]
    candidates = landmarks + _prop2_candidates()
    settled = {}
    # The Galois step reads the certificates of a candidate's conjugates, so
    # the candidates with an attracting-cycle entry go through the chain first.
    for candidate in sorted(candidates, key=lambda cand: cand not in _ATTRACTING_CYCLES):
        settled[candidate] = _prop2_certificate(candidate, nmax, settled.values())
    certificates = tuple(settled[candidate] for candidate in candidates)
    confirmed = sorted(
        cert.candidate.to_rational() for cert in certificates if cert.verdict == "confirmed"
    )
    if tuple(confirmed) != PROP2_EXPECTED:
        raise PipelineMismatchError(
            f"expected parameters {{1/4, -3/4, -5/4, -7/4}}, got {confirmed}"
        )
    runtime_ms = int((time.monotonic() - start) * 1000)
    return ClassificationReport(
        proposition="prop2",
        parameters=tuple(confirmed),
        certificates=certificates,
        environment=Environment(nmax=nmax, runtime_ms=runtime_ms),
    )


def _report_payload(report: ClassificationReport) -> dict:
    certificates = []
    for cert in report.certificates:
        entry = {
            "candidate": str(cert.candidate),
            "verdict": cert.verdict,
            "reason": cert.reason,
            "checked_up_to": cert.checked_up_to,
        }
        if cert.modulus_bound is not None:
            entry["modulus_bound"] = str(cert.modulus_bound)
        certificates.append(entry)
    return {
        "schema": SCHEMA_ID,
        "proposition": report.proposition,
        "parameters": [str(p) for p in report.parameters],
        "certificates": certificates,
        "environment": {
            "nmax": report.environment.nmax,
            "runtime_ms": report.environment.runtime_ms,
        },
    }


def report_to_json(report: ClassificationReport) -> str:
    """Serialize a report with deterministic key order and exact rationals."""
    return json.dumps(_report_payload(report), indent=2)


def report_from_json(text: str) -> ClassificationReport:
    """Inverse of report_to_json; candidates are re-validated on the way in."""
    payload = json.loads(text)
    if payload.get("schema") != SCHEMA_ID:
        raise ValueError(f"unknown schema {payload.get('schema')!r}")
    certificates = []
    for entry in payload["certificates"]:
        bound = entry.get("modulus_bound")
        certificates.append(
            Certificate(
                candidate=parse_parameter(entry["candidate"]),
                verdict=entry["verdict"],
                reason=entry["reason"],
                checked_up_to=entry["checked_up_to"],
                modulus_bound=None if bound is None else Fraction(bound),
            )
        )
    env = payload["environment"]
    return ClassificationReport(
        proposition=payload["proposition"],
        parameters=tuple(Fraction(p) for p in payload["parameters"]),
        certificates=tuple(certificates),
        environment=Environment(nmax=env["nmax"], runtime_ms=env["runtime_ms"]),
    )


# what Fraction() may read, with ASCII digits only, as in the polynomial
# grammar: Fraction() also takes other scripts' digits and underscores
_NOT_RATIONAL = re.compile(r"[^0-9+\-/.eE\s]", re.ASCII)


def _parse_rational(text: str, position: int = 0, error: str = "not a rational parameter") -> Fraction:
    bad = _NOT_RATIONAL.search(text)
    if bad:
        raise ParseError(f"unexpected {bad.group()!r}", position + bad.start())
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"{error}: {text!r}", position) from exc
    check_digits(value, text.strip(), position)
    return value


def parse_parameter(text: str) -> RealAlgebraic:
    """Parse "p/q" or "minpoly@[lo,hi]" into a validated real algebraic number."""
    text = text.strip()
    if "@" not in text:
        return from_rational(_parse_rational(text))
    poly_text, _, interval_text = text.partition("@")
    interval_text = interval_text.strip()
    if not (interval_text.startswith("[") and interval_text.endswith("]")):
        raise ParseError(f"expected [lo,hi] after '@' in {text!r}", 0)
    lo_text, comma, hi_text = interval_text[1:-1].partition(",")
    if not comma:
        raise ParseError(f"expected two comma-separated endpoints in {text!r}", 0)
    start = text.index("[", len(poly_text)) + 1
    lo = _parse_rational(lo_text, start, "bad interval endpoint")
    hi = _parse_rational(hi_text, start + len(lo_text) + 1, "bad interval endpoint")
    return make_real_algebraic(parse_poly(poly_text), RationalInterval(lo, hi))


def _run_verify(args) -> tuple:
    if args.proposition == "prop1":
        report = prop1_pipeline()
    else:
        report = prop2_pipeline(nmax=args.nmax)
    lines = [f"{args.proposition}: parameters {{{', '.join(str(p) for p in report.parameters)}}}"]
    lines += (f"  {cert}" for cert in report.certificates)
    if args.proposition == "prop2":
        lines.append(f"note: {PROP2_CAVEAT}")
    lines.append(f"verified in {report.environment.runtime_ms} ms")
    return 0, _report_payload(report), lines


def _run_pn(args) -> tuple:
    pn = format_poly(discriminant_Pn(args.n), "b")
    payload = {"n": args.n, "pn": pn}
    lines = [pn]
    if not args.check_parity:
        return 0, payload, lines
    parity = parity_certificate(args.n)
    payload["parity"] = {
        "value_at_0_mod2": parity.value_at_0_mod2,
        "value_at_minus6_mod2": parity.value_at_minus6_mod2,
        "cross_check_disc_z2n": parity.cross_check_disc_z2n,
    }
    lines.append(
        f"parity: P_{args.n}(0) mod 2 = {parity.value_at_0_mod2}, "
        f"P_{args.n}(-6) mod 2 = {parity.value_at_minus6_mod2}, "
        f"disc(z^(2^{args.n}) - z) cross-check = {parity.cross_check_disc_z2n}"
    )
    return (0 if parity.is_valid else 1), payload, lines


def _run_kronecker(args) -> tuple:
    witness = is_cyclotomic_product(parse_poly(args.poly))
    if witness.is_product:
        line = f"product of cyclotomics of orders [{', '.join(str(n) for n in witness.orders)}]"
    else:
        line = "not a product of cyclotomics"
    return 0, {"is_product": witness.is_product, "orders": list(witness.orders)}, [line]


def _run_classify(args) -> tuple:
    parameter = parse_parameter(args.c)
    c = str(parameter)
    if parameter.is_rational:
        behavior = real_behavior(parameter.to_rational())
    elif escapes(parameter):
        behavior = RealBehavior(ESCAPES_TO_INFINITY)
    else:
        verdict = str(is_parabolic_up_to(parameter, DISCRIMINANT_CAP))
        return 0, {"c": c, "parabolic": verdict}, [f"{c}: {verdict}"]
    detail = f" {behavior.detail}" if behavior.detail else ""
    payload = {"c": c, "tag": behavior.tag, "detail": list(behavior.detail)}
    return 0, payload, [f"{c}: {behavior.tag}{detail}"]


def _run_multiplier(args) -> tuple:
    c = _parse_rational(args.c)
    g = parse_poly(args.cycle_poly)
    lam = cycle_multiplier(g, args.period)
    verify_cycle(c, g, args.period, lam)
    lam = str(lam)
    return 0, {"c": str(c), "period": args.period, "multiplier": lam}, [f"multiplier {lam}"]


def _run_totally_real(args) -> tuple:
    answer = is_totally_real(parse_poly(args.poly))
    return 0, {"totally_real": answer}, ["totally real" if answer else "not totally real"]


def _run_isolate(args) -> tuple:
    # zero is refused by isolate_real_roots; its squarefree model is cached
    p = parse_poly(args.poly)
    intervals = isolate_real_roots(p)
    q = squarefree_part(p)
    isolations = [make_real_algebraic(q, iv).isolation for iv in intervals]
    for iv in isolations:
        for end in (iv.lo, iv.hi):
            check_digits(end, f"an isolating interval endpoint of {args.poly}", 0)
    payload = [{"lo": str(iv.lo), "hi": str(iv.hi), "point": iv.is_point} for iv in isolations]
    lines = [str(iv.lo) if iv.is_point else f"({iv.lo}, {iv.hi})" for iv in isolations]
    return 0, payload, lines or ["no real roots"]


# The subcommands: (name, help, handler, arguments).  Each argument is a
# positional name or a --flag with its options: "choices", "type" (int is
# the only one), "required", "default", "help", and "action": "store_true"
# for a flag that takes no value.
_COMMANDS = (
    ("verify", "run a classification pipeline", _run_verify, (
        ("proposition", {"choices": ("prop1", "prop2")}),
        ("--nmax", {"type": int, "default": 5, "help": "bounded-search period cap"}),
    )),
    ("pn", "print the discriminant polynomial P_n", _run_pn, (
        ("--n", {"type": int, "required": True}),
        ("--check-parity", {"action": "store_true"}),
    )),
    ("kronecker", "test for a product of cyclotomic polynomials", _run_kronecker, (
        ("--poly", {"required": True}),
    )),
    ("classify", "classify the real behavior of one parameter", _run_classify, (
        ("--c", {"required": True, "help": 'rational "p/q" or "minpoly@[lo,hi]"'}),
    )),
    ("multiplier", "verify a cycle and print its multiplier", _run_multiplier, (
        ("--c", {"required": True}),
        ("--period", {"type": int, "required": True}),
        ("--cycle-poly", {"required": True}),
    )),
    ("totally-real", "test whether all roots are real", _run_totally_real, (
        ("--poly", {"required": True}),
    )),
    ("isolate", "print isolating intervals for the real roots", _run_isolate, (
        ("--poly", {"required": True}),
    )),
)

# The flags of every command line, before or after the command.
_COMMON_FLAGS = (
    (("-h", "--help"), {"action": "help", "help": "show this help and exit"}),
    (("--json",), {"action": "store_true", "help": "emit JSON output"}),
    (("--quiet",), {"action": "store_true", "help": "suppress output"}),
)


def _flags(arguments) -> dict:
    flags = {name: options for names, options in _COMMON_FLAGS for name in names}
    flags.update((name, options) for name, options in arguments if name.startswith("-"))
    return flags


# the flags a command line may name before its command, and for each
# command its row and the flags it may name once the command is read
_TOP_FLAGS = _flags(())
_BY_NAME = {row[0]: (row, _flags(row[3])) for row in _COMMANDS}


class _CommandLineExit(Exception):
    """The command line ends the run before any handler: with the help text
    (code 0, on stdout) or with a refusal (code 2, on stderr)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code = code


def _spelling(name: str, options: dict) -> str:
    # an argument as usage and help write it: {prop1,prop2}, --n N, --check-parity
    if options.get("action"):
        return name
    choices = options.get("choices")
    value = "{" + ",".join(choices) + "}" if choices else name.lstrip("-").replace("-", "_").upper()
    return f"{name} {value}" if name.startswith("-") else value


def _usage(row) -> str:
    common = " ".join(f"[{names[0]}]" for names, _ in _COMMON_FLAGS)
    if row is None:
        return f"usage: parabkit {common} {{{','.join(_BY_NAME)}}} ..."
    spelled = (
        _spelling(arg, options) if options.get("required") or not arg.startswith("-")
        else f"[{_spelling(arg, options)}]"
        for arg, options in row[3]
    )
    return " ".join((f"usage: parabkit {row[0]}", common, *spelled))


def _help(row) -> str:
    if row is None:
        about = "Exact classification toolkit for the quadratic family z^2 + c."
        sections = [("commands", [(name, text) for name, text, _, _ in _COMMANDS])]
    else:
        _, about, _, arguments = row
        sections = [("arguments", [(_spelling(arg, opts), opts.get("help", "")) for arg, opts in arguments])]
    sections.append(("options", [(", ".join(names), options["help"]) for names, options in _COMMON_FLAGS]))
    width = 4 + max(len(left) for _, entries in sections for left, _ in entries)
    lines = [_usage(row), "", about]
    for title, entries in sections:
        lines += ["", f"{title}:"]
        lines += (f"  {left:<{width}}{text}".rstrip() for left, text in entries)
    return "\n".join(lines)


def _refusal(row, message: str) -> _CommandLineExit:
    prog = "parabkit" if row is None else f"parabkit {row[0]}"
    return _CommandLineExit(2, f"{_usage(row)}\n{prog}: error: {message}")


def _resolve_prefix(name: str, flags: dict, row) -> str:
    # the one long flag that name begins
    matches = [flag for flag in flags if flag.startswith(name)] if name.startswith("--") else []
    if len(matches) > 1:
        raise _refusal(row, f"ambiguous option: {name} could match {', '.join(matches)}")
    if not matches:
        raise _refusal(row, f"unrecognized arguments: {name}")
    return matches[0]


# what an int argument may read: a sign and ASCII digits, as in the
# rationals above; int() also takes other scripts' digits and underscores
_NOT_INT = re.compile(r"[^0-9+\-\s]", re.ASCII)


def _value(arg: str, text: str, options: dict, row):
    # one argument's value, converted and checked as its options say
    if options.get("type") is int:
        bad = _NOT_INT.search(text)
        if bad:
            raise _refusal(row, f"argument {arg}: unexpected {bad.group()!r} (at position {bad.start()})")
        try:
            text = int(text)
        except ValueError:
            raise _refusal(row, f"argument {arg}: invalid int value: {text!r}") from None
    choices = options.get("choices")
    if choices is not None and text not in choices:
        raise _refusal(row, f"argument {arg}: invalid choice: {text!r} (choose from {', '.join(choices)})")
    return text


def _parse_argv(argv) -> tuple:
    """Read a command line against _COMMANDS: (args, as_json, quiet).

    ``args`` holds the command's handler as ``run`` and each of its
    arguments under its name, dashes made underscores.  The tokens are read
    once, left to right.  -h/--help, --json and --quiet may stand anywhere;
    the first other word names the command; a value flag takes the text
    after "=", or else the next token whatever it looks like, so "--c -7/4"
    is a value; a unique prefix of a long flag names that flag; a repeated
    flag keeps its last value.  Help and refusals raise _CommandLineExit.
    """
    row, flags = None, _TOP_FLAGS
    given, words = {}, []
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            if row is not None:
                words.append(token)
            elif token in _BY_NAME:
                row, flags = _BY_NAME[token]
            else:
                choices = ", ".join(_BY_NAME)
                raise _refusal(None, f"argument command: invalid choice: {token!r} (choose from {choices})")
            continue
        name, eq, text = token.partition("=")
        flag = name if name in flags else _resolve_prefix(name, flags, row)
        options = flags[flag]
        action = options.get("action")
        if action and eq:
            raise _refusal(row, f"argument {flag}: ignored explicit argument {text!r}")
        if action == "help":
            raise _CommandLineExit(0, _help(row))
        if action:
            given[flag] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                raise _refusal(row, f"argument {flag}: expected one argument")
        given[flag] = _value(flag, text, options, row)
    if row is None:
        raise _refusal(None, "the following arguments are required: command")
    args, missing = {"run": row[2]}, []
    for arg, options in row[3]:
        if not arg.startswith("-"):
            if words:
                args[arg] = _value(arg, words.pop(0), options, row)
            else:
                missing.append(arg)
        elif arg in given or not options.get("required"):
            default = options.get("default", False if options.get("action") else None)
            args[arg[2:].replace("-", "_")] = given.get(arg, default)
        else:
            missing.append(arg)
    if missing:
        raise _refusal(row, f"the following arguments are required: {', '.join(missing)}")
    if words:
        raise _refusal(row, f"unrecognized arguments: {' '.join(words)}")
    return SimpleNamespace(**args), "--json" in given, "--quiet" in given


def cli_main(argv=None) -> int:
    """Entry point; returns 0 (verified, or help), 1 (verification failed), or 2 (usage)."""
    try:
        args, as_json, quiet = _parse_argv(sys.argv[1:] if argv is None else argv)
    except _CommandLineExit as exc:
        print(exc, file=sys.stderr if exc.code else sys.stdout)
        return exc.code
    try:
        code, payload, lines = args.run(args)
    except (
        ParseError, NotIsolatingError, NotSquarefreeError, ZeroPolynomialError,
        ConstantPolynomialError, ValueError, ZeroDivisionError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParabkitError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    if not quiet:
        print(json.dumps(payload, indent=2) if as_json else "\n".join(lines))
    return code


def main() -> None:
    raise SystemExit(cli_main())


if __name__ == "__main__":
    main()
