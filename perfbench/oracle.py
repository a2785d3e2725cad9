"""Expected answers, computed without calling parabkit.

The parabolicity answers rest on D_n(c) = disc_z(f_c^n(z) - z), which equals
P_n(4c).  D_n is rebuilt here from sympy discriminants of integer
polynomials at deg D_n + 1 integer nodes and Newton interpolation, a route
that shares no code with parabkit's subresultant PRS over Z[c].  An algebraic
c with irreducible minimal polynomial m is parabolic at period index n
exactly when m divides D_n.

The candidate tables for the two propositions come from the paper: prop1
keeps the roots of the admissible trace polynomials, prop2 adds the
landmarks and maps those roots b to c = (b - 6)/4.
"""

from __future__ import annotations

import re
from fractions import Fraction

import sympy

Z = sympy.Symbol("z")
X = sympy.Symbol("x")
NMAX = 5

PROP1_PARAMETERS = ("-2", "-1", "0")
PROP2_PARAMETERS = ("-7/4", "-5/4", "-3/4", "1/4")
_SQRT5 = sympy.sqrt(5)
# candidate -> (verdict, checked_up_to)
PROP1_CERTIFICATES = {
    sympy.Integer(-2): ("confirmed", 0),
    sympy.Integer(-1): ("confirmed", 0),
    sympy.Integer(0): ("confirmed", 0),
}
PROP2_CERTIFICATES = {
    sympy.Rational(1, 4): ("confirmed", NMAX),
    sympy.Rational(-3, 4): ("confirmed", NMAX),
    sympy.Rational(-5, 4): ("confirmed", NMAX),
    sympy.Rational(-7, 4): ("confirmed", NMAX),
    sympy.Integer(-2): ("eliminated", NMAX),
    sympy.Rational(-3, 2): ("eliminated", NMAX),
    (-13 - _SQRT5) / 8: ("eliminated", NMAX),
    (-13 + _SQRT5) / 8: ("eliminated", NMAX),
}


def _newton_interpolate(nodes, values) -> list:
    """Integer coefficients (low to high) of the polynomial through the points."""
    dd = [Fraction(v) for v in values]
    n = len(nodes)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])
    coeffs = [Fraction(0)]
    for i in range(n - 1, -1, -1):
        # coeffs <- coeffs * (x - nodes[i]) + dd[i]
        shifted = [Fraction(0)] + coeffs
        for j, c in enumerate(coeffs):
            shifted[j] -= nodes[i] * c
        shifted[0] += dd[i]
        coeffs = shifted
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("interpolated discriminant is not integral")
    return [int(c) for c in coeffs]


def discriminant_polys(nmax: int = NMAX) -> dict:
    """n -> integer coefficients (low to high) of D_n(c)."""
    out = {}
    for n in range(1, nmax + 1):
        degree = n * 2 ** (n - 1)
        nodes = list(range(-(degree // 2), degree - degree // 2 + 1))
        values = []
        for c in nodes:
            f = sympy.Poly(Z, Z)
            for _ in range(n):
                f = f**2 + c
            values.append(int((f - sympy.Poly(Z, Z)).discriminant()))
        out[n] = _newton_interpolate(nodes, values)
        if len(out[n]) != degree + 1:
            raise ValueError(f"D_{n} has degree {len(out[n]) - 1}, expected {degree}")
    return out


def _divides(m: list, d: list) -> bool:
    """Whether m divides d in Q[x]; both low-to-high integer coefficients."""
    rem = [Fraction(c) for c in d]
    lead = m[-1]
    k = len(m) - 1
    while len(rem) > k:
        q = rem[-1] / lead
        if q:
            for i, mc in enumerate(m):
                rem[len(rem) - 1 - k + i] -= q * mc
        rem.pop()
    return not any(rem)


_TERM = re.compile(r"([+-]?)(\d*(?:/\d+)?)([a-z])?(?:\^(\d+))?")


def parse_poly(text: str) -> list:
    """Low-to-high rational coefficients of a polynomial in the CLI's syntax."""
    coeffs: dict = {}
    pos = 0
    text = text.replace(" ", "")
    while pos < len(text):
        match = _TERM.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse {text!r} at {pos}")
        sign, mag, var, exp = match.groups()
        value = Fraction(mag) if mag else Fraction(1)
        if not mag and not var:
            raise ValueError(f"empty term in {text!r}")
        power = (int(exp) if exp else 1) if var else 0
        coeffs[power] = coeffs.get(power, 0) + (-value if sign == "-" else value)
        pos = match.end()
    top = max(coeffs) if coeffs else 0
    return [coeffs.get(i, Fraction(0)) for i in range(top + 1)]


def _primitive(ints: list) -> list:
    g = sympy.gcd(list(ints))
    if ints[-1] < 0:
        g = -g
    return [int(c // g) for c in ints]


def parse_parameter(text: str):
    """(primitive minimal polynomial low to high, lo, hi) of "p/q" or "m@[lo,hi]".

    The interval is checked to hold exactly one root of the polynomial.
    """
    if "@" not in text:
        q = Fraction(text)
        return [-q.numerator, q.denominator], q, q
    poly_text, _, interval = text.partition("@")
    lo, hi = (Fraction(s) for s in interval.strip()[1:-1].split(","))
    coeffs = parse_poly(poly_text)
    scale = sympy.ilcm(*[c.denominator for c in coeffs])
    ints = _primitive([int(c * scale) for c in coeffs])
    if _count_roots(ints, lo, hi) != 1:
        raise ValueError(f"{text!r} does not isolate one root")
    return ints, lo, hi


def _count_roots(ints: list, lo: Fraction, hi: Fraction) -> int:
    poly = sympy.Poly(list(reversed(ints)), X)
    return poly.count_roots(sympy.Rational(lo.numerator, lo.denominator), sympy.Rational(hi.numerator, hi.denominator))


def same_number(a, b) -> bool:
    """Whether two parsed parameters denote the same real number."""
    (pa, loa, hia), (pb, lob, hib) = a, b
    lo, hi = max(loa, lob), min(hia, hib)
    return pa == pb and lo <= hi and _count_roots(pa, lo, hi) == 1


def _table_entry(value):
    ints = [int(c) for c in reversed(sympy.Poly(sympy.minimal_polynomial(value, X), X).all_coeffs())]
    approx = Fraction(str(sympy.N(value, 30)))
    # a rational window of width 10^-20 around the value holds only this root
    return _primitive(ints), approx - Fraction(1, 10**20), approx + Fraction(1, 10**20)


class Oracle:
    """Expected answers for one run; D_1..D_5 are built once when needed."""

    def __init__(self, need_discriminants: bool):
        self.d = discriminant_polys() if need_discriminants else {}
        self._cache: dict = {}

    # -- parabolicity --------------------------------------------------------

    def parabolic_index(self, minpoly: list):
        """Least n <= NMAX with minpoly | D_n, or None."""
        for n in range(1, NMAX + 1):
            if _divides(minpoly, self.d[n]):
                return n
        return None

    def classify_answers(self, text: str):
        """Acceptable JSON payloads for ``classify --c text --json``, as a checker."""
        if text in self._cache:
            return self._cache[text]
        parsed = parse_parameter(text)
        if len(parsed[0]) == 2:
            check = _rational_checker(parsed[1])
        else:
            check = _algebraic_checker(parsed, self.parabolic_index(parsed[0]))
        self._cache[text] = check
        return check

    def check_pn(self, n: int, text: str) -> bool:
        """``pn`` prints P_n(b); P_n(4c) must equal D_n(c) coefficient by coefficient."""
        coeffs = parse_poly(text)
        expected = self.d[n]
        return len(coeffs) == len(expected) and all(
            c * 4**i == e for i, (c, e) in enumerate(zip(coeffs, expected))
        )


def _rational_checker(c: Fraction):
    """Real dynamics of f_c for rational c in [-2, 1/4].

    Known exactly: the fixed point attracts on (-3/4, 1/4) (multiplier
    1 - sqrt(1 - 4c)), the 2-cycle on (-5/4, -3/4) (multiplier 4(c + 1));
    1/4, -3/4, -5/4 are parabolic; -2, -1 and 0 are postcritically finite; a
    non-integer rational has an infinite critical orbit.  Elsewhere in
    [-2, -5/4) an unresolved answer is honest, and -7/4 may also be named
    as parabolic with its 3-cycle.
    """
    allowed = set()
    landmarks = {Fraction(1, 4): (1, 1), Fraction(-3, 4): (1, 2), Fraction(-5, 4): (2, 2)}
    pcf = {Fraction(-2): (1, 1), Fraction(-1): (0, 2), Fraction(0): (0, 1)}
    if c < -2 or c > Fraction(1, 4):
        allowed.add(("EscapesToInfinity", ()))
    elif c in landmarks:
        allowed.add(("ParabolicLandmark", landmarks[c]))
    elif Fraction(-3, 4) < c < Fraction(1, 4):
        allowed.add(("AttractingFixedPoint", ()))
    elif Fraction(-5, 4) < c < Fraction(-3, 4):
        allowed.add(("AttractingTwoCycle", ()))
    else:
        allowed.add(("CoreBoundedUnresolved", ()))
        if c == Fraction(-7, 4):
            allowed.add(("ParabolicLandmark", (3, 1)))
    if c in pcf:
        allowed.add(("PostcriticallyFinite", pcf[c]))

    def check(payload) -> bool:
        return (
            Fraction(payload["c"]) == c
            and (payload["tag"], tuple(payload["detail"])) in allowed
        )

    return check


def _algebraic_checker(parsed, index):
    expected = f"Parabolic({index})" if index else f"NotUpToBound({NMAX})"

    def check(payload) -> bool:
        return payload.get("parabolic") == expected and same_number(parse_parameter(payload["c"]), parsed)

    return check


_TABLE = {v: _table_entry(v) for v in {**PROP1_CERTIFICATES, **PROP2_CERTIFICATES}}


def check_report(payload: dict, proposition: str) -> list:
    """Problems with one report after its JSON round trip; empty when correct."""
    problems = []
    if payload["proposition"] != proposition:
        problems.append(f"proposition {payload['proposition']!r}")
    expected_params = PROP1_PARAMETERS if proposition == "prop1" else PROP2_PARAMETERS
    if sorted(Fraction(p) for p in payload["parameters"]) != sorted(Fraction(p) for p in expected_params):
        problems.append(f"parameters {payload['parameters']}")
    table = PROP1_CERTIFICATES if proposition == "prop1" else PROP2_CERTIFICATES
    seen = set()
    for cert in payload["certificates"]:
        try:
            parsed = parse_parameter(cert["candidate"])
        except ValueError as exc:
            problems.append(str(exc))
            continue
        matches = [v for v in table if same_number(_TABLE[v], parsed)]
        if len(matches) != 1:
            problems.append(f"unexpected candidate {cert['candidate']}")
            continue
        key = matches[0]
        if key in seen:
            problems.append(f"duplicate candidate {cert['candidate']}")
        seen.add(key)
        if (cert["verdict"], cert["checked_up_to"]) != table[key]:
            problems.append(f"{cert['candidate']}: {cert['verdict']} up to {cert['checked_up_to']}")
        if key == (-13 + _SQRT5) / 8:
            # The elimination needs |multiplier| < 1.  Whether the recorded
            # bound also lies above the true modulus is reported by run.py
            # among the known defects: when this was written it did not.
            bound = cert.get("modulus_bound")
            if bound is None or not 0 < Fraction(bound) < 1:
                problems.append(f"multiplier bound {bound}")
    if len(seen) != len(table):
        problems.append(f"{len(table) - len(seen)} candidates missing")
    return problems
