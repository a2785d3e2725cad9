"""Shared property-check routines used by the module tests and the acceptance gate.

Each checker raises AssertionError on the first violation.  Family sizes are
parameters so the acceptance tests can run the identical code at full strength
without duplicating it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from parabkit.algebraic import RealAlgebraic, from_rational, make_real_algebraic
from parabkit.cyclotomic import cyclotomic_poly, euler_phi, trace_polynomial
from parabkit.cyclotomic import divisors, moebius
from parabkit.dynamics import cycle_multiplier, dynatomic_poly, is_pcf_rational, period_poly
from parabkit.polyring import (
    IntegerPoly,
    IteratedMapPoly,
    ParseError,
    RationalInterval,
    UnknownVariableError,
    ZeroPolynomialError,
    cauchy_bound,
    check_digits,
    discriminant,
    format_poly,
    parse_poly,
    resultant,
    resultant_in_z,
    squarefree_part,
    sturm_count,
)
from parabkit.polyring import _INT_RING, _MAX_EXPONENT, _Bisection, _Tokenizer
from parabkit.polyring import _int_primitive_keep_sign, _prem, _remainder_chain, _scaled_remainder

PAPER_CYCLES = (
    (Fraction(1, 4), IntegerPoly((-1, 2)), 1, Fraction(1)),
    (Fraction(-3, 4), IntegerPoly((1, 2)), 1, Fraction(-1)),
    (Fraction(-5, 4), IntegerPoly((-1, 4, 4)), 2, Fraction(-1)),
    (Fraction(-7, 4), IntegerPoly((-1, -18, 4, 8)), 3, Fraction(1)),
)


# ---------------------------------------------------------------------------
# the parser in Fractions, kept as an oracle for the integer parser


@dataclass(frozen=True, slots=True)
class RationalPoly:
    """Dense univariate polynomial over Fraction, low-to-high coefficients."""

    coeffs: tuple = ()

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "RationalPoly":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPoly":
        return cls((1,))

    @classmethod
    def constant(cls, value) -> "RationalPoly":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        return self.coeffs[-1]

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __add__(self, other: "RationalPoly") -> "RationalPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPoly(out)

    def __neg__(self) -> "RationalPoly":
        return RationalPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RationalPoly") -> "RationalPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalPoly(tuple(c * other for c in self.coeffs))
        if self.is_zero or other.is_zero:
            return RationalPoly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return RationalPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "RationalPoly":
        result = RationalPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __str__(self) -> str:
        return format_poly(self, "x")


def content_and_primitive(p: RationalPoly):
    """Split p = gamma * q with q a primitive IntegerPoly, lc(q) > 0."""
    if p.is_zero:
        raise ZeroPolynomialError("zero polynomial has no content")
    den_lcm = math.lcm(*(c.denominator for c in p.coeffs))
    ints = IntegerPoly(tuple(int(c * den_lcm) for c in p.coeffs))
    return Fraction(ints.content(), den_lcm), ints.primitive()


class _FractionParser:
    """The grammar of parse_poly evaluated in Fractions, with its refusals."""

    def __init__(self, text: str, var):
        self.toks = _Tokenizer(text)
        self.var = var

    def parse(self) -> RationalPoly:
        poly = self.parse_expr()
        ch, pos = self.toks.peek()
        if ch is not None:
            raise ParseError(f"unexpected {ch!r}", pos)
        return poly

    def check(self, start: int, pos: int, degree: int, coeffs, power: int = 1) -> None:
        text = self.toks.text[start : self.toks.pos].strip()
        if degree > _MAX_EXPONENT:
            raise ParseError(f"{text!r} has degree {degree}, above the cap {_MAX_EXPONENT}", pos)
        for c in coeffs:
            check_digits(c, text, pos, power)

    def parse_expr(self) -> RationalPoly:
        ch, start = self.toks.peek()
        negate = False
        if ch in ("+", "-"):
            self.toks.take()
            negate = ch == "-"
        acc = self.parse_term()
        if negate:
            acc = -acc
        while True:
            ch, pos = self.toks.peek()
            if ch == "+":
                self.toks.take()
                acc = acc + self.parse_term()
            elif ch == "-":
                self.toks.take()
                acc = acc - self.parse_term()
            else:
                return acc
            self.check(start, pos, acc.degree, acc.coeffs)

    def parse_term(self) -> RationalPoly:
        start = self.toks.pos
        acc = self.parse_factor()
        while True:
            ch, pos = self.toks.peek()
            if ch == "*":
                self.toks.take()
            elif ch is None or not ("0" <= ch <= "9" or ch.isalpha() or ch == "("):
                return acc
            acc = acc * self.parse_factor()
            self.check(start, pos, acc.degree, acc.coeffs)

    def parse_factor(self) -> RationalPoly:
        start = self.toks.pos
        base = self.parse_base()
        ch, pos = self.toks.peek()
        if ch != "^":
            return base
        self.toks.take()
        exponent, epos = self.toks.take_uint()
        if exponent > _MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the cap {_MAX_EXPONENT}", epos)
        ends = base.coeffs[-1:] + tuple(c for c in base.coeffs if c)[:1]
        self.check(start, pos, base.degree * exponent, ends, exponent)
        power = base**exponent
        self.check(start, pos, power.degree, power.coeffs)
        return power

    def parse_base(self) -> RationalPoly:
        ch, pos = self.toks.peek()
        if ch is None:
            raise ParseError("unexpected end of input", pos)
        if ch == "(":
            self.toks.take()
            inner = self.parse_expr()
            ch2, pos2 = self.toks.take()
            if ch2 != ")":
                raise ParseError("expected ')'", pos2)
            return inner
        if "0" <= ch <= "9":
            num, _ = self.toks.take_uint()
            ch2, _ = self.toks.peek()
            if ch2 == "/":
                self.toks.take()
                den, dpos = self.toks.take_uint()
                if den == 0:
                    raise ParseError("zero denominator", dpos)
                return RationalPoly.constant(Fraction(num, den))
            return RationalPoly.constant(num)
        if ch.isalpha():
            self.toks.take()
            if self.var is None:
                self.var = ch
            elif ch != self.var:
                raise UnknownVariableError(f"unknown variable {ch!r}, expected {self.var!r}", pos)
            return RationalPoly((0, 1))
        raise ParseError(f"unexpected {ch!r}", pos)


def parse_rational_poly(text: str, var=None) -> RationalPoly:
    """The polynomial the text denotes over Q, parsed in Fractions.

    The parse_poly that returned a RationalPoly, before the parser moved to
    integers; parse_poly must return the primitive part of this value and
    refuse exactly what this refuses, with the same message and position.
    """
    return _FractionParser(text, var).parse()


def primitive_of(p: RationalPoly) -> IntegerPoly:
    """The primitive integer model of a parsed polynomial; zero stays zero."""
    return IntegerPoly.zero() if p.is_zero else content_and_primitive(p)[1]


def evaluate(p, x) -> Fraction:
    """p(x) by Horner's rule in Fractions, for a RationalPoly or an IntegerPoly."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def evaluate_at_c(P: IteratedMapPoly, c) -> RationalPoly:
    """Specialise the parameter c of P to an exact rational."""
    return RationalPoly(tuple(evaluate(p, Fraction(c)) for p in P.coeffs_in_z))


def rational_resultant(p: RationalPoly, q: RationalPoly) -> Fraction:
    """res(p, q) over Q: res(gp*P, gq*Q) = gp^deg Q * gq^deg P * res(P, Q)."""
    cp, ip = content_and_primitive(p)
    cq, iq = content_and_primitive(q)
    return cp**iq.degree * cq**ip.degree * Fraction(resultant(ip, iq))


def rational_discriminant(p: RationalPoly) -> Fraction:
    """disc(p) over Q: disc(g*P) = g^(2 deg P - 2) * disc(P)."""
    gamma, prim = content_and_primitive(p)
    return gamma ** (2 * prim.degree - 2) * discriminant(prim)


def fraction_divide_exact(p: RationalPoly, q: RationalPoly) -> RationalPoly:
    """p / q by long division in Fractions; the remainder must be zero."""
    rem = list(p.coeffs)
    quo = [Fraction(0)] * max(len(rem) - q.degree, 0)
    while rem and len(rem) - 1 >= q.degree:
        k = len(rem) - 1 - q.degree
        t = rem[-1] / q.leading
        quo[k] = t
        for i, qc in enumerate(q.coeffs):
            rem[k + i] -= t * qc
        while rem and rem[-1] == 0:
            rem.pop()
    assert not rem, f"{p} is not divisible by {q}"
    return RationalPoly(quo)


def fraction_dynatomic_poly(n: int, c) -> RationalPoly:
    """Reference dynatomic polynomial: the monic Moebius product in Fractions.

    The dynatomic_poly that specialised f_c^d(z) - z to Fraction
    coefficients and divided over Q, kept as an oracle for the integer
    models.
    """
    numerator = RationalPoly.one()
    denominator = RationalPoly.one()
    for d in divisors(n):
        mu = moebius(n // d)
        if mu == 0:
            continue
        factor = evaluate_at_c(period_poly(d), c)
        if mu == 1:
            numerator = numerator * factor
        else:
            denominator = denominator * factor
    return fraction_divide_exact(numerator, denominator)


# ---------------------------------------------------------------------------
# the schoolbook kernel in ints, kept as an oracle for IntegerPoly.__mul__
# (one big-integer product above a size cutoff) and IntegerPoly.divide_exact


def schoolbook_product(a: tuple, b) -> list:
    """The coefficients of a*b, for coefficient tuples a and b or an int b."""
    if isinstance(b, int):
        return [c * b for c in a]
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def schoolbook_quotient(a: tuple, b: tuple):
    """The coefficients of a/b in Z[x] by long division, or None when b,
    nonzero, does not divide a there."""
    rem, b = list(a), list(b)
    for cs in (rem, b):
        while cs and cs[-1] == 0:
            cs.pop()
    quo = [0] * max(len(rem) - len(b) + 1, 0)
    while len(rem) >= len(b):
        t, r = divmod(rem[-1], b[-1])
        if r:
            return None
        shift = len(rem) - len(b)
        quo[shift] = t
        for i, y in enumerate(b):
            rem[shift + i] -= t * y
        while rem and rem[-1] == 0:
            rem.pop()
    return None if rem else quo


def random_integer_poly(rng: random.Random, max_degree: int = 5, bound: int = 20) -> IntegerPoly:
    degree = rng.randint(1, max_degree)
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    lead = 0
    while lead == 0:
        lead = rng.randint(-bound, bound)
    return IntegerPoly(tuple(coeffs + [lead]))


def random_rational_poly(rng: random.Random, max_degree: int = 6, bound: int = 30) -> RationalPoly:
    degree = rng.randint(0, max_degree)
    coeffs = [Fraction(rng.randint(-bound, bound), rng.randint(1, 12)) for _ in range(degree + 1)]
    return RationalPoly(tuple(coeffs))


def check_cyclotomic_product(upto: int = 100) -> None:
    # prod over d | n of Phi_d equals x^n - 1
    for n in range(1, upto + 1):
        prod = RationalPoly.one()
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * RationalPoly(cyclotomic_poly(d).coeffs)
        expected = [Fraction(0)] * (n + 1)
        expected[0] = Fraction(-1)
        expected[n] = Fraction(1)
        assert prod == RationalPoly(tuple(expected)), n


def check_trace_identity(upto: int = 50) -> None:
    # Phi_n(x) = x^(phi(n)/2) T_n(x + 1/x) for n >= 3; at n = 1, 2 the square
    # of Phi_n satisfies the same shape.  Checking degree+1 points proves the
    # polynomial identity exactly.
    for n in range(3, upto + 1):
        phi = cyclotomic_poly(n)
        tn = trace_polynomial(n)
        m = euler_phi(n) // 2
        assert phi.degree == 2 * m, n
        for k in range(1, 2 * m + 2):
            t = Fraction(k)
            assert evaluate(phi, t) == t**m * evaluate(tn, t + 1 / t), (n, k)
    for n in (1, 2):
        phi = cyclotomic_poly(n)
        tn = trace_polynomial(n)
        for k in range(1, 4):
            t = Fraction(k)
            assert evaluate(phi, t) ** 2 == t * evaluate(tn, t + 1 / t), (n, k)


def _numeric_roots(p: IntegerPoly) -> list:
    coeffs = [mpmath.mpf(a) for a in reversed(p.coeffs)]
    return mpmath.polyroots(coeffs, maxsteps=200, extraprec=160)


def check_resultant_numeric(seed: int = 2026, cases: int = 30, tol: float = 1e-6) -> float:
    """Exact resultants and discriminants against root-product numerics."""
    rng = random.Random(seed)
    worst = 0.0
    done = 0
    with mpmath.workdps(50):
        while done < cases:
            p = random_integer_poly(rng, 5, 12)
            q = random_integer_poly(rng, 5, 12)
            res = resultant(p, q)
            if res == 0:
                continue
            acc = mpmath.mpc(1)
            for root in _numeric_roots(p):
                acc *= mpmath.polyval([mpmath.mpf(a) for a in reversed(q.coeffs)], root)
            approx = mpmath.mpf(p.leading) ** q.degree * acc
            exact = mpmath.mpf(res.numerator) / res.denominator
            rel = abs(approx - exact) / max(1, abs(exact))
            assert rel < tol, (p.coeffs, q.coeffs, float(rel))
            worst = max(worst, float(rel))

            disc = discriminant(p)
            if disc != 0:
                roots = _numeric_roots(p)
                acc = mpmath.mpc(1)
                for i in range(len(roots)):
                    for j in range(i + 1, len(roots)):
                        acc *= (roots[i] - roots[j]) ** 2
                approx = mpmath.mpf(p.leading) ** (2 * p.degree - 2) * acc
                exact = mpmath.mpf(disc.numerator) / disc.denominator
                rel = abs(approx - exact) / max(1, abs(exact))
                assert rel < tol, (p.coeffs, float(rel))
                worst = max(worst, float(rel))
            done += 1
    return worst


def _int_gcd(p: IntegerPoly, q: IntegerPoly) -> IntegerPoly:
    """gcd in Z[x] by the primitive PRS: every remainder is reduced to its
    primitive part, so coefficients stay as small as the gcd allows.  The
    result is primitive with positive leading coefficient; p is nonzero."""
    a, b = list(p.coeffs), list(q.coeffs)
    while b:
        a, b = b, list(_int_primitive_keep_sign(_prem(a, b, _INT_RING)))
    return IntegerPoly(a).primitive()


def gcd_squarefree_part(p: IntegerPoly) -> IntegerPoly:
    """primitive(p) / gcd(p, p') with the gcd from a second primitive PRS,
    _int_gcd: squarefree_part before it read the gcd off the Sturm chain."""
    prim = p.primitive()
    return prim.divide_exact(_int_gcd(prim, prim.derivative()))


def check_sturm_numeric(seed: int = 7, cases: int = 40) -> None:
    """Sturm root counts against mpmath root classification."""
    rng = random.Random(seed)
    done = 0
    while done < cases:
        p = random_integer_poly(rng, 6, 15)
        sf = squarefree_part(p)
        if sf.degree < 1:
            continue
        bound = cauchy_bound(sf) + 1
        exact = sturm_count(sf, RationalInterval(-bound, bound))
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(sf.coeffs)]
            roots = mpmath.polyroots(coeffs, maxsteps=300, extraprec=200)
            numeric = sum(1 for r in roots if abs(mpmath.im(r)) < mpmath.mpf("1e-12") * (1 + abs(r)))
        assert exact == numeric, (p.coeffs, exact, numeric)
        done += 1


def check_sturm_constructed(seed: int = 11, cases: int = 20) -> None:
    """Root counts on products of known linear and complex quadratic factors."""
    rng = random.Random(seed)
    for _ in range(cases):
        real_roots = rng.sample(range(-12, 13), rng.randint(0, 4))
        p = RationalPoly.one()
        for r in real_roots:
            p = p * RationalPoly((Fraction(-r), Fraction(1)))
        for _ in range(rng.randint(0, 2)):
            a = rng.randint(-6, 6)
            b = rng.randint(a * a // 4 + 1, a * a // 4 + 20)  # forces a^2 - 4b < 0
            p = p * RationalPoly((Fraction(b), Fraction(a), Fraction(1)))
        if p.degree < 1:
            continue
        p = primitive_of(p)
        bound = cauchy_bound(p) + 1
        assert sturm_count(p, RationalInterval(-bound, bound)) == len(real_roots), (
            p.coeffs,
            real_roots,
        )


def check_parser_roundtrip(seed: int = 5, cases: int = 60) -> None:
    rng = random.Random(seed)
    variables = ("x", "b", "z")
    for i in range(cases):
        p = random_rational_poly(rng)
        var = variables[i % len(variables)]
        assert parse_rational_poly(format_poly(p, var), var=var) == p, p.coeffs
        if not p.is_zero:
            assert parse_poly(format_poly(p, var), var=var) == primitive_of(p), p.coeffs


def resultant_in_z_interpolated(P: IteratedMapPoly, Q: IteratedMapPoly, bound: int) -> IntegerPoly:
    """Independent resultant in z over Z[c], for a c-degree of at most bound.

    Evaluates c at bound + 1 integer nodes, takes exact integer resultants and
    interpolates by Newton divided differences.  Nodes where either leading
    z-coefficient vanishes are skipped: there the specialized resultant would
    no longer equal the specialization.
    """
    nodes = []
    values = []
    k = 0
    while len(nodes) < bound + 1:
        if evaluate(P.leading_in_z, k) and evaluate(Q.leading_in_z, k):
            pk = IntegerPoly(tuple(int(evaluate(p, k)) for p in P.coeffs_in_z))
            qk = IntegerPoly(tuple(int(evaluate(q, k)) for q in Q.coeffs_in_z))
            nodes.append(k)
            values.append(resultant(pk, qk))
        k += 1
    dd = [Fraction(v) for v in values]
    n = len(nodes)
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (nodes[i] - nodes[i - level])
    poly = RationalPoly.zero()
    for i in range(n - 1, -1, -1):
        poly = poly * RationalPoly((-nodes[i], 1)) + RationalPoly.constant(dd[i])
    assert all(c.denominator == 1 for c in poly.coeffs), "non-integer interpolant"
    return IntegerPoly(tuple(int(c) for c in poly.coeffs))


def check_subres_vs_interp(upto: int = 4) -> None:
    # res_z(f^n - z, d/dz) has c-degree at most the Sylvester-matrix bound
    # (2^(n+1) - 2) * 2^(n-1); the subresultant PRS must match the
    # interpolated resultant exactly.
    for n in range(1, upto + 1):
        P = period_poly(n)
        Q = P.derivative_z()
        bound = (2 ** (n + 1) - 2) * 2 ** (n - 1)
        assert resultant_in_z_interpolated(P, Q, bound) == resultant_in_z(P, Q), n


def check_dynatomic_product(nmax: int = 6, seed: int = 7, trials: int = 3) -> None:
    rng = random.Random(seed)
    for _ in range(trials):
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        for n in range(1, nmax + 1):
            prod = IntegerPoly.one()
            for d in range(1, n + 1):
                if n % d == 0:
                    prod = prod * dynatomic_poly(d, c)
            # a product of primitive polynomials is primitive (Gauss)
            assert prod == primitive_of(evaluate_at_c(period_poly(n), c)), (c, n)


def check_multiplier_numeric(tol: float = 1e-9) -> float:
    """Exact cycle multipliers against products of 2 z_i over numeric roots."""
    worst = 0.0
    with mpmath.workdps(40):
        for _, g, n, lam in PAPER_CYCLES:
            assert cycle_multiplier(g, n) == lam
            acc = mpmath.mpc(1)
            for root in _numeric_roots(g):
                acc *= 2 * root
            exact = mpmath.mpf(lam.numerator) / lam.denominator
            rel = abs(acc - exact) / max(1, abs(exact))
            assert rel < tol, (g.coeffs, float(rel))
            worst = max(worst, float(rel))
    return worst


def sylvester_resultant(p, q) -> Fraction:
    """Independent O(n^3) resultant oracle: determinant of the Sylvester matrix."""
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("resultant of the zero polynomial")
    m, n = p.degree, q.degree
    if m == 0:
        return p.coeffs[0] ** n
    if n == 0:
        return q.coeffs[0] ** m
    size = m + n
    rows = []
    pc = list(reversed(p.coeffs))
    qc = list(reversed(q.coeffs))
    for i in range(n):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in pc] + [Fraction(0)] * (size - i - m - 1))
    for i in range(m):
        rows.append([Fraction(0)] * i + [Fraction(c) for c in qc] + [Fraction(0)] * (size - i - n - 1))
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        inv = 1 / rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] * inv
            if factor:
                for cc in range(col, size):
                    rows[r][cc] -= factor * rows[col][cc]
    return det


def fraction_sign_changes(chain: tuple, x: Fraction) -> int:
    """Sign changes of a coefficient-tuple sequence at x, by Fraction Horner."""
    signs = []
    for cs in chain:
        acc = Fraction(0)
        for c in reversed(cs):
            acc = acc * x + c
        if acc:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def fraction_refined(m: IntegerPoly, iv: RationalInterval, max_width: Fraction) -> RationalInterval:
    """Reference refinement: sign bisection with Fraction midpoints.

    The loop RealAlgebraic.refined ran before the integer kernel replaced it,
    kept as an oracle: the kernel must return the same interval, endpoint for
    endpoint.  m is squarefree and the open iv holds exactly one of its roots.
    """
    if iv.is_point or iv.width <= max_width:
        return iv
    lo, hi = iv.lo, iv.hi
    left = m.sign_at(lo) or m.derivative().sign_at(lo)
    steps = 0
    while hi - lo > max_width:
        steps += 1
        assert steps <= 4096, "isolation refinement did not converge"
        mid = (lo + hi) / 2
        s = m.sign_at(mid)
        if s == 0:
            return RationalInterval(mid, mid)
        if s == left:
            lo = mid
        else:
            hi = mid
    return RationalInterval(lo, hi, True, True)


def fraction_isolate_real_roots(p) -> tuple:
    """Reference isolation: Sturm-count bisection in Fractions throughout.

    The one-root cells of the public sturm_count, kept as an oracle for the
    integer counts of isolate_real_roots: open cells, and a point where a
    split lands on a root.
    """
    q = squarefree_part(p)
    if q.degree <= 0:
        return ()
    bound = cauchy_bound(q)
    intervals = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        k = sturm_count(q, RationalInterval(lo, hi, True, True))
        if k == 0:
            continue
        if k == 1:
            intervals.append(RationalInterval(lo, hi, True, True))
            continue
        mid = (lo + hi) / 2
        if q.sign_at(mid) == 0:
            intervals.append(RationalInterval(mid, mid))
        stack.append((lo, mid))
        stack.append((mid, hi))
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return tuple(intervals)


def fraction_affine_transform(alpha, s, t):
    """Reference s*alpha + t: the Fraction substitution x -> (x - t)/s.

    The affine_transform that composed the minimal polynomial with a
    RationalPoly and re-validated the image through make_real_algebraic,
    kept as an oracle for the integer scaling and Taylor shift.
    """
    s, t = Fraction(s), Fraction(t)
    if alpha.is_rational:
        return from_rational(s * alpha.to_rational() + t)
    d = alpha.minpoly.degree
    inner = RationalPoly((-t / s, 1 / s))  # (x - t)/s
    moved = RationalPoly.zero()
    for c in reversed(alpha.minpoly.coeffs):  # minpoly(inner) by Horner
        moved = moved * inner + RationalPoly.constant(c)
    _, prim = content_and_primitive(moved * s**d)
    iv = alpha.isolation
    lo, hi = s * iv.lo + t, s * iv.hi + t
    lo_s, hi_s = iv.lo_strict, iv.hi_strict
    if s < 0:
        lo, hi = hi, lo
        lo_s, hi_s = hi_s, lo_s
    return make_real_algebraic(prim, RationalInterval(lo, hi, lo_s, hi_s))


def bisection_sign_at(p: IntegerPoly, alpha) -> int:
    """Reference sign of p(alpha): a gcd for zero, then bisection.

    The algebraic.sign_at that the Tarski query replaced, kept as an oracle.
    q, a positive multiple of p mod m for the minimal polynomial m, has the
    sign of p at alpha; p(alpha) = 0 exactly when g = gcd(m, q) has a root in
    the isolation, which holds one root of m.  Otherwise the isolation is
    halved by 1, 2, 4, ... halvings per round until it holds no root of q,
    and the sign of q at its midpoint is the sign of p(alpha).
    """
    if p.is_zero:
        return 0
    if alpha.is_rational:
        return p.sign_at(alpha.to_rational())
    m = alpha.minpoly
    q = _scaled_remainder(p, m)
    iv = alpha.isolation
    common = _int_gcd(m, q)
    if common.degree > 0 and sturm_count(common, iv):
        return 0
    narrowing = _Bisection(m, iv.lo, iv.hi)
    halvings = 1
    while halvings <= 4096:
        if iv.is_point:
            return q.sign_at(iv.lo)
        if sturm_count(q, iv) == 0:
            return q.sign_at(iv.midpoint)
        narrowing.halve(halvings)
        iv = narrowing.interval()
        halvings *= 2
    raise AssertionError("sign refinement did not converge")


def contains(iv: RationalInterval, x) -> bool:
    """Whether the interval holds the rational x, endpoint strictness included."""
    x = Fraction(x)
    if x < iv.lo or (x == iv.lo and iv.lo_strict):
        return False
    return not (x > iv.hi or (x == iv.hi and iv.hi_strict))


def intersect(a: RationalInterval, b: RationalInterval):
    """Intersection of two intervals, or None when empty."""
    if a.lo > b.lo or (a.lo == b.lo and a.lo_strict):
        lo, lo_strict = a.lo, a.lo_strict
    else:
        lo, lo_strict = b.lo, b.lo_strict
    if a.hi < b.hi or (a.hi == b.hi and a.hi_strict):
        hi, hi_strict = a.hi, a.hi_strict
    else:
        hi, hi_strict = b.hi, b.hi_strict
    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        return None
    return RationalInterval(lo, hi, lo_strict, hi_strict)


def halving_compare(a, b, cap: int = 4096):
    """Reference order of a RealAlgebraic a and b: -1, 0, 1, or None.

    The RealAlgebraic.__lt__ and __eq__ that the exact three-way comparison
    replaced, kept as an oracle.  A rational b (int or Fraction) lies on the
    side of a's root that the bisection sign gives it.  Against a
    RealAlgebraic, equal minimal polynomials with one root in the shared
    isolation are equal; otherwise both isolations are halved until they
    part or both are points, and None comes back after cap halvings.
    """
    if not isinstance(b, RealAlgebraic):
        q = Fraction(b)
        if a.is_rational:
            v = a.to_rational()
            return (v > q) - (v < q)
        iv = a.isolation
        if not contains(iv, q):
            return 1 if iv.lo >= q else -1
        s = a.minpoly.sign_at(q)
        return 0 if s == 0 else 1 if s == _Bisection(a.minpoly, iv.lo, iv.hi).left else -1
    ia, ib = a.isolation, b.isolation
    if a.minpoly == b.minpoly:
        shared = intersect(ia, ib)
        if ia == ib or (shared is not None and sturm_count(a.minpoly, shared) == 1):
            return 0
    sa, sb = _Bisection(a.minpoly, ia.lo, ia.hi), _Bisection(b.minpoly, ib.lo, ib.hi)
    for _ in range(cap):
        if intersect(ia, ib) is None or (ia.is_point and ib.is_point):
            break
        sa.halve()
        sb.halve()
        ia, ib = sa.interval(), sb.interval()
    else:
        return None
    return ((ia.lo, ia.hi) > (ib.lo, ib.hi)) - ((ia.lo, ia.hi) < (ib.lo, ib.hi))


# ---------------------------------------------------------------------------
# the counts and orbit tests that exact ones replaced, kept as oracles


def divide_out_sturm_count(q: IntegerPoly, interval: RationalInterval) -> int:
    """Roots of a squarefree primitive q in the interval, endpoint roots divided out.

    Each endpoint root is counted by its strictness flag and divided out of
    q, so that the open-interval Sturm theorem applies to what is left; the
    signs of that Sturm chain are taken in Fractions.
    """
    if q.degree <= 0:
        return 0
    if interval.is_point:
        return 1 if q.sign_at(interval.lo) == 0 else 0
    total = 0
    for endpoint, strict in ((interval.lo, interval.lo_strict), (interval.hi, interval.hi_strict)):
        if q.degree > 0 and q.sign_at(endpoint) == 0:
            total += not strict
            q = q.divide_exact(IntegerPoly((-endpoint.numerator, endpoint.denominator)))
    if q.degree <= 0:
        return total
    chain = _remainder_chain(list(q.coeffs), list(q.derivative().coeffs))
    return total + fraction_sign_changes(chain, interval.lo) - fraction_sign_changes(chain, interval.hi)


def iterated_escapes(c, budget: int = 1000, bit_guard: int = 65536):
    """Escape of the critical orbit of f_c by iteration: True, False or None.

    An integer c is decided by the exact orbit test.  Otherwise True comes
    with an iterate beyond max(2, |c|), after which the orbit grows, and
    None when the budget runs out or the orbit's bit size passes the guard.
    """
    c = Fraction(c)
    if c.denominator == 1:
        return not is_pcf_rational(c).is_finite
    bound = max(Fraction(2), abs(c))
    z = c
    for _ in range(budget):
        if abs(z) > bound:
            return True
        if z.numerator.bit_length() + z.denominator.bit_length() > bit_guard:
            return None
        z = z * z + c
    return None
