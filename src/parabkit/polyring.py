"""Exact univariate and bivariate polynomial arithmetic.

Coefficients are arbitrary-precision integers; nothing here ever rounds.
There is one univariate type, ``IntegerPoly``.  ``parse_poly`` evaluates
its grammar in integers, each value a numerator ``IntegerPoly`` over a
positive int denominator, and returns the primitive part; it bounds the
degree, the digits and the work of every value it builds.  ``IteratedMapPoly``
is a polynomial in ``z`` with ``IntegerPoly`` coefficients in a parameter
``c``, i.e. an element of Z[c][z].

Coefficients are stored low-to-high (``coeffs[i]`` multiplies ``x**i``) and
rendered high-to-low. Resultants use the subresultant polynomial remainder
sequence, which stays in the coefficient ring with exact divisions only.
Real-root counting uses Sturm chains built from sign-corrected primitive
pseudo-remainders (``_remainder_chain`` of p and p'); the same sequence of
m and m'p mod m is a Tarski query (``_tarski_query``), the sign of p at the
one root of a squarefree m in an interval, with no refinement and no gcd.
Root isolation splits a power-of-two root bound by Sturm counts until each
piece holds one root, and narrows nothing.  Where the real-algebraic layer
narrows, it runs one integer bisection kernel (``_Bisection``): numerators
over one denominator, one sign per halving, with no root count. The sign
of an integer polynomial at a rational a/b is always taken as the sign of
b^deg * q(a/b), in integers (``IntegerPoly.sign_at``).
Products of long dense factors take one big-integer multiplication
(Kronecker substitution), and arithmetic results skip the public
constructor's checks.  Private helpers (``_fp_*``) do the arithmetic of
polynomials over F_p, as lists of residues: products, remainders, Euclidean
resultants and interpolation at the nodes 0, 1, ..., for the modular
witness in ``dynamics``.
"""
from __future__ import annotations

import math
import operator
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

Rat = Union[int, Fraction]

__all__ = [
    "ParabkitError",
    "ZeroPolynomialError",
    "ConstantPolynomialError",
    "NotDivisibleError",
    "ParseError",
    "UnknownVariableError",
    "IntegerPoly",
    "IteratedMapPoly",
    "RationalInterval",
    "resultant",
    "discriminant",
    "resultant_in_z",
    "discriminant_in_z",
    "sturm_count",
    "isolate_real_roots",
    "squarefree_part",
    "cauchy_bound",
    "parse_poly",
    "format_poly",
]


class ParabkitError(Exception):
    """Base class for every error raised by this package."""


class ZeroPolynomialError(ParabkitError):
    pass


class ConstantPolynomialError(ParabkitError):
    pass


class NotDivisibleError(ParabkitError):
    pass


class ParseError(ParabkitError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(ParseError):
    pass


class _FrozenError(AttributeError):
    """Raised on assigning or deleting a field of a record."""


class _RecordType(type):
    """Makes each subclass of _Record a slotted, immutable record of the names
    annotated in its body, in order; a value assigned to one is its default.
    Equality and hash are those of the tuple of the fields named by the
    ``compare`` class keyword (all by default), and records of two classes
    are never equal.  A class keeps its own __init__, __eq__ and __hash__.
    Unlike dataclasses, no source is generated, so the import stays short."""

    def __new__(mcls, name, bases, ns, compare=None):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["_fields"] = ns["__slots__"] = fields
        if fields and "__eq__" not in ns:
            compare = compare or fields
            key, one = operator.attrgetter(*compare), len(compare) == 1
            ns["__eq__"] = lambda s, o: key(s) == key(o) if o.__class__ is s.__class__ else NotImplemented
            ns["__hash__"] = lambda s: hash((key(s),) if one else key(s))
        return super().__new__(mcls, name, bases, ns)


class _Record(metaclass=_RecordType):
    def __init__(self, *args, **kwargs):
        fields = self._fields
        values = {**self._defaults, **dict(zip(fields, args)), **kwargs}
        named = len(args) <= len(fields) and kwargs.keys() <= set(fields[len(args) :])
        if not named or len(values) < len(fields):
            raise TypeError(f"{type(self).__name__}() takes the fields {fields}")
        for f in fields:
            object.__setattr__(self, f, values[f])

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise _FrozenError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise _FrozenError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


# ---------------------------------------------------------------------------
# univariate polynomials


class IntegerPoly(_Record):
    """Dense univariate polynomial over int, low-to-high coefficients."""

    coeffs: tuple = ()

    def __init__(self, coeffs=()):
        cs = [operator.index(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def zero(cls) -> "IntegerPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntegerPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntegerPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, value: int) -> "IntegerPoly":
        return cls((value,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "IntegerPoly") -> "IntegerPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out)

    def __neg__(self) -> "IntegerPoly":
        return _poly([-c for c in self.coeffs])

    def __sub__(self, other: "IntegerPoly") -> "IntegerPoly":
        return self + (-other)

    def __mul__(self, other):
        """Product with an IntegerPoly or an int.  Factors with n_a, n_b nonzero
        terms and lengths l_a, l_b go through _kronecker when n_a * n_b >
        _KRONECKER_RATIO * (l_a + l_b), else through the schoolbook loop."""
        if isinstance(other, int):
            return _poly([c * other for c in self.coeffs])
        if not isinstance(other, IntegerPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if (len(a) - a.count(0)) * (len(b) - b.count(0)) > _KRONECKER_RATIO * (len(a) + len(b)):
            return _poly(_kronecker(a, b))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntegerPoly":
        """Square-and-multiply from the low bit, by _ring_pow; the parser's
        _power_work prices these products plus the product by one that
        _ring_pow skips."""
        if n < 0:
            raise ValueError("negative power")
        return _ring_pow(self, n, _IPOLY_RING)

    def sign_at(self, x: Rat) -> int:
        """Sign of self(x) at a rational x, in integer arithmetic only.

        >>> IntegerPoly((-2, 0, 1)).sign_at(Fraction(3, 2))
        1
        """
        return _sign_at(self.coeffs, x.numerator, x.denominator)

    def derivative(self) -> "IntegerPoly":
        return _poly([i * c for i, c in enumerate(self.coeffs) if i])

    def content(self) -> int:
        """gcd of all coefficients, signed to match the leading coefficient."""
        if self.is_zero:
            raise ZeroPolynomialError("zero polynomial has no content")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, abs(c))
        return g if self.leading > 0 else -g

    def primitive(self) -> "IntegerPoly":
        """Primitive part with positive leading coefficient."""
        g = self.content()
        return IntegerPoly(tuple(c // g for c in self.coeffs))

    def divide_exact(self, other) -> "IntegerPoly":
        """Exact division in Z[x]; raises NotDivisibleError otherwise.  Each
        quotient term, top down, must divide the remainder's top coefficient
        exactly, then updates one row of it in a plain loop (faster than a
        mapped slice at every divisor length measured)."""
        if isinstance(other, int):
            if other == 0:
                raise ZeroPolynomialError("division by zero")
            out = []
            for c in self.coeffs:
                q, r = divmod(c, other)
                if r:
                    raise NotDivisibleError(f"coefficient {c} not divisible by {other}")
                out.append(q)
            return _poly(out)
        if other.is_zero:
            raise ZeroPolynomialError("division by the zero polynomial")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading
        quo = [0] * max(len(rem) - d, 0)
        for k in range(len(quo) - 1, -1, -1):
            t, r = divmod(rem[k + d], lc)
            if r:
                raise NotDivisibleError(f"{self} is not divisible by {other}")
            if t:
                quo[k] = t
                for i, c in enumerate(other.coeffs, k):
                    rem[i] -= t * c
        if any(rem[:d]):
            raise NotDivisibleError(f"{self} is not divisible by {other}")
        return _poly(quo)

    def __str__(self) -> str:
        return format_poly(self, "x")


def _poly(cs: list) -> IntegerPoly:
    # the IntegerPoly of ints from arithmetic on valid ones: strips trailing
    # zeros in place and skips the public constructor's operator.index check
    while cs and not cs[-1]:
        cs.pop()
    p = object.__new__(IntegerPoly)
    object.__setattr__(p, "coeffs", tuple(cs))
    return p


# __mul__ packs when there are more pairs of nonzero terms than this per slot
_KRONECKER_RATIO = 8


def _kronecker(a: tuple, b: tuple) -> list:
    """The coefficients of a*b, for nonzero a and b, by one big-int product.

    Kronecker substitution at X = 2^(8 nb), h = X/2: a coefficient c_k of
    a*b sums at most m = min(len a, len b) products, so |c_k| <= m max|a|
    max|b| < 2^(bits(m) + bits(max|a|) + bits(max|b|)) <= h/2 by the choice
    of nb.  A factor packs as nb-byte slots c + h, each in [0, X), less
    h * sum X^i: its value at X.  The product plus h * sum X^k has the
    base-X digits c_k + h in [0, X), so each slot less h is c_k exactly."""
    bits = max(map(abs, a)).bit_length() + max(map(abs, b)).bit_length()
    nb = (bits + min(len(a), len(b)).bit_length() + 2 + 7) // 8
    h = 1 << (8 * nb - 1)
    unit = h.to_bytes(nb, "little")

    def pack(cs):
        slots = b"".join([(c + h).to_bytes(nb, "little") for c in cs])
        return int.from_bytes(slots, "little") - int.from_bytes(unit * len(cs), "little")

    m = len(a) + len(b) - 1
    raw = (pack(a) * pack(b) + int.from_bytes(unit * m, "little")).to_bytes(nb * m, "little")
    return [int.from_bytes(raw[i : i + nb], "little") - h for i in range(0, nb * m, nb)]


# ---------------------------------------------------------------------------
# intervals


class RationalInterval(_Record):
    """Interval with rational endpoints and per-endpoint strictness flags."""

    lo: Fraction
    hi: Fraction
    lo_strict: bool = False
    hi_strict: bool = False

    def __init__(self, lo, hi, lo_strict=False, hi_strict=False):
        if lo.__class__ is not Fraction:
            lo = Fraction(lo)
        if hi.__class__ is not Fraction:
            hi = Fraction(hi)
        if lo > hi:
            raise ValueError(f"interval bounds out of order: {lo} > {hi}")
        if lo == hi and (lo_strict or hi_strict):
            raise ValueError("a degenerate interval cannot have strict endpoints")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "lo_strict", lo_strict)
        object.__setattr__(self, "hi_strict", hi_strict)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __str__(self) -> str:
        left = "(" if self.lo_strict else "["
        right = ")" if self.hi_strict else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


# ---------------------------------------------------------------------------
# subresultant PRS resultant, generic over the coefficient ring


class _Ring:
    __slots__ = ("zero", "one", "exact_div")

    def __init__(self, zero, one, exact_div: Callable):
        self.zero = zero
        self.one = one
        self.exact_div = exact_div


def _int_exact_div(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise NotDivisibleError(f"inexact division {a} / {b} inside PRS")
    return q


_INT_RING = _Ring(0, 1, _int_exact_div)
_IPOLY_RING = _Ring(IntegerPoly.zero(), IntegerPoly.one(), lambda a, b: a.divide_exact(b))


def _ring_pow(x, n: int, ring: _Ring):
    # from the low bit, with no product by one and no square after the last bit
    result = ring.one
    while n:
        if n & 1:
            result = x if result is ring.one else result * x
        n >>= 1
        if n:
            x = x * x
    return result


def _prem(f: list, g: list, ring: _Ring) -> list:
    # Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f == q*g + result; the
    # plain remainder when g is monic, which skips every scaling by lc(g).
    dg = len(g) - 1
    d = g[-1]
    monic = d == ring.one
    r = list(f)
    e = len(f) - len(g) + 1
    while r and len(r) - 1 >= dg:
        s = r[-1]
        shift = len(r) - 1 - dg
        new = list(r) if monic else [d * ri for ri in r]
        for i, gi in enumerate(g):
            new[shift + i] = new[shift + i] - s * gi
        new.pop()
        while new and new[-1] == ring.zero:
            new.pop()
        r = new
        e -= 1
    for _ in range(0 if monic else e):
        r = [d * ri for ri in r]
    return r


def _resultant_lists(A: list, B: list, ring: _Ring):
    """Resultant of two nonzero coefficient lists via the subresultant PRS."""
    sign = 1
    if len(A) < len(B):
        if ((len(A) - 1) * (len(B) - 1)) % 2 == 1:
            sign = -sign
        A, B = B, A
    if len(B) == 1:
        res = _ring_pow(B[0], len(A) - 1, ring)
        return res if sign == 1 else -res
    g = ring.one
    h = ring.one
    while True:
        dA, dB = len(A) - 1, len(B) - 1
        delta = dA - dB
        if (dA % 2 == 1) and (dB % 2 == 1):
            sign = -sign
        R = _prem(A, B, ring)
        if not R:
            return ring.zero  # common factor of positive degree
        denom = g * _ring_pow(h, delta, ring)
        A = B
        B = [ring.exact_div(ri, denom) for ri in R]
        g = A[-1]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = g
        else:
            h = ring.exact_div(_ring_pow(g, delta, ring), _ring_pow(h, delta - 1, ring))
        if len(B) == 1:
            break
    dA = len(A) - 1
    if dA == 1:
        res = B[0]
    else:
        res = ring.exact_div(_ring_pow(B[0], dA, ring), _ring_pow(h, dA - 1, ring))
    return res if sign == 1 else -res


def _disc_sign(d: int) -> int:
    return -1 if (d * (d - 1) // 2) % 2 else 1


def resultant(p: IntegerPoly, q: IntegerPoly) -> int:
    """res(p, q) = lc(p)^deg(q) * prod q(alpha_i) over the roots alpha_i of p.

    >>> resultant(IntegerPoly((-2, 1)), IntegerPoly((-3, 1)))
    -1
    """
    if p.is_zero or q.is_zero:
        raise ZeroPolynomialError("resultant of the zero polynomial")
    return _resultant_lists(list(p.coeffs), list(q.coeffs), _INT_RING)


def discriminant(p: IntegerPoly) -> int:
    """disc(p) = (-1)^(d(d-1)/2) * res(p, p') / lc(p) with d = deg p."""
    if p.is_zero:
        raise ZeroPolynomialError("discriminant of the zero polynomial")
    if p.degree == 0:
        raise ConstantPolynomialError("discriminant needs degree >= 1")
    r = resultant(p, p.derivative())
    return _int_exact_div(_disc_sign(p.degree) * r, p.leading)


# ---------------------------------------------------------------------------
# bivariate layer: polynomials in z over Z[c]


class IteratedMapPoly(_Record):
    """Polynomial in z whose z-coefficients are IntegerPoly values in c."""

    coeffs_in_z: tuple = ()

    def __init__(self, coeffs_in_z=()):
        cs = [IntegerPoly.constant(c) if isinstance(c, int) else c for c in coeffs_in_z]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs_in_z", tuple(cs))

    @classmethod
    def zero(cls) -> "IteratedMapPoly":
        return cls(())

    @classmethod
    def z(cls) -> "IteratedMapPoly":
        return cls((IntegerPoly.zero(), IntegerPoly.one()))

    @classmethod
    def c(cls) -> "IteratedMapPoly":
        return cls((IntegerPoly.x(),))

    @classmethod
    def constant(cls, value) -> "IteratedMapPoly":
        return cls((value,))

    @property
    def degree_in_z(self) -> int:
        return len(self.coeffs_in_z) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs_in_z

    @property
    def leading_in_z(self) -> IntegerPoly:
        if not self.coeffs_in_z:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs_in_z[-1]

    def __add__(self, other: "IteratedMapPoly") -> "IteratedMapPoly":
        a, b = self.coeffs_in_z, other.coeffs_in_z
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return IteratedMapPoly(out)

    def __neg__(self) -> "IteratedMapPoly":
        return IteratedMapPoly(tuple(-c for c in self.coeffs_in_z))

    def __sub__(self, other: "IteratedMapPoly") -> "IteratedMapPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, IntegerPoly)):
            if isinstance(other, int):
                other = IntegerPoly.constant(other)
            return IteratedMapPoly(tuple(c * other for c in self.coeffs_in_z))
        if not isinstance(other, IteratedMapPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return IteratedMapPoly.zero()
        out = [IntegerPoly.zero()] * (len(self.coeffs_in_z) + len(other.coeffs_in_z) - 1)
        for i, a in enumerate(self.coeffs_in_z):
            if not a.is_zero:
                for j, b in enumerate(other.coeffs_in_z):
                    out[i + j] = out[i + j] + a * b
        return IteratedMapPoly(out)

    __rmul__ = __mul__

    def derivative_z(self) -> "IteratedMapPoly":
        return IteratedMapPoly(tuple(c * i for i, c in enumerate(self.coeffs_in_z) if i))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i in range(self.degree_in_z, -1, -1):
            ci = self.coeffs_in_z[i]
            if ci.is_zero:
                continue
            body = format_poly(ci, "c")
            if i == 0:
                parts.append(f"({body})")
            elif i == 1:
                parts.append(f"({body})*z")
            else:
                parts.append(f"({body})*z^{i}")
        return " + ".join(parts)


def resultant_in_z(P: IteratedMapPoly, Q: IteratedMapPoly) -> IntegerPoly:
    """Resultant with respect to z; the result is an IntegerPoly in c."""
    if P.is_zero or Q.is_zero:
        raise ZeroPolynomialError("resultant of the zero polynomial")
    return _resultant_lists(list(P.coeffs_in_z), list(Q.coeffs_in_z), _IPOLY_RING)


def discriminant_in_z(P: IteratedMapPoly) -> IntegerPoly:
    """Discriminant with respect to z, exact in Z[c], by the subresultant PRS."""
    d = P.degree_in_z
    if P.is_zero:
        raise ZeroPolynomialError("discriminant of the zero polynomial")
    if d < 1:
        raise ConstantPolynomialError("discriminant needs degree >= 1 in z")
    res = resultant_in_z(P, P.derivative_z())
    signed = res if _disc_sign(d) == 1 else -res
    return signed.divide_exact(P.leading_in_z)


# ---------------------------------------------------------------------------
# polynomials over F_p: lists (or tuples) of residues mod a prime p, low to
# high, with no trailing zero (the zero polynomial is empty)


def _fp_trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_mul(a: list, b: list, p: int) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _fp_trim([v % p for v in out])


def _fp_rem(a: list, b: list, p: int) -> list:
    # a mod b for b nonzero, cancelling the top coefficient of a against b
    # until the degree is below deg b; no quotient is kept
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    r = list(a)
    for top in range(len(r) - 1, db - 1, -1):
        q = r[top] * inv % p
        if q:
            r[top - db : top] = [(u - q * v) % p for u, v in zip(r[top - db : top], low)]
    return _fp_trim(r[:db])


def _fp_resultant(a: Sequence, b: Sequence, p: int) -> int:
    """res(a, b) over F_p for nonzero a and b, by the Euclidean algorithm.

    With r = a mod b, res(a, b) = (-1)^(deg a deg b) lc(b)^(deg a - deg r)
    res(b, r); it is 0 when r = 0 and deg b > 0 (a common factor), and
    res(a, k) = k^(deg a) for a constant k."""
    res = 1
    while len(b) > 1:
        r = _fp_rem(a, b, p)
        if not r:
            return 0
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = -res
        res = res * pow(b[-1], len(a) - len(r), p) % p
        a, b = b, r
    return res * pow(b[0], len(a) - 1, p) % p


def _fp_interpolate(values: list, p: int) -> list:
    """The polynomial of degree below len(values) over F_p that takes
    values[k] at x = k, for p >= len(values): Newton's divided differences
    on the nodes 0, 1, ..., then the Newton form expanded by Horner's rule."""
    d = list(values)
    for j in range(1, len(d)):
        inv = pow(j, -1, p)
        for i in range(len(d) - 1, j - 1, -1):
            d[i] = (d[i] - d[i - 1]) * inv % p
    out = []
    for i in range(len(d) - 1, -1, -1):
        out = [(lo - i * hi) % p for lo, hi in zip([0] + out, out + [0])]
        out[0] = (out[0] + d[i]) % p
    return _fp_trim(out)


# ---------------------------------------------------------------------------
# Sturm chains, root counting, root isolation


def _int_primitive_keep_sign(cs: list) -> tuple:
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c))
    if g in (0, 1):
        return tuple(cs)
    return tuple(c // g for c in cs)


def _remainder_chain(f0: list, f1: list) -> tuple:
    """Signed remainder sequence of f0 and f1 (f0, f1, -rem(f0, f1), ...),
    each entry a positive multiple of the true one, primitive; it ends at
    the last nonzero remainder, a multiple of gcd(f0, f1)."""
    while f1 and f1[-1] == 0:
        f1.pop()
    chain = [_int_primitive_keep_sign(f0)]
    if not f1:
        return tuple(chain)
    chain.append(_int_primitive_keep_sign(f1))
    while len(chain[-1]) > 1:
        f, g = chain[-2], chain[-1]
        delta = len(f) - len(g)
        r = _prem(list(f), list(g), _INT_RING)
        if not r:
            break
        # _prem multiplies by lc(g)^(delta+1); flip when that factor is negative
        # so the entry stays a positive multiple of the true remainder, negated.
        if g[-1] < 0 and (delta + 1) % 2 == 1:
            r = [ri for ri in r]
        else:
            r = [-ri for ri in r]
        chain.append(_int_primitive_keep_sign(r))
    return tuple(chain)


@lru_cache(maxsize=512)
def _sturm_chain(coeffs: tuple) -> tuple:
    """Sturm chain of a squarefree integer polynomial, the remainder chain of
    it and its derivative; otherwise it ends at gcd(p, p') (see squarefree_part)."""
    return _remainder_chain(list(coeffs), [i * c for i, c in enumerate(coeffs)][1:])


def _sign_at(cs: tuple, a: int, b: int) -> int:
    # Sign of b^deg * q(a/b) for integer coefficients cs (low-to-high) and
    # b > 0, which is the sign of q(a/b): Horner's rule on the homogenised
    # polynomial sum c_i a^i b^(deg-i), all in integers.
    if not cs:
        return 0
    acc = cs[-1]
    power = 1
    for i in range(len(cs) - 2, -1, -1):
        power *= b
        acc = acc * a + cs[i] * power
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: tuple, x: Fraction, last: int = 0) -> int:
    # sign changes of the chain at x, zero signs dropped, after a sign last
    # already taken at x (0: none)
    a, b = x.numerator, x.denominator
    flips = 0
    for cs in chain:
        s = _sign_at(cs, a, b)
        if s:
            if last and s != last:
                flips += 1
            last = s
    return flips


@lru_cache(maxsize=512)
def squarefree_part(p: IntegerPoly) -> IntegerPoly:
    """primitive(p) / gcd(p, p'): the roots of p, each once, lc > 0.

    An exact quotient in Z[x] by Gauss's lemma, cached per polynomial in a
    bounded LRU cache, so the counts and isolations on one p build it once.
    The gcd is read off the last entry g of _sturm_chain(prim), the PRS that
    sturm_count reuses: each entry past the second is a nonzero multiple of
    lc^k f - q h for the two before it, so consecutive entries have the gcd
    of prim and prim' in Q[x]; g is a constant (prim is squarefree) or
    divides the entry before it, so g is that gcd: in Z[x], its primitive part.

    >>> squarefree_part(IntegerPoly((0, 0, 0, -2))).coeffs
    (0, 1)
    """
    if p.is_zero:
        raise ZeroPolynomialError("squarefree part of the zero polynomial")
    prim = p.primitive()
    last = _sturm_chain(prim.coeffs)[-1]
    return prim if len(last) == 1 else prim.divide_exact(IntegerPoly(last).primitive())


def cauchy_bound(p: IntegerPoly) -> Fraction:
    """B with every real root of p strictly inside (-B, B): the least power
    of two at or above Cauchy's bound 1 + max |a_i| / |lc|."""
    if p.is_zero:
        raise ZeroPolynomialError("root bound of the zero polynomial")
    top = max((abs(c) for c in p.coeffs[:-1]), default=0)
    return Fraction(1 << (-(-top // abs(p.leading))).bit_length())


def _sturm_count_int(q: IntegerPoly, interval: RationalInterval) -> tuple:
    # (count, sign of q at lo, sign of q at hi) for q squarefree and
    # primitive.  With zero signs dropped, V(lo) - V(hi) on its Sturm chain
    # counts the roots in (lo, hi]: just past a root q and q' agree in sign,
    # so V at a root is V just past it and one less than V just before it.
    # A root at a closed lo is added, one at a strict hi taken off; the sign
    # of q at each endpoint is taken once, as the first sign of V there, and
    # returned for the caller's own endpoint tests.
    chain = _sturm_chain(q.coeffs)
    lo, hi = interval.lo, interval.hi
    at_lo, at_hi = q.sign_at(lo), q.sign_at(hi)
    count = _sign_changes(chain[1:], lo, at_lo) - _sign_changes(chain[1:], hi, at_hi)
    count += (at_lo == 0 and not interval.lo_strict) - (at_hi == 0 and interval.hi_strict)
    return count, at_lo, at_hi


def _scaled_remainder(p: IntegerPoly, m: IntegerPoly) -> IntegerPoly:
    # d^(deg p + 1) * (p mod m), where d = lc(m) > 0: the same sign as p at
    # every root of m, with no division.  Horner's rule in Z[x]/(m), each step
    # scaled by d so that d*x^k can be replaced by minus the lower part of m.
    d, low = m.leading, m.coeffs[:-1]
    acc = [0] * len(low)
    scale = 1
    for c in reversed(p.coeffs):
        top = acc[-1]
        acc = [d * a - top * mj for a, mj in zip([0] + acc[:-1], low)]
        scale *= d
        acc[0] += scale * c
    return IntegerPoly(acc)


def _tarski_query(m: IntegerPoly, p: IntegerPoly, interval: RationalInterval) -> int:
    # The sum of sign p(x) over the roots x of m in the open interval, for m
    # squarefree with lc(m) > 0.  With no root of m at an endpoint, V(lo) -
    # V(hi) on the remainder chain of m and r is the Cauchy index of r/m
    # (Sylvester's theorem; Basu, Pollack and Roy, Algorithms in Real
    # Algebraic Geometry, Thm 2.58).  r, a positive multiple of m'p mod m,
    # has the index of m'p/m, which near a root x of m is p(x)/(t - x) plus
    # a finite term: a jump of sign p(x).  An endpoint root of m is divided
    # out first, not counted as in _sturm_count_int: just past such a root x,
    # m and r agree in sign only where p(x) > 0, so V(lo) - V(hi) would take
    # in or leave out an endpoint root by the sign of p there.  m / (bx - a)
    # for a root a/b is exact in Z[x]: the primitive linear factor of a root
    # of m divides m by Gauss's lemma.
    for endpoint in (interval.lo, interval.hi):
        if m.sign_at(endpoint) == 0:
            m = m.divide_exact(IntegerPoly((-endpoint.numerator, endpoint.denominator)))
    r = _scaled_remainder(m.derivative() * _scaled_remainder(p, m), m)
    chain = _remainder_chain(list(m.coeffs), list(r.coeffs))
    return _sign_changes(chain, interval.lo) - _sign_changes(chain, interval.hi)


def sturm_count(p: IntegerPoly, interval: RationalInterval) -> int:
    """Number of distinct real roots of p in the interval.

    Works on the squarefree primitive integer model of p, so repeated roots
    are counted once.  That model and its Sturm chain are each computed once
    per coefficient tuple and kept in bounded LRU caches, so repeated counts
    on one polynomial (bisection) cost only the sign evaluations.  V(lo) -
    V(hi), the drop in sign changes of the chain, counts the roots in
    (lo, hi]; the strictness flags then add or take off a root at an
    endpoint.  Every sign is taken exactly in integers as the sign of
    b^deg * q(a/b) at a/b.

    >>> sturm_count(IntegerPoly((-2, 0, 1)), RationalInterval(0, 2))
    1
    """
    if p.is_zero:
        raise ZeroPolynomialError("root counting needs a nonzero polynomial")
    return _sturm_count_int(squarefree_part(p), interval)[0]


class _Bisection:
    """Sign bisection of an isolating interval, in integers.

    The interval is kept as (a/d, b/d) over one denominator.  q is squarefree
    and the open interval holds exactly one of its roots, alpha, so alpha is
    simple and q has one sign, left, on (a/d, alpha) and the opposite sign on
    (alpha, b/d): a midpoint where q has sign left lies left of alpha, one
    with sign -left right of it, and sign 0 is alpha, after which a == b and
    the interval stays that point.
    When a/d is not a root, left = sign q(a/d).  When it is one (an excluded
    endpoint, such as -1 for x^2-1 on (-1, 2]) it is simple and (a/d, alpha)
    holds no root, so left = sign q'(a/d).  No root is ever counted.  A
    caller that already took sign q(lo) passes it as ``at_lo``.

    A halving doubles a, b and d and splits at the old a + b over the new d,
    so b - a never changes and each endpoint equals the Fraction midpoint
    (lo + hi)/2 that bisection in Fractions would reach.  Every sign is
    _sign_at in integers; Fractions are built only by interval().
    """

    __slots__ = ("cs", "left", "a", "b", "d")

    def __init__(self, q: IntegerPoly, lo: Fraction, hi: Fraction, at_lo: Optional[int] = None):
        d = math.lcm(lo.denominator, hi.denominator)
        self.cs = q.coeffs
        if at_lo is None:
            at_lo = q.sign_at(lo)
        self.left = at_lo or q.derivative().sign_at(lo)
        self.a = lo.numerator * (d // lo.denominator)
        self.b = hi.numerator * (d // hi.denominator)
        self.d = d

    def halvings_to(self, width: Fraction) -> int:
        """Number of halvings that bring the width to at most width > 0."""
        excess = (self.b - self.a) * width.denominator
        allowed = width.numerator * self.d
        return ((excess - 1) // allowed).bit_length() if excess > allowed else 0

    def halve(self, times: int = 1) -> None:
        cs, left, a, b, d = self.cs, self.left, self.a, self.b, self.d
        for _ in range(times):
            mid = a + b
            a, b, d = a + a, b + b, d + d
            s = _sign_at(cs, mid, d)
            if s == left:
                a = mid
            elif s:
                b = mid
            else:
                a = b = mid
                break
        self.a, self.b, self.d = a, b, d

    def interval(self) -> RationalInterval:
        """The current interval: open, or a point once a midpoint was the root."""
        lo = Fraction(self.a, self.d)
        if self.a == self.b:
            return RationalInterval(lo, lo)
        return RationalInterval(lo, Fraction(self.b, self.d), True, True)


def isolate_real_roots(p: IntegerPoly):
    """Disjoint rational intervals, each isolating one real root of p.

    Sturm counts halve the root bound (-B, B) until each open piece holds
    one root, and that piece is returned as it is, its ends integers times
    powers of two; a root at a split point comes back as a point interval.
    Intervals are returned in ascending root order.

    >>> [str(iv) for iv in isolate_real_roots(IntegerPoly((-2, 0, 1)))]
    ['(-4, 0)', '(0, 4)']
    """
    if p.is_zero:
        raise ZeroPolynomialError("cannot isolate roots of the zero polynomial")
    q = squarefree_part(p)
    if q.degree <= 0:
        return ()
    bound = cauchy_bound(q)
    intervals = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        cell = RationalInterval(lo, hi, True, True)
        k = _sturm_count_int(q, cell)[0]
        if k == 0:
            continue
        if k == 1:
            intervals.append(cell)
            continue
        mid = (lo + hi) / 2
        if q.sign_at(mid) == 0:
            intervals.append(RationalInterval(mid, mid))
        stack.append((lo, mid))
        stack.append((mid, hi))
    intervals.sort(key=lambda iv: (iv.lo, iv.hi))
    return tuple(intervals)


# ---------------------------------------------------------------------------
# text grammar
#
#   expr     := ('+'|'-')? term (('+'|'-') term)*
#   term     := factor ('*'? factor)*
#   factor   := base ('^' uint)?
#   base     := '(' expr ')' | rational | var
#   rational := uint ('/' uint)?
#   var      := single letter
#
# The optional leading sign extends the published grammar; without it the
# canonical rendering of polynomials with negative leading coefficient would
# not re-parse.

# caps an exponent and the degree of every value the grammar builds
_MAX_EXPONENT = 4096
# caps the estimated work (_work, _power_work, _sum_work) of the products,
# powers and sums the grammar builds, summed over the whole input
_MAX_WORK = 2**28
# 10**limit for check_digits, once per sys.get_int_max_str_digits() value
_power_of_ten = lru_cache(maxsize=4)((10).__pow__)
_SPACES = re.compile(r"\s+")  # the runs of str.isspace() characters
# ASCII digits only: int() and str.isdigit() also take other scripts' digits
_DIGITS = re.compile(r"[0-9]+")


def check_digits(value: Rat, text: str, position: int, power: int = 1) -> None:
    """Raise ParseError when value**power has more digits than str() converts.

    Python converts between int and str only up to sys.get_int_max_str_digits()
    decimal digits (0 lifts the limit), so a longer number could never be
    reported.  The power is built only when its size alone does not decide:
    n^e < 2^(b e) for n of b bits, n^e >= 2^((b - 1) e), and
    2^(3k) < 10^k < 2^(4k).
    """
    limit = sys.get_int_max_str_digits()
    n = max(abs(value.numerator), value.denominator)
    bits = n.bit_length()
    if limit and bits * power > 3 * limit:
        if (bits - 1) * power >= 4 * limit or n**power >= _power_of_ten(limit):
            raise ParseError(f"{text!r} has too many digits", position)


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        # skip[i]: the end of the run of spaces that holds i, from one scan
        self.skip = {i: run.end() for run in _SPACES.finditer(text) for i in range(*run.span())}

    def peek(self):
        pos = self.pos = self.skip.get(self.pos, self.pos)
        return (self.text[pos] if pos < len(self.text) else None), pos

    def take(self):
        ch, pos = self.peek()
        if ch is not None:
            self.pos += 1
        return ch, pos

    def take_uint(self):
        pos = self.peek()[1]
        run = _DIGITS.match(self.text, pos)
        if run is None:
            raise ParseError("expected a number", pos)
        digits, self.pos = run.group(), run.end()
        significant = digits.lstrip("0") or "0"
        # as many digits as 10^(len - 1), checked before int() could refuse it
        check_digits(10, digits, pos, len(significant) - 1)
        return int(significant), pos


def _shape(cs: tuple) -> tuple:
    """(length, nonzero coefficients, log2 of the l1 norm, the sum of
    |coefficients|, taken as 1 for zero) of a coefficient tuple; every
    coefficient has at most 1 + int(log2) bits."""
    return len(cs), len(cs) - cs.count(0), math.log2(max(1, sum(map(abs, cs))))


def _product_shape(a: tuple, b: tuple) -> tuple:
    # a bound on the shape of a product: the l1 norm is submultiplicative
    if not a[0] or not b[0]:
        return 0, 0, 0.0
    length = a[0] + b[0] - 1
    return length, min(length, a[1] * b[1]), a[2] + b[2]


def _work(a: tuple, b: tuple) -> int:
    """A bound on the time of IntegerPoly.__mul__ on factors of these shapes,
    in units of about a nanosecond, on the path __mul__ takes for them.

    Either path pays 4096 for the call.  The schoolbook loop pays 128 per
    coefficient of either factor (it visits every coefficient of a and fills
    a result as long as both), starts an inner loop for each nonzero
    coefficient of a (512) and visits every coefficient of b in it: 256 per
    step plus 4 per product of 30-bit digits, CPython's int digit.  Packing
    converts each coefficient to and from its nb-byte slot (1024 + 16 nb)
    and multiplies ints of D >= d digits, at most 24 D d^0.585 by
    Karatsuba.  Measured times stayed within 0.67 of this bound on dense and
    sparse factors of 1 to 4097 terms and 2 to 10^5 bits."""
    bits_a, bits_b = int(a[2]) + 1, int(b[2]) + 1
    if a[1] * b[1] > _KRONECKER_RATIO * (a[0] + b[0]):
        nb = (bits_a + bits_b + min(a[0], b[0]).bit_length() + 9) // 8
        small, big = sorted((a[0] * nb * 8 // 30 + 1, b[0] * nb * 8 // 30 + 1))
        return 4096 + (a[0] + b[0]) * (1024 + 16 * nb) + 24 * big * int(small**0.585)
    step = 256 + 4 * (1 + bits_a // 30) * (1 + bits_b // 30)
    return 4096 + (a[0] + b[0]) * 128 + a[1] * (512 + b[0] * step)


def _power_work(base: tuple, e: int) -> int:
    # the products IntegerPoly.__pow__ forms for base^e, on shape bounds, and
    # the product by one that _ring_pow skips: still an upper bound, and the
    # work cap keeps its refusals and their positions (pricing it out moves
    # the refusal of "+".join(["(x+1)^256"] * 200) from 865 to 895)
    total, result = 0, _shape((1,))
    while e:
        if e & 1:
            total += _work(result, base)
            result = _product_shape(result, base)
        e >>= 1
        if e:
            total += _work(base, base)
            base = _product_shape(base, base)
    return total


def _sum_work(a: tuple, b: tuple, m: int) -> int:
    """A bound on the parser's time for a sum of shapes a, b over the common
    denominator m, in _work's units: 16384 per step and, per coefficient, 256
    plus 16 per product of 30-bit digits of the scaled coefficient and of m
    (measured within 0.5 of it up to 4097 terms and 14000-bit coefficients)."""
    words = (int(max(a[2], b[2])) + m.bit_length()) // 30 + 1
    return 16384 + (a[0] + b[0]) * (256 + 16 * words * (m.bit_length() // 30 + 1))


class _Parser:
    """Recursive descent over the grammar above, in integers.

    A value is (num, den, shape): an IntegerPoly over a positive int with no
    factor common to den and every coefficient, so the coefficient c/den in
    lowest terms is Fraction(c, den), and the _shape of num, worked out once
    as the value is formed.  A power of such a pair is in lowest terms: a
    prime of den dividing every coefficient of num^e would divide every
    coefficient of num, by Gauss's lemma.  The checks read the lowest-terms
    coefficients, so the refusals are those of a parser in Fractions.
    """

    X = IntegerPoly.x(), 1, _shape((0, 1))  # the variable, as a value

    def __init__(self, text: str, var):
        self.toks = _Tokenizer(text)
        self.var = var
        self.spent = 0  # the work estimates of the products, powers and sums so far

    def parse(self) -> IntegerPoly:
        num = self.parse_expr()[0]
        ch, pos = self.toks.peek()
        if ch is not None:
            raise ParseError(f"unexpected {ch!r}", pos)
        return num.primitive()

    def check(self, start, pos, degree, coeffs=(), den=1, power=1, work=0) -> None:
        """Refuse, at the operator position pos, a degree above _MAX_EXPONENT,
        a coefficient c/den whose power has too many digits, or a work
        estimate that takes the input's total above _MAX_WORK, in that order."""
        if degree > _MAX_EXPONENT:
            excess = f"has degree {degree}, above the cap {_MAX_EXPONENT}"
            raise ParseError(f"{self.operand(start)!r} {excess}", pos)
        limit = sys.get_int_max_str_digits() if coeffs else 0
        # check_digits' own first test, on a bound of every coefficient
        if limit and max(*map(abs, coeffs), den).bit_length() * power > 3 * limit:
            for c in coeffs:
                check_digits(Fraction(c, den), self.operand(start), pos, power)
        self.spent += work
        if self.spent > _MAX_WORK:
            total = "" if self.spent == work else f", {self.spent} with the rest of the input"
            excess = f"needs work {work} to expand{total}, above the cap {_MAX_WORK}"
            raise ParseError(f"{self.operand(start)!r} {excess}", pos)

    def formed(self, start, pos, num, den) -> tuple:
        """num/den in lowest terms, refused at pos for a coefficient with too
        many digits (the shape's l1 norm bounds each); check passed the degree:
        a sum's is at most, a product's or a power's equal to, the one checked."""
        g = math.gcd(den, *num.coeffs)
        if g != 1:
            num, den = _poly([c // g for c in num.coeffs]), den // g
        shape = _shape(num.coeffs)
        limit = sys.get_int_max_str_digits()
        if limit and max(int(shape[2]) + 1, den.bit_length()) > 3 * limit:
            for c in num.coeffs:
                check_digits(Fraction(c, den), self.operand(start), pos)
        return num, den, shape

    def operand(self, start: int) -> str:
        """The text from start to the current position, which a refusal quotes."""
        return self.toks.text[start : self.toks.pos].strip()

    def parse_expr(self) -> tuple:
        ch, start = self.toks.peek()
        if ch in ("+", "-"):
            self.toks.take()
        num, den, shape = self.parse_term()
        if ch == "-":
            num = -num
        while True:
            ch, pos = self.toks.peek()
            if ch not in ("+", "-"):
                return num, den, shape
            self.toks.take()
            term, d, term_shape = self.parse_term()
            m = math.lcm(den, d)
            work = _sum_work(shape, term_shape, m)
            self.check(start, pos, max(shape[0], term_shape[0]) - 1, work=work)
            if ch == "-":
                term = -term
            if d == den:
                num, den, shape = self.formed(start, pos, num + term, den)
            else:
                num, den, shape = self.formed(start, pos, num * (m // den) + term * (m // d), m)

    def parse_term(self) -> tuple:
        start = self.toks.pos
        num, den, shape = self.parse_factor()
        while True:
            ch, pos = self.toks.peek()
            if ch == "*":
                self.toks.take()
            elif ch is None or not ("0" <= ch <= "9" or ch.isalpha() or ch == "("):
                return num, den, shape
            other, d, other_shape = self.parse_factor()
            degree = shape[0] + other_shape[0] - 2 if shape[0] and other_shape[0] else -1
            self.check(start, pos, degree, work=_work(shape, other_shape))
            num, den, shape = self.formed(start, pos, num * other, den * d)

    def parse_factor(self) -> tuple:
        start = self.toks.pos
        base = num, den, shape = self.parse_base()
        ch, pos = self.toks.peek()
        if ch != "^":
            return base
        self.toks.take()
        exponent, epos = self.toks.take_uint()
        if exponent > _MAX_EXPONENT:
            raise ParseError(f"exponent {exponent} exceeds the cap {_MAX_EXPONENT}", epos)
        # the leading and the lowest nonzero coefficient of base^e are their own e-th powers
        ends = num.coeffs[-1:] + tuple(c for c in num.coeffs if c)[:1]
        work = _power_work(shape, exponent)
        self.check(start, pos, (shape[0] - 1) * exponent, ends, den, exponent, work)
        return self.formed(start, pos, num**exponent, den**exponent)

    def parse_base(self) -> tuple:
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
            num = _poly([self.toks.take_uint()[0]])
            if self.toks.peek()[0] != "/":
                return num, 1, _shape(num.coeffs)
            self.toks.take()
            den, dpos = self.toks.take_uint()
            if den == 0:
                raise ParseError("zero denominator", dpos)
            return self.formed(pos, pos, num, den)
        if ch.isalpha():
            self.toks.take()
            if self.var is None:
                self.var = ch
            elif ch != self.var:
                raise UnknownVariableError(f"unknown variable {ch!r}, expected {self.var!r}", pos)
            return self.X
        raise ParseError(f"unexpected {ch!r}", pos)


def parse_poly(text: str, var=None) -> IntegerPoly:
    """Parse polynomial text like "8z^3+4z^2-18z-1" or "(b-1)*(b+3)^3".

    Returns the primitive part, with positive leading coefficient, of the
    polynomial the text denotes over Q, computed in integers; the zero
    polynomial raises ZeroPolynomialError.  When var is None the first letter
    encountered names the variable; any second letter raises
    UnknownVariableError.

    >>> parse_poly("8z^3+4z^2-18z-1", "z").coeffs
    (-1, -18, 4, 8)
    >>> parse_poly("-4/3x^2+2/3").coeffs
    (-1, 0, 2)
    """
    return _Parser(text, var).parse()


def format_poly(p, var: str = "x") -> str:
    """Canonical descending-power rendering of a polynomial's coefficients.

    Takes anything with low-to-high ``coeffs``, such as an IntegerPoly; the
    text re-parses to the same polynomial (up to its content, since
    parse_poly returns the primitive part).
    """
    coeffs = p.coeffs
    if not coeffs:
        return "0"
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if i == 0:
            body = str(mag)
        else:
            stem = var if i == 1 else f"{var}^{i}"
            body = stem if mag == 1 else f"{mag}{stem}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = (first_sign if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += sign + body
    return text
