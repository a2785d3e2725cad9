"""Seeded inputs for the benchmark workloads.

Every function here is a pure function of its seed.  Parameters are text in
the CLI's own syntax: a rational "p/q" or "minpoly@[lo,hi]" with an integer
minimal polynomial and a rational interval that isolates one of its roots.
Irreducibility (rational root test) and isolation (sign change, plus sympy's
exact root count for cubics) are checked exactly, so the program only sees
valid algebraic inputs unless an input is malformed on purpose.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import numpy
import sympy

X = sympy.Symbol("x")
LOW, HIGH = Fraction(-2), Fraction(1, 4)

# Parameters whose answers are known from the paper: the cubic is parabolic
# with P_4(4c) = 0; 1/4, -3/4, -5/4 are the landmarks; -7/4 has a parabolic
# 3-cycle that the rational classifier may only report as unresolved.
POSITIVE_CONTROLS = ("64x^3+144x^2+108x+135@[-2,-15/8]", "1/4", "-3/4", "-5/4", "-7/4")

# Inputs the CLI must reject with exit code 2.
MALFORMED = (
    "abc",
    "1/0",
    "x^2-2@[0,2",
    "x^2-2@[0;2]",
    "x^^2-2@[-2,0]",
    "@[0,1]",
    "x^2-2@[a,b]",
    "x^2-2@[1,0]",
)

# Inputs that break the CLI contract (a traceback instead of exit code 2) at
# the time the benchmark was written.  They are run once per run, outside the
# timed loop, and reported; see README.md.
KNOWN_DEFECTS = (
    ("classify", "--c", "x^2-5@[0,1]"),
    ("isolate", "--poly", "0"),
)

# One block of the warm-classify stream: (kind, coefficient height, width
# exponent of the isolating interval) slots.  Fixed shares per block keep the
# mix, and so the mean cost, the same for every seed; only the drawn
# polynomials and the order inside a block vary.  Quick decisions (rationals,
# controls, malformed text) are ten of the sixteen, so the median operation
# is a quick one and repeats across seeds; the algebraic parameters, which
# take about 95% of the time, set ops_per_s and the tail.
CLASSIFY_BLOCK = (
    [("quadratic", h, k) for h, k in zip((8, 16, 64, 256), (0, 2, 4, 6))]
    + [("cubic", h, k) for h, k in zip((8, 64), (1, 5))]
    + [("rational", 64, 0)] * 7
    + [("control", 0, 0)] * 2
    + [("malformed", 0, 0)]
)


def format_poly(coeffs) -> str:
    """Render integer coefficients (high to low) in the CLI's syntax."""
    degree = len(coeffs) - 1
    text = ""
    for i, c in enumerate(coeffs):
        e = degree - i
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if text else "")
        stem = "" if e == 0 else ("x" if e == 1 else f"x^{e}")
        mag = abs(c)
        text += sign + (stem if mag == 1 and e else f"{mag}{stem}")
    return text


def _value(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _has_rational_root(coeffs) -> bool:
    """Rational root test: p/q with p | a_0 and q | a_d (a_0 != 0 here)."""
    lead, const = abs(coeffs[0]), abs(coeffs[-1])
    ps = [d for d in range(1, const + 1) if const % d == 0]
    qs = [d for d in range(1, lead + 1) if lead % d == 0]
    return any(_value(coeffs, Fraction(s * p, q)) == 0 for p in ps for q in qs for s in (1, -1))


def _isolating_interval(coeffs, root: float, width_exp: int):
    """A rational interval of width 2^-k, k >= width_exp, holding exactly this root.

    A sign change proves an odd number of roots inside; sympy's exact count
    settles whether it is one.
    """
    for k in range(width_exp, width_exp + 8):
        scale = 2**k
        lo = Fraction(math.floor(root * scale), scale)
        hi = lo + Fraction(1, scale)
        if _value(coeffs, lo) * _value(coeffs, hi) >= 0:
            continue
        if len(coeffs) == 3 or sympy.Poly(coeffs, X).count_roots(lo, hi) == 1:
            return lo, hi
    return None


def algebraic(rng: random.Random, degree: int, height: int, width_exp: int, seen: set):
    """An irreducible integer quadratic or cubic with a root in [-2, 1/4], as CLI text.

    The isolating interval has width 2^-width_exp unless a finer one is needed.
    Polynomials already in ``seen`` are skipped, so no input repeats and
    parabkit's caches never see a parameter twice.
    """
    while True:
        coeffs = [rng.randint(1, height)] + [rng.randint(-height, height) for _ in range(degree)]
        if coeffs[-1] == 0 or math.gcd(*coeffs) != 1 or tuple(coeffs) in seen:
            continue
        # degree <= 3: irreducible over Q exactly when there is no rational root
        if _has_rational_root(coeffs):
            continue
        roots = [r.real for r in numpy.roots(coeffs) if abs(r.imag) < 1e-9]
        roots = [r for r in roots if LOW <= r <= HIGH]
        if not roots:
            continue
        interval = _isolating_interval(coeffs, rng.choice(sorted(roots)), width_exp)
        if interval is None:
            continue
        lo, hi = interval
        seen.add(tuple(coeffs))
        return f"{format_poly(coeffs)}@[{lo},{hi}]"


def rational(rng: random.Random, max_den: int) -> str:
    q = rng.randint(1, max_den)
    p = rng.randint(math.ceil(LOW * q), math.floor(HIGH * q))
    return str(Fraction(p, q))


def classify_stream(seed: int, blocks: int) -> list:
    """The warm-classify stream: ``blocks`` shuffled blocks of CLASSIFY_BLOCK."""
    rng = random.Random(f"classify-{seed}")
    seen: set = set()
    stream = []
    for b in range(blocks):
        block = []
        for slot, (kind, height, width_exp) in enumerate(CLASSIFY_BLOCK):
            if kind == "quadratic":
                block.append(algebraic(rng, 2, height, width_exp, seen))
            elif kind == "cubic":
                block.append(algebraic(rng, 3, height, width_exp, seen))
            elif kind == "rational":
                block.append(rational(rng, height))
            elif kind == "control":
                block.append(POSITIVE_CONTROLS[(2 * b + slot) % len(POSITIVE_CONTROLS)])
            else:
                block.append(MALFORMED[b % len(MALFORMED)])
        rng.shuffle(block)
        stream.extend(block)
    return stream


def cold_stream(seed: int, blocks: int) -> list:
    """The cold-cli stream: each block runs the three commands in seeded order."""
    rng = random.Random(f"cold-{seed}")
    seen: set = set()
    stream = []
    for _ in range(blocks):
        c = algebraic(rng, 2, rng.choice((8, 16, 64)), 2, seen)
        block = [
            ["verify", "prop2", "--json"],
            ["pn", "--n", "5", "--check-parity", "--json"],
            ["classify", "--c", c, "--json"],
        ]
        rng.shuffle(block)
        stream.extend(block)
    return stream
