"""Host-speed calibration for timing on a shared, noisy machine.

On a host shared with other tenants the same code runs at different speeds
from one minute to the next: consecutive blocks of identical warm
operations differ by 20-25%, while CPU time tracks wall time, so the
slowdown is the host's.  The benchmark therefore runs a fixed calibration
loop next to every measured operation, in the same process where it can,
and reports each operation's wall time scaled to a reference host speed:

    seconds at reference speed = wall seconds * REFERENCE_S / calibration seconds

where the calibration seconds were measured right after that operation.
``REFERENCE_S`` is a constant: the calibration time on a host of the
reference speed, so a faster program reads lower and a slower one higher
on any host.  The loop does what parabkit spends its time on: Fraction and
big-integer arithmetic and small-object allocation.  It never calls
parabkit.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.004
_MODULUS = 10**120 + 7


def _loop() -> int:
    acc = Fraction(1, 3)
    table = {}
    for i in range(1, 400):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        table[i] = [acc.numerator % 97, i * i]
    x = 3**200
    for _ in range(300):
        x = (x * x) % _MODULUS
    return x + len(table)


def calibration(repeats: int = 1) -> float:
    """Seconds one calibration loop takes now (median of ``repeats``)."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scale(calibration_s: float) -> float:
    """Factor that turns wall seconds into seconds at reference speed."""
    return REFERENCE_S / calibration_s
