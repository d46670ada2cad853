"""Host-speed calibration, so timings compare across a machine that drifts.

On a 2-core virtual machine whose cores are shared with other tenants, the
same pass took anywhere from 2.3 s to 3.6 s within a few minutes, with the
whole process (CPU time included) slowing together.  A short fixed kernel
of pure-Python work (Fraction additions, modular powers, dict stores; no
cellint code) is timed right next to every measured interval, and the
interval is rescaled to *reference seconds*: the time it would have taken
had the kernel run in exactly ``REFERENCE_KERNEL_S``.  A slower cellint
still reads slower; a slower host does not.  Raw seconds are reported
beside every reference-second figure.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.001  # one kernel run at reference speed


def kernel() -> int:
    total, acc, table = Fraction(0), 0, {}
    for i in range(1, 400):
        total += Fraction(1, i % 7 + 1)
        acc = (acc * 31 + pow(i, 3, 1000003)) % 1000003
        table[i % 13] = acc
    return acc + total.denominator


def kernel_seconds() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def scale() -> float:
    """Reference seconds per raw second right now (median of five kernel runs)."""
    return REFERENCE_KERNEL_S / statistics.median(kernel_seconds() for _ in range(5))
