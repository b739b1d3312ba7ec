"""A fixed reference loop that measures how fast the host runs right now.

The reference host (2 CPUs, shared, under KVM) switches between a fast and
a slow state for seconds to minutes at a time; in the slow one the same
Python code takes up to 1.8 times as long while CPU time still equals wall
time.  ``reference_loop`` times a fixed piece of exact-rational Python
arithmetic that uses no schsym code, so a schsym change cannot move it.
Timing it next to a piece of schsym work and scaling that work's time by
``NOMINAL_REF_S / reference time`` gives the time the work would have taken
with the host in its fast state: its *corrected* time.

Standard library only, so it can run before ``import schsym``.
"""
from __future__ import annotations

import time
from fractions import Fraction

# Median reference_loop() time on the reference host in its fast state.
NOMINAL_REF_S = 0.0078
REF_ITERS = 1500


def reference_loop(iters: int = REF_ITERS) -> float:
    """Seconds taken by ``iters`` rounds of fixed Fraction arithmetic."""
    t0 = time.perf_counter()
    acc = 0
    for k in range(1, iters + 1):
        q = Fraction(k, k + 1) * Fraction(k + 2, k + 3) + Fraction(1, k)
        acc += q.numerator % 7
    return time.perf_counter() - t0


def corrected(seconds: float, ref_s: float) -> float:
    """``seconds`` measured while the reference loop took ``ref_s``, scaled
    to the host's fast state."""
    return seconds * NOMINAL_REF_S / ref_s
