"""A fixed calibration kernel, for reporting times at a reference speed.

The speed of the shared 2-core machine this benchmark was built on drifts
by up to 50 % within minutes, in the same way for all code.  Timing each
operation right after this kernel and dividing by the kernel's time removes
most of that drift; multiplying by ``CAL_REF_S``, the kernel's median time
on the reference machine, turns the ratio back into seconds.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

CAL_REF_S = 0.003
_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def calibrate():
    """Time a fixed kernel that shares no code with fareychain: interpreter
    bytecode, big-integer fractions, two 48 x 48 eigen-solves and arithmetic
    on a freshly allocated array.  Returns (wall, cpu) seconds."""
    c0 = time.process_time()
    t0 = time.perf_counter()
    total = 0
    for i in range(8000):
        total += (i * i) % 7
    acc = Fraction(0)
    for k in range(1, 120):
        acc += Fraction(1, k)
    for _ in range(2):
        np.linalg.eigvals(_MATRIX)
    a = np.arange(1 << 16, dtype=float)
    np.sqrt(a * a + 1.0)
    return time.perf_counter() - t0, time.process_time() - c0
