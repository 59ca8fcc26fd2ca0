"""Host-speed reference for the benchmark's timings.

The benchmark shares its machine with other tenants, and the speed of pure
Python code there drifts by up to 1.8x over minutes, which no median over a
run of tens of seconds removes.  Timed intervals are therefore interleaved
with short runs of a fixed reference kernel in the same process: sparse
exact-rational convolutions written against the standard library alone, so
no change to bvdouble can speed it up or slow it down.  A time ``t``
measured next to a reference time ``r`` is reported as
``t * NOMINAL_S / r``: seconds at the host speed at which REPS runs of the
reference kernel take ``NOMINAL_S``.

``NOMINAL_S`` is the kernel's typical time on the shared 2-vCPU x86-64
Linux virtual machine (Python 3.11.7) where the benchmark was defined, so
reported times read as seconds on that machine.  It is a fixed constant: changing it rescales every reported
time, so it may only change together with a new baseline.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.1
REPS = 10


def _kernel():
    a = {(i, j): Fraction(i + 1, j + 5) for i in range(-3, 4) for j in range(-3, 4)}
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in a.items():
            mode = (m1[0] + m2[0], m1[1] + m2[1])
            acc[mode] = acc.get(mode, 0) + c1 * c2
    return acc


def reference_s(reps: int = REPS) -> float:
    """Wall time of ``reps`` kernel runs, expressed per REPS runs."""
    start = time.perf_counter()
    for _ in range(reps):
        _kernel()
    return (time.perf_counter() - start) * REPS / reps


def scaled(seconds: float, reference: float) -> float:
    """``seconds`` expressed at the nominal host speed."""
    return seconds * NOMINAL_S / reference
