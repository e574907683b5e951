"""The reference loop that the benchmark's times are scaled by.

On a shared machine the speed of the CPU given to this process changes by up
to 1.7x for minutes at a time, and process CPU time changes with it.  A short
pure-Python loop run just before each operation slows in the same proportion,
so the benchmark reports each operation time multiplied by
REF_S / (median reference-loop time around that operation): seconds at the
speed at which the loop takes REF_S.  README.md shows the raw and the scaled
spreads.
"""

from __future__ import annotations

import time

# The loop's time on the reference machine in its fast state (see README.md),
# so that scaled times read as that machine's fast-state seconds.
REF_S = 5.5e-4

# Importing numpy takes 0.09 s to 0.17 s in a fresh process here, swinging
# with the page cache and not with the loop; defcalc cannot change it.  The
# set-up metric therefore counts numpy's import as this constant, its import
# time on the reference machine, and measures the rest (see run.py).
REF_NUMPY_S = 0.14


def reference_loop() -> float:
    """Seconds taken by a fixed mix of float arithmetic, calls and dict/str work."""
    start = time.perf_counter()
    total = 0.0
    for i in range(5000):
        total += (i * 0.5) ** 0.5
    table = {}
    for i in range(1000):
        table[i] = str(i)
    return time.perf_counter() - start
