"""Host-speed calibration kernel for the benchmark's timings.

On a shared 2-vCPU Xeon KVM guest, a single-threaded process runs at one
speed for a while and 1.4-1.8x slower for another, as a busy neighbour
on the same physical core comes and goes; either state lasts from a
second to minutes, so the raw wall time of a study call says as much
about the neighbours as about slqheat.  This kernel does a fixed amount
of interpreter work and NumPy memory traffic, the two kinds of work the
studies are made of, and uses no slqheat code, so no change to slqheat
can move it.  Timed right before and right after a study call, it tells
how fast the host ran during the call, and `scale` converts the call's
time to seconds at the reference speed (see NOTES.md).
"""

import time

import numpy as np

# Seconds one kernel pass takes on the 2.0 GHz Xeon guest above while its
# core is not shared: the reference speed of every reported time.
REFERENCE_S = 0.010

_ROWS = np.linspace(0.0, 1.0, 2 * 300).reshape(2, 300)


def kernel_seconds():
    """Wall seconds of one pass of the calibration kernel."""
    started = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(20):
        np.outer(_ROWS[0], _ROWS[1]).sum()
    return time.perf_counter() - started


def scale(seconds, kernel_before, kernel_after):
    """A time measured between two kernel passes, at reference host speed."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
