"""Host-speed gauge: a fixed piece of pure-Python work, independent of
randlab, timed right before every job.

The host this benchmark runs on is a share of a machine whose speed swings by
up to 2x within seconds, and the gauge slows and speeds up with it.  So every
job time is scaled by GAUGE_REF_S over the median of the gauge readings taken
around the job: the benchmark's times are seconds on a host where the gauge
takes GAUGE_REF_S.  A change to randlab moves them as it moves raw time; a
change of host speed during or between runs moves them far less.  The raw
times are printed beside them.

The gauge mixes the kinds of work randlab does: small-rational arithmetic,
a string-keyed dict of exact masses over a binary tree, and big-integer
products.
"""

import gc
import statistics
import time
from fractions import Fraction

GAUGE_REF_S = 0.008  # about the gauge's time on a 2-vCPU host with Python 3.11


def _work() -> None:
    total = Fraction(0)
    for i in range(1, 900):
        total += Fraction(1, i % 97 + 1)
    p, q = Fraction(1, 3), Fraction(2, 3)
    masses, frontier = {"": Fraction(1)}, [""]
    for _ in range(8):
        grown = []
        for sigma in frontier:
            m = masses[sigma]
            masses[sigma + "0"], masses[sigma + "1"] = m * p, m * q
            grown += [sigma + "0", sigma + "1"]
        frontier = grown
    assert all(masses[s] == masses[s + "0"] + masses[s + "1"] for s in masses if len(s) < 8)
    x = 1
    for i in range(300):
        x = x * 3 + i
    for _ in range(6000):
        x * x


def gauge_s() -> float:
    """Time the gauge once.  The cyclic garbage collector is off meanwhile,
    so that the time does not depend on how many objects the program has
    left alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scale(readings) -> float:
    """The factor that turns a time measured among these readings into
    seconds at the reference speed."""
    return GAUGE_REF_S / statistics.median(readings)
