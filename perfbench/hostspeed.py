"""A fixed burst of work that measures how fast the host runs right now.

The benchmark's host shares its cores with other tenants, and its speed
drifts by up to 2x over seconds to minutes: every call made in a slow
stretch is slow, whichever code it runs.  A run therefore times this
burst between consecutive calls and scales each call's wall time by
``REFERENCE_S / burst``, the burst's time averaged over the two bursts
around the call.  The scaled time reads as seconds on a host where the
burst takes ``REFERENCE_S``.

The burst mixes the three kinds of work polycycle does: rational
Gaussian elimination (the exact solver), pure-Python float stepping (the
DP45 oracle) and small numpy matrix products and inverses (the float
reduction and the trust-radius scan).  It uses no polycycle code, so a
change to the program cannot change the scale.  The garbage collector is
off while it runs, so the program's heap does not slow it.
"""

from __future__ import annotations

import gc
import random
import time
from fractions import Fraction

import numpy as np

# The burst's wall time on a 2-vCPU Intel Xeon at 2.1 GHz (CPython 3.11,
# numpy 2.4) in its fastest stretches: 3.9-4.0 ms; loaded, up to 8 ms.
REFERENCE_S = 0.004

_rng = random.Random(0)
_MATRIX = [[Fraction(_rng.randint(-4, 4), _rng.randint(1, 4)) for _ in range(9)] for _ in range(8)]
_NP_START = np.arange(16.0).reshape(4, 4) + np.eye(4)
_NP_EYE = np.eye(4)


def _rational_elimination():
    m = [row[:] for row in _MATRIX]
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c] != 0), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = 1 / m[c][c]
        m[c] = [v * inv for v in m[c]]
        for r in range(n):
            if r != c and m[r][c] != 0:
                f = m[r][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return m


def _float_stepping():
    x, y, h = 1.0, 0.0, 1e-3
    for _ in range(3000):
        rr = x * x + y * y
        x, y = x + h * (-y + 0.05 * x - x * rr), y + h * (x + 0.05 * y - y * rr)
    return x, y


def _small_numpy():
    a = _NP_START
    for _ in range(200):
        a = a @ np.linalg.inv(a + _NP_EYE) + _NP_EYE
    return a


def burst(repeats: int = 3) -> float:
    """Wall seconds of one burst: the fastest of ``repeats``, so that the
    caches the program (or a child process) left cold do not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            _rational_elimination()
            _float_stepping()
            _small_numpy()
            times.append(time.perf_counter() - start)
        return min(times)
    finally:
        if enabled:
            gc.enable()


def scale(before: float, after: float) -> float:
    """The factor that turns a wall time measured between two bursts into
    seconds at the reference speed."""
    return REFERENCE_S / (0.5 * (before + after))
