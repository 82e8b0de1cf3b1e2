"""The host's current speed, read from a fixed piece of pure-Python work.

A shared host's speed can drift by a third or more over seconds to
minutes, from outside the guest: CPU time tracks wall time, and the same
operation takes longer in slow stretches. So every time the benchmark
reports is scaled to a fixed reference speed. ``probe`` times ``PROBE_REPS`` shortest-path passes
over a fixed matrix of ``Fraction`` distances, the kind of arithmetic the
package spends its time on, using nothing from the package. An operation
that took ``t`` seconds while the probes around it took ``r`` seconds is
reported as ``t * NOMINAL_S / r``: the time it would take at the speed at
which one probe takes ``NOMINAL_S``. A change to the package does not
change the probe, so it moves the scaled times as it moves the raw ones.
"""

import time
from fractions import Fraction

POINTS = 9
PROBE_REPS = 6
# A probe's typical time on the machine whose figures bench/README.md gives.
NOMINAL_S = 0.012
# Probes taken after set-up; their median scales setup_s.
SETUP_PROBES = 5

_MATRIX = [
    [Fraction(0) if i == j else Fraction((7 * i + 3 * j) % 11 + 1, (i + j) % 3 + 1) for j in range(POINTS)]
    for i in range(POINTS)
]


def _closure():
    d = [row[:] for row in _MATRIX]
    for k in range(POINTS):
        dk = d[k]
        for i in range(POINTS):
            di = d[i]
            dik = di[k]
            for j in range(POINTS):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    return d


def probe():
    """Seconds taken by one probe."""
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        _closure()
    return time.perf_counter() - t0


def scale(probe_s):
    """Factor that turns seconds measured while a probe took ``probe_s`` into reference seconds."""
    return NOMINAL_S / probe_s
