"""Machine-speed probes: times are scaled to a reference speed of the machine.

On a shared host the speed of the benchmark's CPU changes by up to two times
for minutes on end, with the load of other tenants.  A run that falls wholly
in a slow phase reads slow whatever repeats it makes.  So the runner times a
fixed probe, which does not touch the library, right before and right after
every operation, and scales the operation's wall time by

    probe.ref_s / (mean of the two probe times)

The result reads in seconds of a machine on which the probe takes
``probe.ref_s``.  A change to the library moves the operation's time but not
the probe's; a slow phase of the machine moves both.

A slow phase slows different kinds of work by different factors, so each
kind of operation names the probe that does its kind of work:

* SCALAR, for ``solve``: pure-Python bisections on a function of
  ``math.log1p`` and ``math.sqrt``, the scalar code the solver spends its
  time in.  About 85 us, so that it costs little next to a solve.
* MIXED, for ``verify``: the same scalar work, repeated, and numpy work of
  the size ``montecarlo`` does (normal samples times a 48 x 48 matrix), each
  about half of the probe's time.  About 6 ms, little next to a verify call.
"""

from __future__ import annotations

import math
import time
from typing import Callable, NamedTuple

import numpy as np

# each probe slot takes the fastest of this many probe runs, so that one
# interrupt does not read as a slow phase
PROBE_REPEATS = 3

_MATRIX = np.random.default_rng(0).standard_normal((48, 48))


def _f(x: float, c: float) -> float:
    return math.log1p(x) + math.sqrt(x) - c


def scalar_work() -> float:
    """A fixed amount of scalar work: twelve bisections to 1e-12."""
    total = 0.0
    for k in range(12):
        lo, hi = 0.0, 10.0
        c = 1.0 + 0.1 * k
        while hi - lo > 1e-12 * hi:
            mid = 0.5 * (lo + hi)
            if _f(mid, c) > 0.0:
                hi = mid
            else:
                lo = mid
        total += lo
    return total


def mixed_work() -> float:
    total = sum(scalar_work() for _ in range(36))
    x = np.random.default_rng(5).standard_normal((2000, 48))
    return total + float(np.sum((x @ _MATRIX) ** 2))


class Probe(NamedTuple):
    work: Callable[[], float]
    # fastest time of ``work`` on the 2-core development machine (Intel
    # Xeon, Python 3.11, numpy 2.4) in a quiet phase; a fixed constant, so
    # that scaled times compare across runs
    ref_s: float

    def seconds(self) -> float:
        """Fastest of PROBE_REPEATS runs, in seconds."""
        best = math.inf
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best

    def speed(self, before: float, after: float) -> float:
        """Factor that scales a wall time taken between two probe slots to
        the reference speed."""
        return self.ref_s / (0.5 * (before + after))


SCALAR = Probe(scalar_work, 8.5e-5)
MIXED = Probe(mixed_work, 6.5e-3)
