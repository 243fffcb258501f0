"""Machine-speed calibration for a shared host.

On a small shared machine the CPU speed available to one process swings by
up to 2x for tens of seconds at a time (co-tenants on sibling hardware
threads), which no statistic over one run can remove.  The benchmark
therefore times a fixed kernel next to every block of work and scales each
measured duration by REFERENCE_S / (kernel time around that block), so
that times read as on this machine when it is quiet.  The kernel mixes
interpreter-bound float arithmetic with small numpy linear algebra, like
pkmkin's solvers, and never calls pkmkin, so a change to the program does
not move it.  Fresh processes are scaled the same way by a bare interpreter
start timed next to them.  Raw timings are reported beside the scaled ones.
"""

import math
import time

import numpy as np

# kernel time (fastest of two back-to-back runs) and wall time of
# `python3 -c pass` on the quiet 2-vCPU host the benchmark was defined on
# (CPython 3.11, numpy 2.4)
REFERENCE_S = 1.0e-3
PROCESS_REFERENCE_S = 0.06

_rng = np.random.default_rng(20081128)
_EIG = _rng.standard_normal((8, 8))
_LHS = _rng.standard_normal((50, 4, 4)) + 4.0 * np.eye(4)
_RHS = _rng.standard_normal((50, 4, 1))


def kernel():
    acc = 0.0
    for k in range(1500):
        x = 1e-3 * k
        acc += math.sin(x) * math.cos(x) + (x * x - 1.0) ** 2
    for _ in range(15):
        np.linalg.eigvals(_EIG)
        np.linalg.solve(_LHS, _RHS)
    return acc


def sample():
    """Fastest of two back-to-back kernel timings (drops a lone interrupt)."""
    best = math.inf
    for _ in range(2):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(before, after):
    """Factor turning durations measured between two samples into reference time."""
    return REFERENCE_S / (0.5 * (before + after))


def process_scale(before, after):
    """The same for a fresh process timed between two bare interpreter starts."""
    return PROCESS_REFERENCE_S / (0.5 * (before + after))
