"""Reference kernel that tracks how fast the host runs from moment to moment.

On a shared host the same pass can take 0.46 s and then 0.87 s a few seconds
later, in stretches that last seconds to minutes.  The speed changes for the
process's own CPU time too, so it is the machine, not scheduling.  worker.py
runs ``reference()`` in the same thread right next to every timed pass, and
run.py scales each timing by ``NOMINAL_S / reference time``: the time the
pass would have taken at the host speed at which the kernel takes
``NOMINAL_S``.

The kernel mixes the three kinds of work the workloads do: an interpreter
loop, numpy calls on 2x2 arrays, and sorting and exponentiating a 1e5-array.
It never imports ``spdecutoff``, so a change to the program cannot change it.
"""
from __future__ import annotations

import time

import numpy as np

# Median of reference() on a 2-vCPU Xeon VM when this was written.  Fixed,
# never re-measured: normalised times of two commits then compare.
NOMINAL_S = 0.030

_RNG = np.random.default_rng(2107_14158)
_SMALL = _RNG.random((2, 2)) + np.eye(2)
_VECTOR = _RNG.random(100_000)


def _kernel() -> float:
    """Seconds of wall time for one fixed run of the kernel."""
    a, b, c, d = _SMALL.ravel().tolist()
    start = time.perf_counter()
    total = 0
    for i in range(130_000):
        total += i * i
    for _ in range(450):
        m = np.array([[a, b], [c, d]])
        np.linalg.svd(m)
        np.linalg.det(m)
        np.trace(m)
        np.diag(m)
    for _ in range(12):
        np.sort(_VECTOR)
        np.exp(_VECTOR).sum()
    return time.perf_counter() - start


def reference() -> float:
    """Median of three kernel runs, so that one slow run does not set the
    scale of a whole pass."""
    return sorted(_kernel() for _ in range(3))[1]


def normalised(seconds: float, reference_s: float) -> float:
    """``seconds`` measured while the kernel took ``reference_s``, scaled to
    the host speed at which it takes NOMINAL_S."""
    return seconds * NOMINAL_S / reference_s
