"""A fixed reference kernel that tracks how fast the machine is right now.

The benchmark shares its cores with other work, and for tens of seconds at
a time everything can run 10-50% slower.  A median over one run cannot
remove a slowdown that covers the whole run.  So each timed call is paired
with a run of this kernel just before it.  The call's wall time is divided
by the kernel's time and multiplied by REFERENCE_S.  The result reads as
seconds on the machine the baseline was taken on, with the drift removed.

The kernel does not touch wdglab.  It mixes the three kinds of work the
program does: an integer Gray-code walk, Fraction arithmetic, and small
numpy products.  A change to the program cannot change the kernel's time.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

import numpy as np

# Median kernel time on the baseline machine: 2 vCPUs at 2.1 GHz,
# Python 3.11, numpy 2.4.
REFERENCE_S = 0.009

_ADJACENCY = [
    [(v, (u * 7 + v * 3) % 11 - 5) for v in range(14) if v != u and (u + v) % 3]
    for u in range(14)
]
_FRACTIONS = [Fraction(k % 17 - 8, k % 13 + 1) for k in range(1, 600)]
_SIGNS = np.where(np.arange(128 * 28).reshape(128, 28) % 3, 1, -1).astype(np.int8)
_WEIGHTS = np.linspace(-1.0, 1.0, 28)


def _kernel() -> None:
    x = [1] * 14
    g = best = 0
    for i in range(1, 1 << 12):
        v = (i & -i).bit_length()
        s = 0
        for u, w in _ADJACENCY[v]:
            s += w * x[u]
        g -= 2 * s * x[v]
        x[v] = -x[v]
        if g > best:
            best, witness = g, tuple(x)
    total = Fraction(0)
    for a, b in zip(_FRACTIONS, _FRACTIONS[1:]):
        total += a * b
    for _ in range(300):
        values = _SIGNS @ _WEIGHTS
        values.max() - values.min()


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = perf_counter()
    _kernel()
    return perf_counter() - start


def corrected(seconds: float, kernel: float) -> float:
    """``seconds`` measured next to a kernel run of ``kernel`` seconds, in
    seconds of the baseline machine."""
    return seconds / kernel * REFERENCE_S
