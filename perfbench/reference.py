"""A fixed reference kernel, timed around every job to express job times in its units.

On a shared host the CPU speed this process gets can change twofold within
seconds and stay changed for minutes, so seconds measured in one run do not
repeat in the next. A job time divided by the time of this kernel, measured
just before and just after the job on the same CPU, does repeat. The kernel
is the benchmark's own code and never changes with the program. It mixes
the two kinds of work the program does: Python-level loops over small numpy
vector operations (two sweeps of one-sided Jacobi rotations over a fixed
24x24 matrix) and BLAS products (128x128 times 128x256, the reference
gradient shape).
"""

from __future__ import annotations

import math
import time

import numpy as np

_RNG = np.random.default_rng(20251018)
_SMALL = _RNG.standard_normal((24, 24))
_W = _RNG.standard_normal((128, 128))
_X = _RNG.standard_normal((128, 256))
_SWEEPS = 2
_PRODUCTS = 30


def _kernel() -> float:
    a = _SMALL.copy()
    k = a.shape[1]
    for _ in range(_SWEEPS):
        for p in range(k - 1):
            for q in range(p + 1, k):
                gamma = float(a[:, p] @ a[:, q])
                zeta = (float(a[:, q] @ a[:, q]) - float(a[:, p] @ a[:, p])) / (2.0 * gamma)
                t = math.copysign(1.0, zeta) / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                ap = a[:, p].copy()
                a[:, p] = c * ap - t * c * a[:, q]
                a[:, q] = t * c * ap + c * a[:, q]
    acc = 0.0
    for _ in range(_PRODUCTS):
        acc += float((_W @ _X)[0, 0])
    return acc + float(a[0, 0])


def reference_s() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
