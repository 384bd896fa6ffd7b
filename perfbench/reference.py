"""A fixed reference kernel that gauges the machine's speed during a run.

On a shared machine each core switches between a fast and a slow state that
lasts seconds (this kernel takes ~1.6 times longer in the slow one), which
would swamp the program's own changes.  The benchmark times the kernel right
before and right after each call and scales the call's time to the kernel's
nominal duration: t measured between kernel times r0 and r1 reads
t * NOMINAL_S / ((r0 + r1) / 2).  The kernel mixes the two kinds of work the
program does, interpreter loops and small batched LAPACK calls, and does not
touch the program's code.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.025

_MATRICES = (np.random.default_rng(12345).normal(size=(3000, 2, 3))
             + 1j * np.random.default_rng(54321).normal(size=(3000, 2, 3)))


def kernel_s() -> float:
    """Seconds taken by one run of the reference work."""
    started = time.perf_counter()
    for _ in range(2):
        np.linalg.svd(_MATRICES, compute_uv=False)
    total = 0
    for i in range(75_000):
        total += i
    return time.perf_counter() - started


def nominal(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between kernel times `before` and `after`, in nominal seconds."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
