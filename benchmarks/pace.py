"""The host's momentary speed, from a fixed reference computation.

On a shared host the processor's speed for this process drifts by tens of
percent over seconds to minutes, on both cores at once, as other tenants
load it, and it slows every kind of work by similar factors.
`reference()` is a fixed mix of that work which never calls decolab.
Timed just before and just after an operation, it gives the speed the
operation ran at, and `scaled` turns the operation's time into seconds at
the reference's nominal speed (`NOMINAL_S`).
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.02  # the reference's duration on this 2-core host at its typical speed (README.md)

_rng = np.random.default_rng(0)
_MATRIX = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_MATRIX /= np.linalg.norm(_MATRIX, 2)
_SMALL = np.array([[1.0, 0.2j, 0.0], [-0.2j, 0.5, 0.0], [0.0, 0.0, 0.25]])
_LARGE = _rng.standard_normal(1_000_000)


def _work() -> float:
    """Each kind of work the workloads do, in one fixed mix."""
    total = 0
    for i in range(100_000):         # interpreter loop
        total += i * i % 7
    for _ in range(300):             # per-call overhead of tiny arrays
        total += np.linalg.eigvalsh(_SMALL + 0.0)[0]
    m = _MATRIX
    for _ in range(20):              # BLAS
        m = _MATRIX @ m
    for _ in range(2):               # memory traffic beyond the caches
        total += _LARGE.copy()[::4096].sum()
    return total + float(np.abs(m).sum())


def reference() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """`seconds[i]`, timed between `refs[i]` and `refs[i + 1]`, in seconds at the nominal speed."""
    return [s * 2.0 * NOMINAL_S / (refs[i] + refs[i + 1]) for i, s in enumerate(seconds)]
