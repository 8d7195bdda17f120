"""Measurement chain: system -> apparatus -> environment -> observer.

The unitary stages, which entangle the system basis with orthonormal
pointer states of the apparatus and then the environment, are
`premeasure.ideal_premeasure` runs with basis-state pointers.  This module
models the final observation step: it samples an outcome with probability
|c_n|^2, using a counter-based generator so runs are reproducible and
order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..hilbert import check_unit
from ..params import Declared, param

BLOCK = 2 ** 17  # runs per block of comparison passes: 1 MiB of uniforms


@dataclass
class ChainConfig(Declared):
    """Sampling runs of a chain whose amplitudes are drawn from a Philox stream keyed on amplitude_seed."""

    n_outcomes: int = param(4, at_least=2)
    runs: int = param(100000, at_least=1)
    amplitude_seed: int = param(1, at_least=0)
    record_stride: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.amplitude_seed >= 2**128:
            raise ConfigError("amplitude_seed must be below 2**128, the range of a Philox key")


@dataclass
class MeasurementChain:
    amplitudes: np.ndarray
    seed: int = 0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        check_unit(self.amplitudes, "amplitudes")
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must fit in 64 unsigned bits")

    @property
    def n_outcomes(self) -> int:
        return len(self.amplitudes)

    @property
    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


@dataclass
class FrequencyRecord:
    counts: np.ndarray
    seed: int
    outcomes: np.ndarray  # the sampled outcome of each run, in run order

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_runs(self) -> int:
        return int(self.counts.sum())

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.counts.sum()


def run_chain(chain: MeasurementChain, runs: int) -> FrequencyRecord:
    """Sample the observed outcome n0 for `runs` repetitions by the inverse-CDF rule.

    Run i consumes block i of a Philox counter stream keyed on the chain's
    seed, so the record is independent of execution order and bitwise
    reproducible.  Its outcome, of dtype min_scalar_type(n_outcomes - 1), is the number of inner
    edges of cumsum(probabilities) at or below its uniform u (searchsorted's, the last edge pinned
    to 1), in one comparison pass per edge over each BLOCK of runs; counts are the passes' tally differences.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    rng = np.random.Generator(np.random.Philox(key=chain.seed))
    u = rng.random(runs)
    outcomes = np.zeros(runs, np.min_scalar_type(chain.n_outcomes - 1))
    above, at_least = np.empty(min(runs, BLOCK), bool), np.zeros(chain.n_outcomes - 1, np.int64)
    for lo in range(0, runs, BLOCK):  # each block of u stays in cache over every edge's pass
        u_b, out_b, above_b = u[lo:lo + BLOCK], outcomes[lo:lo + BLOCK], above[:min(BLOCK, runs - lo)]
        for k, edge in enumerate(np.cumsum(chain.probabilities)[:-1]):
            out_b += np.greater_equal(u_b, edge, out=above_b)
            at_least[k] += np.count_nonzero(above_b)
    return FrequencyRecord(-np.diff(np.concatenate(([runs], at_least, [0]))), chain.seed, outcomes)
