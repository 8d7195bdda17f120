"""Measurement chain: system -> apparatus -> environment -> observer.

The unitary stages entangle the system basis with orthonormal pointer
states of the apparatus and then the environment; only the final
observation step samples an outcome, with probability |c_n|^2, using a
counter-based generator so runs are reproducible and order-independent.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..hilbert import StateVector, SubsystemSplit, check_unit
from ..params import Declared, param


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
    app_dim: int | None = None
    env_dim: int | None = None
    obs_dim: int | None = None
    seed: int = 0

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        n = len(self.amplitudes)
        check_unit(self.amplitudes, "amplitudes")
        self.app_dim = self.app_dim or n
        self.env_dim = self.env_dim or n
        self.obs_dim = self.obs_dim or n
        for d, label in ((self.app_dim, "apparatus"), (self.env_dim, "environment"), (self.obs_dim, "observer")):
            if d < n:
                raise ValueError(f"{label} pointer family needs at least {n} states")
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
    outcomes: np.ndarray | None = None  # the sampled outcome of each run, in run order

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)

    @property
    def n_runs(self) -> int:
        return int(self.counts.sum())

    @property
    def frequencies(self) -> np.ndarray:
        return self.counts / self.counts.sum()


def build_chain_state(chain: MeasurementChain, stage: str) -> StateVector:
    """Joint state after the named stage of the chain.

    stage 'meas':  (sum_n c_n |n> |n>_app) |0>_env |0>_obs
    stage 'decoh': (sum_n c_n |n> |n>_app |n>_env) |0>_obs
    """
    if stage not in ("meas", "decoh"):
        raise ValueError(f"unknown stage {stage!r} (expected 'meas' or 'decoh')")
    n = chain.n_outcomes
    dims = (n, chain.app_dim, chain.env_dim, chain.obs_dim)
    amps = np.zeros(dims, dtype=complex)
    for k, c in enumerate(chain.amplitudes):
        env_idx = k if stage == "decoh" else 0
        amps[k, k, env_idx, 0] = c
    split = SubsystemSplit(dims, ("system", "apparatus", "environment", "observer"))
    return StateVector(amps.reshape(-1), split)


def run_chain(chain: MeasurementChain, runs: int, seed: int | None = None) -> FrequencyRecord:
    """Sample the observed outcome n0 for `runs` repetitions.

    Run i consumes block i of a Philox counter stream keyed on the seed, so
    the record is independent of execution order and bitwise reproducible.
    """
    if runs < 1:
        raise ValueError("need at least one run")
    seed = chain.seed if seed is None else seed
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(runs)
    edges = np.cumsum(chain.probabilities)
    edges[-1] = 1.0  # guard against rounding
    outcomes = np.searchsorted(edges, u, side="right")
    counts = np.bincount(outcomes, minlength=chain.n_outcomes)
    return FrequencyRecord(counts, seed, outcomes)
