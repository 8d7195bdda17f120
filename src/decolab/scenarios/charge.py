"""Charge superselection from the monitoring by the particle's own field.

A superposition over charge values q is correlated with one field state
per radial shell; tracing the shells leaves rho_qq' = c_q conj(c_q')
times the per-shell overlap raised to the shell count.  Mutually
orthogonal shell states give an exactly diagonal mixture diag(|c_q|^2).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hilbert import DensityMatrix, SubsystemSplit, check_gram, check_unit
from ..params import Declared, param


@dataclass
class ChargeConfig(Declared):
    """Equal-weight superposition of n_charges values, all charge pairs with one per-shell overlap."""

    n_charges: int = param(2, at_least=2)
    shells: int = param(1000, at_least=0)
    overlap: float = param(0.99, at_least=0, at_most=1)
    record_stride: int = 1


@dataclass
class ChargeModel:
    amplitudes: np.ndarray            # c_q, sum |c_q|^2 = 1
    shells: int                        # number of radial shells R
    per_shell_overlap: np.ndarray      # Gram matrix of shell field states per charge pair

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        check_unit(self.amplitudes, "charge amplitudes")
        if self.shells < 0:
            raise ValueError("shell count must be >= 0")
        q = len(self.amplitudes)
        if np.shape(self.per_shell_overlap) != (q, q):
            raise ValueError("overlap table must be square over the charge values")
        self.per_shell_overlap = check_gram(self.per_shell_overlap)

    @property
    def n_charges(self) -> int:
        return len(self.amplitudes)


def charge_reduced_density(model: ChargeModel) -> DensityMatrix:
    """Reduced state of the local charge after tracing its R = model.shells field shells.

    rho_qq' = c_q conj(c_q') (overlap_q'q)^R; with R = 0 this is the pure
    superposition, with orthogonal shells it is exactly diag(|c_q|^2).
    """
    c = model.amplitudes
    rho = np.outer(c, c.conj())
    # factor <Phi_q'|Phi_q> per shell: the transposed Gram entry
    rho *= model.per_shell_overlap.T ** model.shells
    return DensityMatrix(rho, SubsystemSplit((model.n_charges,)))
