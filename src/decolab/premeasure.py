"""Ideal premeasurement, environmental records and erasure.

The system basis states get correlated with environment states through the
controlled rotation sum_n |n><n| (x) U_n, where U_n takes the ready state to
pointer n, rotating within span{ready, pointer_n} and fixing its orthogonal
complement.  Acting on a ready environment, that unitary yields
sum_n c_n phi_n Phi_n, so `ideal_premeasure` writes the record directly as
that product.  Because the coupling is a genuine unitary, every record can
be coherently undone: `erase` applies the inverse rotations U_n^dag.  What
cannot be undone from the reduced state alone is quantified by
`decoherence_factor`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hilbert import StateVector, SubsystemSplit, check_gram, check_unit


@dataclass
class PointerCoupling:
    """One environment factor that records the system basis index.

    env_ready is the pre-interaction environment state; env_pointers[n] is
    the state the environment rotates into when the system is in basis
    state n.  Pointers need not be orthogonal.
    """

    env_ready: np.ndarray
    env_pointers: np.ndarray  # shape (system_dim, env_dim)

    def __post_init__(self):
        self.env_ready = np.asarray(self.env_ready, dtype=complex)
        self.env_pointers = np.atleast_2d(np.asarray(self.env_pointers, dtype=complex))
        if self.env_pointers.shape[1] != len(self.env_ready):
            raise ValueError("pointer states must live in the env_ready space")
        for v in (self.env_ready, *self.env_pointers):
            check_unit(v, "environment state")

    @property
    def system_dim(self) -> int:
        return self.env_pointers.shape[0]

    @property
    def env_dim(self) -> int:
        return len(self.env_ready)


@dataclass
class ScattererChain:
    """Sequential environmental records, stored only through their overlaps.

    overlaps[j] is the Gram matrix G[m, n] = <eps_j^(m)|eps_j^(n)> of the
    j-th scatterer's pointer states (unit diagonal, positive semidefinite).
    """

    overlaps: list[np.ndarray] = field(default_factory=list)

    def __post_init__(self):
        self.overlaps = [check_gram(g) for g in self.overlaps]

    @property
    def n_scatterers(self) -> int:
        return len(self.overlaps)


def _unrotate_rows(rows: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row v of `rows` mapped to (U^dag v)^T, for U the rotation of unit a onto unit b.

    U is the identity on span{a, b}^perp.  In an orthonormal frame F of
    span{a, b}, U = I + F (M - I) F^dag: F = [a, a_perp] with
    M = [[alpha, -beta], [beta, conj(alpha)]], alpha = <a|b>,
    beta = |b - alpha a|, or, when b is a phase times a, F = [a] and
    M = [[alpha]].  So v^T conj(U) = v^T + (v^T conj(F)) (conj(M) - I) F^T,
    a rank-2 update.
    """
    alpha = np.vdot(a, b)
    c = b - alpha * a
    beta = np.linalg.norm(c)
    if beta < 1e-14:
        frame, m = a[:, None], np.array([[alpha]])
    else:
        frame, m = np.column_stack((a, c / beta)), np.array([[alpha, -beta], [beta, np.conj(alpha)]])
    return rows + (rows @ frame.conj()) @ ((m.conj() - np.eye(len(m))) @ frame.T)


def ideal_premeasure(state: StateVector, coupling: PointerCoupling) -> StateVector:
    """Append an environment factor that holds pointer n wherever the system is in state n.

    The system is factor 0 of `state`; the new environment factor is
    appended last.  For a bare system state this realizes
    sum_n c_n phi_n -> sum_n c_n phi_n Phi_n.  The result is the controlled
    rotation of a ready environment, built as the product of each system
    slice with its pointer since U_n|ready> = |pointer_n>.
    """
    if state.split.dims[0] != coupling.system_dim:
        raise ValueError("system dimension does not match the coupling")
    t = state.amplitudes.reshape(coupling.system_dim, -1)
    joint = t[:, :, None] * coupling.env_pointers[:, None, :]
    return StateVector(joint.reshape(-1), state.split.concat(SubsystemSplit((coupling.env_dim,))))


def decoherence_factor(chain: ScattererChain, m: int, n: int, k: int) -> complex:
    """Product of the first k per-scatterer overlaps <eps_j^(n)|eps_j^(m)>.

    This is the factor multiplying rho_mn of the reduced system state after
    k sequential records.
    """
    if k > chain.n_scatterers:
        raise IndexError(f"k={k} exceeds {chain.n_scatterers} scatterers")
    dim = chain.overlaps[0].shape[0] if chain.overlaps else max(m, n) + 1
    if not (0 <= m < dim and 0 <= n < dim):
        raise IndexError("basis index out of range")
    out = 1.0 + 0.0j
    for g in chain.overlaps[:k]:
        out *= g[n, m]
    return out


def erase(joint: StateVector, couplings: list[PointerCoupling], subset) -> StateVector:
    """Coherently undo the records of the listed scatterers.

    `joint` must have the system as factor 0 and one environment factor per
    coupling, appended in interaction order.  Erasing all records restores
    the initial product state; erasing a subset leaves the complement's
    decoherence factor on the reduced state.  U_n^dag differs from the
    identity only on span{ready, pointer_n}, so it is applied to system
    slice n as a rank-2 update (`_unrotate_rows`), never as a d x d matrix.
    """
    n_env = joint.split.n_factors - 1
    if len(couplings) != n_env:
        raise ValueError("need one coupling per environment factor")
    subset = sorted(set(int(j) for j in subset))
    if any(j < 0 or j >= n_env for j in subset):
        raise ValueError(f"subset {subset} references scatterers outside the chain")
    t = joint.amplitudes.reshape(joint.split.dims)
    for j in reversed(subset):
        c = couplings[j]
        t = np.moveaxis(t, 1 + j, -1).copy()
        rows = t.reshape(len(t), -1, c.env_dim)  # rows[n] holds environment vectors as rows
        for n, pointer in enumerate(c.env_pointers):
            rows[n] = _unrotate_rows(rows[n], c.env_ready, pointer)
        t = np.moveaxis(t, -1, 1 + j)
    return StateVector(t.reshape(-1), joint.split)
