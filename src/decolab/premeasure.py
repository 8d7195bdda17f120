"""Ideal premeasurement, environmental records and erasure.

The system basis states get correlated with environment states through a
controlled rotation on the joint space.  Because the coupling is a genuine
unitary, every record can be coherently undone (`erase`); what cannot be
undone from the reduced state alone is quantified by `decoherence_factor`.
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


def rotation_between(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unitary mapping unit vector a to unit vector b, identity on span{a,b}^perp."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    alpha = np.vdot(a, b)
    c = b - alpha * a
    nc = np.linalg.norm(c)
    d = len(a)
    if nc < 1e-14:
        # b is a phase times a
        return np.eye(d, dtype=complex) + (alpha - 1.0) * np.outer(a, a.conj())
    aperp = c / nc
    beta = nc
    u = np.eye(d, dtype=complex)
    u -= np.outer(a, a.conj()) + np.outer(aperp, aperp.conj())
    # 2x2 block [[alpha, -conj(beta)], [beta, conj(alpha)]] in basis {a, aperp}
    u += alpha * np.outer(a, a.conj()) - np.conj(beta) * np.outer(a, aperp.conj())
    u += beta * np.outer(aperp, a.conj()) + np.conj(alpha) * np.outer(aperp, aperp.conj())
    return u


def coupling_unitaries(coupling: PointerCoupling) -> list[np.ndarray]:
    return [rotation_between(coupling.env_ready, p) for p in coupling.env_pointers]


def _apply_controlled(state: StateVector, env_axis: int, unitaries, adjoint: bool = False) -> StateVector:
    """Apply sum_n |n><n| (x) U_n with the control on factor 0, target on env_axis."""
    dims = state.split.dims
    t = state.amplitudes.reshape(dims)
    t = np.moveaxis(t, env_axis, -1).copy()
    for n, u in enumerate(unitaries):
        op = u.conj().T if adjoint else u
        t[n] = t[n] @ op.T
    t = np.moveaxis(t, -1, env_axis)
    return StateVector(t.reshape(-1), state.split)


def ideal_premeasure(state: StateVector, coupling: PointerCoupling) -> StateVector:
    """Append an environment factor in env_ready and rotate it per system index.

    The system is factor 0 of `state`; the new environment factor is
    appended last.  For a bare system state this realizes
    sum_n c_n phi_n -> sum_n c_n phi_n Phi_n.
    """
    if state.split.dims[0] != coupling.system_dim:
        raise ValueError("system dimension does not match the coupling")
    joint_split = state.split.concat(SubsystemSplit((coupling.env_dim,)))
    joint = StateVector(np.kron(state.amplitudes, coupling.env_ready), joint_split)
    return _apply_controlled(joint, joint_split.n_factors - 1, coupling_unitaries(coupling))


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
    decoherence factor on the reduced state.
    """
    n_env = joint.split.n_factors - 1
    if len(couplings) != n_env:
        raise ValueError("need one coupling per environment factor")
    subset = sorted(set(int(j) for j in subset))
    if any(j < 0 or j >= n_env for j in subset):
        raise ValueError(f"subset {subset} references scatterers outside the chain")
    state = joint
    for j in reversed(subset):
        state = _apply_controlled(state, 1 + j, coupling_unitaries(couplings[j]), adjoint=True)
    return state


def pointers_from_gram(gram: np.ndarray) -> np.ndarray:
    """Concrete unit vectors realizing a given Gram matrix (rows are states)."""
    g = np.asarray(gram, dtype=complex)
    evals, vecs = np.linalg.eigh(g)
    evals = np.clip(evals, 0.0, None)
    s = (vecs * np.sqrt(evals)) @ vecs.conj().T  # hermitian square root, G = S^dag S
    states = s.T  # column n of S is eps_n; return as rows
    # renormalize against rounding
    return states / np.linalg.norm(states, axis=1, keepdims=True)
