"""Finite-dimensional quantum kinematics.

States and density matrices over a tensor-factored Hilbert space, with
partial trace, Schmidt decomposition and coherence/entropy diagnostics.
Everything is dense and immutable-by-convention; target total dimensions
are <= 2**12.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
EIG_FLOOR = -1e-10
DEGENERACY_TOL = 1e-8


@dataclass(frozen=True)
class SubsystemSplit:
    """Ordered factorization of the total space into subsystem dimensions.

    Factor order is fixed and meaningful: index 0 is the leftmost tensor
    factor of the stored amplitudes.
    """

    dims: tuple[int, ...]
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("every subsystem dimension must be >= 1")
        if self.labels is not None and len(self.labels) != len(self.dims):
            raise ValueError("labels must match the number of factors")

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def concat(self, other: "SubsystemSplit") -> "SubsystemSplit":
        labels = None
        if self.labels is not None and other.labels is not None:
            labels = self.labels + other.labels
        return SubsystemSplit(self.dims + other.dims, labels)

    def select(self, keep: tuple[int, ...]) -> "SubsystemSplit":
        labels = None
        if self.labels is not None:
            labels = tuple(self.labels[i] for i in keep)
        return SubsystemSplit(tuple(self.dims[i] for i in keep), labels)


@dataclass
class StateVector:
    amplitudes: np.ndarray
    split: SubsystemSplit

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.ndim != 1 or len(self.amplitudes) != self.split.dim:
            raise ValueError("amplitude length must equal the split dimension")
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: |psi| = {norm}")

    @property
    def dim(self) -> int:
        return self.split.dim


@dataclass
class DensityMatrix:
    entries: np.ndarray
    split: SubsystemSplit

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        d = self.split.dim
        if self.entries.shape != (d, d):
            raise ValueError("entries must be a square matrix matching the split")
        herm = np.max(np.abs(self.entries - self.entries.conj().T))
        if herm > HERM_TOL:
            raise ValueError(f"not hermitian: max deviation {herm}")
        tr = np.trace(self.entries)
        if abs(tr - 1.0) > NORM_TOL:
            raise ValueError(f"trace {tr} != 1")
        lo = np.linalg.eigvalsh(self.entries)[0]
        if lo < EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {lo}")

    @property
    def dim(self) -> int:
        return self.split.dim

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass
class Observable:
    entries: np.ndarray
    split: SubsystemSplit

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        d = self.split.dim
        if self.entries.shape != (d, d):
            raise ValueError("entries must be a square matrix matching the split")
        herm = np.max(np.abs(self.entries - self.entries.conj().T))
        if herm > HERM_TOL:
            raise ValueError(f"not hermitian: max deviation {herm}")


@dataclass
class SchmidtDecomposition:
    """Biorthogonal expansion psi = sum_n sqrt(p_n) phi_n (x) Phi_n.

    probabilities are nonincreasing; local_vectors / env_vectors hold the
    paired orthonormal vectors as columns.  When two probabilities are
    within DEGENERACY_TOL the decomposition is not unique; `degenerate`
    flags that and any valid orthonormal choice is returned.
    """

    probabilities: np.ndarray
    local_vectors: np.ndarray
    env_vectors: np.ndarray
    degenerate: bool = field(default=False)


def basis_state(index: int, split: SubsystemSplit) -> StateVector:
    amps = np.zeros(split.dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, split)


def random_state(rng: np.random.Generator, split: SubsystemSplit) -> StateVector:
    amps = rng.normal(size=split.dim) + 1j * rng.normal(size=split.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, split)


def random_density(rng: np.random.Generator, split: SubsystemSplit, rank: int | None = None) -> DensityMatrix:
    d = split.dim
    rank = rank or d
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, split)


def random_observable(rng: np.random.Generator, split: SubsystemSplit) -> Observable:
    d = split.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Observable(0.5 * (g + g.conj().T), split)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.split.concat(b.split))


def density_of(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), psi.split)


def expectation(a: Observable, rho: DensityMatrix) -> float:
    if a.entries.shape != rho.entries.shape:
        raise ValueError("dimension mismatch between observable and state")
    raw = np.trace(a.entries @ rho.entries)
    if abs(raw.imag) >= 1e-10:
        raise ValueError(f"expectation value has imaginary part {raw.imag}")
    return float(raw.real)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in `keep` (kept factors stay in order)."""
    keep = tuple(sorted(set(int(k) for k in keep)))
    n = rho.split.n_factors
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid factor indices {keep} for {n} factors")
    dims = rho.split.dims
    t = rho.entries.reshape(dims + dims)
    # contract row/column axes of each traced-out factor
    traced = [i for i in range(n) if i not in keep]
    for count, i in enumerate(traced):
        ax = i - count  # axes shift as we trace
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    d_keep = prod(dims[k] for k in keep)
    return DensityMatrix(t.reshape(d_keep, d_keep), rho.split.select(keep))


def _bipartition(split: SubsystemSplit, cut) -> tuple[tuple[int, ...], tuple[int, ...]]:
    local = tuple(sorted(set(int(c) for c in cut)))
    n = split.n_factors
    if not local or any(k < 0 or k >= n for k in local):
        raise ValueError(f"invalid cut {cut}")
    env = tuple(i for i in range(n) if i not in local)
    if not env:
        raise ValueError("cut must leave a nonempty environment block")
    return local, env


def schmidt(psi: StateVector, cut) -> SchmidtDecomposition:
    """Schmidt decomposition across the bipartition (cut | rest).

    `cut` lists the factor indices of the local block.  The phase gauge is
    fixed by making the first nonvanishing component of each local vector
    real positive.
    """
    local, env = _bipartition(psi.split, cut)
    dims = psi.split.dims
    t = psi.amplitudes.reshape(dims)
    t = np.transpose(t, local + env)
    d_loc = prod(dims[i] for i in local)
    d_env = prod(dims[i] for i in env)
    m = t.reshape(d_loc, d_env)
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    mask = s > 1e-14
    u, s, vh = u[:, mask], s[mask], vh[mask, :]
    # gauge: first nonzero component of each local vector real positive
    for k in range(len(s)):
        col = u[:, k]
        j = np.argmax(np.abs(col) > 1e-12)
        ph = col[j] / abs(col[j])
        u[:, k] = col / ph
        vh[k, :] = vh[k, :] * ph
    p = s**2
    degenerate = bool(np.any(np.abs(np.diff(p)) < DEGENERACY_TOL)) if len(p) > 1 else False
    return SchmidtDecomposition(p, u, vh.T, degenerate)


def schmidt_reconstruct(dec: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the bipartite amplitude vector sum_n sqrt(p_n) phi_n (x) Phi_n."""
    amps = 0
    for k, p in enumerate(dec.probabilities):
        amps = amps + np.sqrt(p) * np.kron(dec.local_vectors[:, k], dec.env_vectors[:, k])
    return amps


def entanglement_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum lam ln lam (natural log, 0 ln 0 = 0)."""
    evals = np.linalg.eigvalsh(rho.entries)
    evals = evals[evals > 1e-15]
    return float(-np.sum(evals * np.log(evals)))


def check_gram(g) -> np.ndarray:
    """g as a complex array; ValueError unless it is a Gram matrix: unit diagonal, hermitian, positive semidefinite."""
    g = np.asarray(g, dtype=complex)
    if np.max(np.abs(np.diag(g) - 1.0)) > NORM_TOL:
        raise ValueError("overlap table must have unit diagonal")
    if np.max(np.abs(g - g.conj().T)) > HERM_TOL:
        raise ValueError("overlap table must be hermitian")
    if np.linalg.eigvalsh(g)[0] < EIG_FLOOR:
        raise ValueError("overlap table must be positive semidefinite")
    return g


def audit(rho: np.ndarray, weight: float = 1.0) -> dict[str, float]:
    """Invariant audit of the entries of a density matrix whose probability operator is rho * weight.

    Returns the trace drift |tr(rho) weight - 1|, the hermiticity drift max |rho - rho^dag|
    over the raw entries and the smallest eigenvalue of rho * weight.  The weight is the
    spacing dx of a grid density matrix, 1 for a finite-dimensional one.
    """
    return {
        "trace_drift": abs(float(np.trace(rho).real) * weight - 1.0),
        "hermiticity_drift": float(np.max(np.abs(rho - rho.conj().T))),
        "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]) * weight,
    }


def offdiagonal_coherence(rho: DensityMatrix) -> float:
    """Sum of |rho_mn| over m != n in the stored (computational) basis."""
    a = np.abs(rho.entries)
    np.fill_diagonal(a, 0.0)  # not a.sum() - trace(a), which cancels off-diagonals below its rounding
    return float(a.sum())
