"""Finite-dimensional quantum kinematics.

States and density matrices over a tensor-factored Hilbert space, with
partial trace, Schmidt decomposition and coherence/entropy diagnostics.
Everything is dense and immutable-by-convention; target total dimensions
are <= 2**12.

Validation.  A StateVector must have the split's length and unit norm
(`check_unit`, NORM_TOL), as must the amplitude and pointer vectors of the
scenario models.  A DensityMatrix must be square over the split, hermitian
(max |rho - rho^dag| <= HERM_TOL), of unit trace (NORM_TOL) and have no
eigenvalue below EIG_FLOOR; an Observable must be square and hermitian;
`check_gram` asks a Gram matrix for a unit diagonal, hermiticity and the
same positivity.  Every test is written so that a NaN fails it, so
non-finite entries are rejected.  The cost is O(n^2) reads
(`hermiticity_drift`, row blocks, no n x n temporary) plus one Cholesky
factorization (`check_positive`); eigvalsh runs only on the rejection
path, to decide and to name the eigenvalue.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
EIG_FLOOR = -1e-10
DEGENERACY_TOL = 1e-8
HERM_BLOCK = 64  # rows per block read by hermiticity_drift


def hermiticity_drift(a: np.ndarray) -> float:
    """max |a - a^dag| over the entries of the square matrix a; not finite if an entry is not.

    Reads row blocks of HERM_BLOCK rows on and right of the diagonal against
    the matching column blocks, so no n x n temporary is built.
    """
    drift = 0.0
    for i in range(0, len(a), HERM_BLOCK):
        # np.maximum, not max(): it carries a NaN through
        drift = np.maximum(drift, np.abs(a[i:i + HERM_BLOCK, i:] - a[i:, i:i + HERM_BLOCK].conj().T).max())
    return float(drift)


def check_unit(v: np.ndarray, subject: str) -> None:
    """ValueError naming subject unless the vector v has unit norm within NORM_TOL; a NaN fails."""
    norm = np.linalg.norm(v)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise ValueError(f"{subject} not normalized: |v| = {norm}")


def check_positive(a: np.ndarray, subject: str) -> None:
    """ValueError naming the smallest eigenvalue if the hermitian matrix a has one below EIG_FLOOR.

    A Cholesky factorization of a - (EIG_FLOOR/2) I that succeeds accepts a:
    its smallest eigenvalue is then above EIG_FLOOR by about half the floor,
    far beyond rounding.  Only a failed factorization pays for eigvalsh,
    which decides by the rule min eigenvalue < EIG_FLOOR.  The diagonal is
    shifted in place and restored exactly, so a comes back unchanged; a
    read-only a is copied.
    """
    if not a.flags.writeable:
        a = a.copy()
    diagonal = np.einsum("ii->i", a)  # a writable view
    saved = diagonal.copy()
    diagonal -= EIG_FLOOR / 2.0
    try:
        np.linalg.cholesky(a)
        return
    except np.linalg.LinAlgError:
        pass
    finally:
        diagonal[:] = saved
    lo = np.linalg.eigvalsh(a)[0]
    if lo < EIG_FLOOR:
        raise ValueError(f"{subject}: negative eigenvalue {lo}")


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
        check_unit(self.amplitudes, "state")

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
        herm = hermiticity_drift(self.entries)
        if not herm <= HERM_TOL:
            raise ValueError(f"not hermitian: max deviation {herm}")
        tr = np.trace(self.entries)
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"trace {tr} != 1")
        check_positive(self.entries, "density matrix")

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
        herm = hermiticity_drift(self.entries)
        if not herm <= HERM_TOL:
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
    if not np.max(np.abs(np.diag(g) - 1.0)) <= NORM_TOL:
        raise ValueError("overlap table must have unit diagonal")
    if not hermiticity_drift(g) <= HERM_TOL:
        raise ValueError("overlap table must be hermitian")
    check_positive(g, "overlap table must be positive semidefinite")
    return g


def audit(rho: np.ndarray, weight: float = 1.0) -> dict[str, float]:
    """Invariant audit of the entries of a density matrix whose probability operator is rho * weight.

    Returns the trace drift |tr(rho) weight - 1|, the hermiticity drift max |rho - rho^dag|
    over the raw entries and the smallest eigenvalue of rho * weight.  The weight is the
    spacing dx of a grid density matrix, 1 for a finite-dimensional one.
    """
    return {
        "trace_drift": abs(float(np.trace(rho).real) * weight - 1.0),
        "hermiticity_drift": hermiticity_drift(rho),
        "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]) * weight,
    }


def offdiagonal_coherence(rho: DensityMatrix) -> float:
    """Sum of |rho_mn| over m != n in the stored (computational) basis."""
    a = np.abs(rho.entries)
    np.fill_diagonal(a, 0.0)  # not a.sum() - trace(a), which cancels off-diagonals below its rounding
    return float(a.sum())
