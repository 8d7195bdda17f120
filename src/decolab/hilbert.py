"""Finite-dimensional quantum kinematics.

States and density matrices over a tensor-factored Hilbert space, with
partial trace, Schmidt decomposition and coherence/entropy diagnostics.
Everything is dense and immutable-by-convention; target total dimensions
are <= 2**12.

Validation.  A StateVector must have the split's length and unit norm
(`check_unit`, NORM_TOL), as must the amplitude and pointer vectors of the
scenario models.  A DensityMatrix must be square over the split, hermitian (max
|rho - rho^dag| <= HERM_TOL), of unit trace (NORM_TOL) and have no eigenvalue
below EIG_FLOOR; an Observable must be square and hermitian; `check_gram` asks
a Gram matrix for a unit diagonal, hermiticity and the same positivity.  Every
test is written so that a NaN fails it, so non-finite entries are rejected.
The cost is O(n^2) reads (`hermiticity_drift`, row blocks, no n x n temporary)
plus one Cholesky factorization in `min_eigenvalue_if_uncertified`, the
positivity routine of `check_positive` and of every run's final `audit`, of the
rows it cannot drop: rows with |a_ii| weight <= |EIG_FLOOR|/4 whose summed mass
|a_i,:|^2 + |a_:,i|^2 stays within (|EIG_FLOOR|/4 / weight)^2 move no
eigenvalue by more than |EIG_FLOOR|/4 (Weyl), so the kept block, shifted by
EIG_FLOOR/2, proves 3/4 EIG_FLOOR.  eigvalsh runs only where it fails.  A
DensityMatrix built from an n x r factor V, rho = V V^dag (as `density_of` and
`partial_trace` of such a state build it), is positive by construction and pays
for no Cholesky: with tr rho = |V|_F^2 = 1 the rounding of V V^dag moves no
eigenvalue below about -r*1.1e-16 for r columns, far above EIG_FLOOR.  It is
checked in O(n r) from V's shape and trace; its purity, entropy and
expectations read V, and its entries are built on first read, and only then
read for hermiticity, as fl(V V^dag) need not be hermitian.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

import numpy as np

NORM_TOL = 1e-12
HERM_TOL = 1e-12
EIG_FLOOR = -1e-10
DEGENERACY_TOL = 1e-8
HERM_BLOCK = 64  # rows per block read by hermiticity_drift and by the certificate's masses


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


def min_eigenvalue_if_uncertified(a: np.ndarray, weight: float = 1.0, *, hermitian: bool = False) -> float | None:
    """None if a Cholesky factorization certifies that the hermitian a * weight has no eigenvalue
    below EIG_FLOOR, else eigvalsh's smallest eigenvalue of a * weight.

    Rows i with |a_ii| weight <= |EIG_FLOOR|/4 are candidates; sorted by their exact mass |a_i,:|^2 +
    |a_:,i|^2 (read HERM_BLOCK rows at a time; 2 |a_i,:|^2, with no column gather, for an a `hermitian`
    by construction), the longest run whose summed mass stays within (|EIG_FLOOR|/4 / weight)^2 is
    dropped, never a NaN or inf one.  With E their part of a * weight,
    |E|_2 <= |E|_F <= |EIG_FLOOR|/4 (Weyl), so factoring the kept block a_SS - (EIG_FLOOR/2)/weight I, a
    fresh copy, proves lambda_min(a * weight) >= 3/4 EIG_FLOOR, far beyond its backward error of order
    n eps |a * weight|; by Cauchy interlacing it holds wherever all of a would.  With nothing dropped,
    a's diagonal is shifted in place and restored exactly (a read-only a is copied).
    """
    budget = -EIG_FLOOR / 4.0 / weight
    cand = (np.abs(np.diagonal(a)) <= budget).nonzero()[0]
    keep = np.ones(len(a), bool)
    if len(cand):
        mass = np.concatenate([np.vecdot(r := a[b], r).real * 2.0 if hermitian
                               else np.vecdot(r := a[b], r).real + np.vecdot(c := np.take(a, b, 1), c, axis=0).real
                               for b in np.split(cand, range(HERM_BLOCK, len(cand), HERM_BLOCK))])
        order = np.argsort(mass)
        keep[cand[order[:np.count_nonzero(np.cumsum(mass[order]) <= budget**2)]]] = False
    square = a if (not len(cand) or keep.all()) and a.flags.writeable else a[np.ix_(keep, keep)]
    del cand, keep  # beside a, only the factor's buffers from here
    diagonal = np.einsum("ii->i", square)  # a writable view
    saved = diagonal.copy()
    diagonal -= EIG_FLOOR / 2.0 / weight
    try:
        if np.isfinite(np.linalg.cholesky(square).trace()):  # a NaN or inf may factor, to a NaN, without error
            return None
    except np.linalg.LinAlgError:
        pass
    finally:
        diagonal[:] = saved
    return float(np.linalg.eigvalsh(a)[0]) * weight


def check_positive(a: np.ndarray, subject: str) -> None:
    """ValueError naming the smallest eigenvalue if the hermitian matrix a has one below EIG_FLOOR."""
    lo = min_eigenvalue_if_uncertified(a)
    if lo is not None and lo < EIG_FLOOR:
        raise ValueError(f"{subject}: negative eigenvalue {lo}")


@dataclass(frozen=True)
class SubsystemSplit:
    """Ordered factorization of the total space into subsystem dimensions.

    Factor order is fixed and meaningful: index 0 is the leftmost tensor
    factor of the stored amplitudes.
    """

    dims: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError("every subsystem dimension must be >= 1")

    @property
    def dim(self) -> int:
        return prod(self.dims)

    @property
    def n_factors(self) -> int:
        return len(self.dims)

    def concat(self, other: "SubsystemSplit") -> "SubsystemSplit":
        return SubsystemSplit(self.dims + other.dims)

    def select(self, keep: tuple[int, ...]) -> "SubsystemSplit":
        return SubsystemSplit(tuple(self.dims[i] for i in keep))


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


def _hermitian_over(entries, split: SubsystemSplit) -> np.ndarray:
    """entries as a complex array; ValueError unless it is square over the split and hermitian within HERM_TOL."""
    a = np.asarray(entries, dtype=complex)
    if a.shape != (split.dim, split.dim):
        raise ValueError("entries must be a square matrix matching the split")
    herm = hermiticity_drift(a)
    if not herm <= HERM_TOL:
        raise ValueError(f"not hermitian: max deviation {herm}")
    return a


class DensityMatrix:
    """A density matrix over a split, given by its entries or by a factor V with rho = V V^dag.

    Pass entries, or None and `factor=` an n x r matrix, never both.  A
    factored state is checked from V alone (shape, trace |V|_F^2) and pays for
    no Cholesky; its entries V V^dag are built, read for hermiticity and
    cached when `entries` is first read.
    """

    def __init__(self, entries: np.ndarray | None, split: SubsystemSplit, factor: np.ndarray | None = None):
        self._entries, self.split, self.factor = entries, split, factor
        self.__post_init__()

    def __post_init__(self):
        if (self._entries is None) == (self.factor is None):
            raise ValueError("give exactly one of entries and factor")
        if self.factor is None:
            self._entries = _hermitian_over(self._entries, self.split)
            tr = np.trace(self._entries)
        else:
            v = self.factor = np.asarray(self.factor, dtype=complex)
            if v.ndim != 2 or len(v) != self.split.dim:
                raise ValueError(f"factor must be a ({self.split.dim}, r) matrix, not {v.shape}")
            tr = np.vdot(v, v).real
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"trace {tr} != 1")
        if self.factor is None:
            check_positive(self._entries, "density matrix")

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            self._entries = _hermitian_over(self.factor @ self.factor.conj().T, self.split)
        return self._entries

    @property
    def dim(self) -> int:
        return self.split.dim

    def _gram(self) -> np.ndarray:
        """The entries, or of a factored rho = V V^dag the smaller of V^dag V and V V^dag: rho's nonzero spectrum."""
        v = self.factor
        return self.entries if v is None else (v.conj().T @ v if v.shape[1] < len(v) else v @ v.conj().T)

    def purity(self) -> float:
        """tr rho^2 = sum |g_ij|^2 of the hermitian g = _gram()."""
        g = self._gram()
        return float(np.vdot(g, g).real)


@dataclass
class Observable:
    entries: np.ndarray
    split: SubsystemSplit

    def __post_init__(self):
        self.entries = _hermitian_over(self.entries, self.split)


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


def density_of(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(None, psi.split, factor=psi.amplitudes[:, None])


def expectation(a: Observable, rho: DensityMatrix) -> float:
    if a.entries.shape != (rho.dim, rho.dim):
        raise ValueError("dimension mismatch between observable and state")
    v = rho.factor  # tr(A rho) without the product, or tr(V^dag A V)
    raw = np.einsum("ij,ji->", a.entries, rho.entries) if v is None else np.vdot(v, a.entries @ v)
    if abs(raw.imag) >= 1e-10:
        raise ValueError(f"expectation value has imaginary part {raw.imag}")
    return float(raw.real)


def _factor_indices(split: SubsystemSplit, indices) -> tuple[int, ...]:
    """The distinct factor indices, sorted; ValueError if there are none or one is outside the split."""
    out = tuple(sorted(set(int(i) for i in indices)))
    n = split.n_factors
    if not out or any(i < 0 or i >= n for i in out):
        raise ValueError(f"invalid factor indices {out} for {n} factors")
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every factor not listed in `keep` (kept factors stay in order).

    The reduced state of a factored rho = V V^dag is factored too: V with
    its row index split into the factors, the kept ones moved first and
    the rest merged with V's columns, is d_keep x (d_rest r).
    """
    keep = _factor_indices(rho.split, keep)
    n = rho.split.n_factors
    dims = rho.split.dims
    d_keep = prod(dims[k] for k in keep)
    traced = tuple(i for i in range(n) if i not in keep)
    if rho.factor is not None:
        v = rho.factor.reshape(dims + (-1,)).transpose(keep + traced + (n,))
        return DensityMatrix(None, rho.split.select(keep), factor=v.reshape(d_keep, -1))
    t = rho.entries.reshape(dims + dims)
    # contract row/column axes of each traced-out factor
    for count, i in enumerate(traced):
        ax = i - count  # axes shift as we trace
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    return DensityMatrix(t.reshape(d_keep, d_keep), rho.split.select(keep))


def _bipartition(split: SubsystemSplit, cut) -> tuple[tuple[int, ...], tuple[int, ...]]:
    local = _factor_indices(split, cut)
    env = tuple(i for i in range(split.n_factors) if i not in local)
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


def entanglement_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy -sum lam ln lam (natural log, 0 ln 0 = 0)."""
    evals = np.linalg.eigvalsh(rho._gram())
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


def audit(rho: np.ndarray, weight: float = 1.0, *, hermitian: bool = False) -> dict[str, float | None]:
    """Invariant audit of the entries of a density matrix whose probability operator is rho * weight.

    Returns the trace drift |tr(rho) weight - 1|, the hermiticity drift max |rho - rho^dag| over
    the raw entries (None, unread, for a rho `hermitian` by construction), and for rho * weight
    `min_eigenvalue`, measured or None where the Cholesky certificate holds, and
    `min_eigenvalue_bound`, that eigenvalue or the certified EIG_FLOOR.  The weight is the
    spacing dx of a grid density matrix, 1 for a finite-dimensional one.
    """
    lo = min_eigenvalue_if_uncertified(rho, weight, hermitian=hermitian)
    return {
        "trace_drift": abs(float(np.trace(rho).real) * weight - 1.0),
        "hermiticity_drift": None if hermitian else hermiticity_drift(rho),
        "min_eigenvalue": lo,
        "min_eigenvalue_bound": EIG_FLOOR if lo is None else lo,
    }


def offdiagonal_coherence(rho: DensityMatrix | np.ndarray) -> float | np.ndarray:
    """Sum of |rho_mn| over m != n in the stored (computational) basis, of a DensityMatrix or its bare entries;
    a float, or for a stack of entries (..., n, n) an array (...) whose every sum equals its own matrix's call."""
    a = np.abs(rho.entries if isinstance(rho, DensityMatrix) else rho)
    i = np.arange(a.shape[-1])
    a[..., i, i] = 0.0  # not a.sum() - trace(a), which cancels off-diagonals below its rounding
    return a.sum(axis=(-2, -1)) if a.ndim > 2 else float(a.sum())
