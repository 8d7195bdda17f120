"""States and operators that the tests build, kept outside `src/` because
no decolab run needs them."""
import numpy as np

from decolab.hilbert import DensityMatrix, Observable, SchmidtDecomposition, StateVector, SubsystemSplit


def basis_state(index: int, split: SubsystemSplit) -> StateVector:
    amps = np.zeros(split.dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, split)


def random_state(rng: np.random.Generator, split: SubsystemSplit) -> StateVector:
    amps = rng.normal(size=split.dim) + 1j * rng.normal(size=split.dim)
    amps /= np.linalg.norm(amps)
    return StateVector(amps, split)


def random_density(rng: np.random.Generator, split: SubsystemSplit) -> DensityMatrix:
    """A full-rank density matrix G G^dag / tr(G G^dag) with complex Gaussian G."""
    d = split.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    m /= np.trace(m).real
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m, split)


def state_with_min_eigenvalue(rng: np.random.Generator, n: int, lo: float) -> np.ndarray:
    """A hermitian unit-trace matrix of dimension n whose smallest eigenvalue is lo."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rest = rng.uniform(0.5, 1.0, size=n - 1)
    evals = np.concatenate(([lo], rest * (1.0 - lo) / rest.sum()))
    a = (q * evals) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    return a / np.trace(a).real


def random_observable(rng: np.random.Generator, split: SubsystemSplit) -> Observable:
    d = split.dim
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return Observable(0.5 * (g + g.conj().T), split)


def tensor_product(a: StateVector, b: StateVector) -> StateVector:
    return StateVector(np.kron(a.amplitudes, b.amplitudes), a.split.concat(b.split))


def schmidt_reconstruct(dec: SchmidtDecomposition) -> np.ndarray:
    """Rebuild the bipartite amplitude vector sum_n sqrt(p_n) phi_n (x) Phi_n."""
    amps = 0
    for k, p in enumerate(dec.probabilities):
        amps = amps + np.sqrt(p) * np.kron(dec.local_vectors[:, k], dec.env_vectors[:, k])
    return amps


def pointers_from_gram(gram: np.ndarray) -> np.ndarray:
    """Concrete unit vectors realizing a given Gram matrix (rows are states)."""
    g = np.asarray(gram, dtype=complex)
    evals, vecs = np.linalg.eigh(g)
    evals = np.clip(evals, 0.0, None)
    s = (vecs * np.sqrt(evals)) @ vecs.conj().T  # hermitian square root, G = S^dag S
    states = s.T  # column n of S is eps_n; return as rows
    # renormalize against rounding
    return states / np.linalg.norm(states, axis=1, keepdims=True)


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
