"""Unit and property tests for the finite-dimensional kinematics layer."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab.hilbert import (
    EIG_FLOOR, HERM_BLOCK, SubsystemSplit, StateVector, DensityMatrix, Observable,
    basis_state, random_state, random_density, random_observable,
    tensor_product, density_of, expectation, partial_trace, check_gram, check_unit, hermiticity_drift,
    schmidt, schmidt_reconstruct, entanglement_entropy, offdiagonal_coherence,
)

DIM_POOLS = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4)]


def test_split_validation():
    s = SubsystemSplit((2, 3), ("a", "b"))
    assert s.dim == 6 and s.n_factors == 2
    assert s.concat(SubsystemSplit((4,), ("c",))).labels == ("a", "b", "c")
    assert s.select((1,)).dims == (3,)
    with pytest.raises(ValueError):
        SubsystemSplit(())
    with pytest.raises(ValueError):
        SubsystemSplit((2, 0))
    with pytest.raises(ValueError):
        SubsystemSplit((2, 2), ("only-one",))


def test_state_vector_normalization():
    split = SubsystemSplit((2,))
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]), split)
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), split)
    assert psi.dim == 2


def test_density_matrix_validation():
    split = SubsystemSplit((2,))
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.6, 0.1j], [0.2j, 0.4]]), split)  # not hermitian
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([0.7, 0.7]), split)  # trace 1.4
    with pytest.raises(ValueError):
        DensityMatrix(np.diag([1.2, -0.2]), split)  # negative eigenvalue
    rho = DensityMatrix(np.diag([0.25, 0.75]), split)
    assert rho.purity() == pytest.approx(0.625)


def _random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return g + g.conj().T


@pytest.mark.parametrize("n", [1, 2, HERM_BLOCK - 1, HERM_BLOCK, HERM_BLOCK + 1, 300, 1024])
@pytest.mark.parametrize("triangle", ["upper", "lower"])
def test_hermiticity_drift_matches_full_matrix_expression(n, triangle):
    """The blocked maximum equals max |a - a^dag| wherever the perturbation sits."""
    rng = np.random.default_rng(n)
    a = _random_hermitian(rng, n)
    assert hermiticity_drift(a) == np.max(np.abs(a - a.conj().T))
    r, c = (n - 1, 0) if triangle == "lower" else (0, n - 1)  # the far corner: the last row block
    a[r, c] += 3e-9 + 2e-9j  # on the diagonal when n = 1
    assert hermiticity_drift(a) == np.max(np.abs(a - a.conj().T)) > 1e-9
    r, c = (n // 2, n // 3) if triangle == "lower" else (n // 3, n // 2)
    a[r, c] += 1e-6j
    assert hermiticity_drift(a) == np.max(np.abs(a - a.conj().T)) > 5e-7


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), (299, 299), (299, 5)])
def test_hermiticity_drift_carries_nan(where):
    a = _random_hermitian(np.random.default_rng(1), 300)
    a[where] = np.nan
    assert np.isnan(hermiticity_drift(a))


def _state_with_min_eigenvalue(rng, n, lo):
    """A hermitian unit-trace matrix of dimension n whose smallest eigenvalue is lo."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    rest = rng.uniform(0.5, 1.0, size=n - 1)
    evals = np.concatenate(([lo], rest * (1.0 - lo) / rest.sum()))
    a = (q * evals) @ q.conj().T
    a = 0.5 * (a + a.conj().T)
    return a / np.trace(a).real


@pytest.mark.parametrize("n", [2, 64, 300])
@pytest.mark.parametrize("lo", [0.0, -3e-11, -8e-11, -2e-10, -1e-6])
def test_positivity_decision_matches_eigvalsh_rule(n, lo):
    """Accepted exactly when eigvalsh's smallest eigenvalue is not below EIG_FLOOR."""
    a = _state_with_min_eigenvalue(np.random.default_rng([n, 7]), n, lo)
    rejected = np.linalg.eigvalsh(a)[0] < EIG_FLOOR
    assert rejected == (lo < EIG_FLOOR)  # the construction is far from the floor's rounding
    if rejected:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(a, SubsystemSplit((n,)))
    else:
        DensityMatrix(a, SubsystemSplit((n,)))


def test_rank_one_states_are_accepted_at_dimension_1024():
    rng = np.random.default_rng(9)
    for _ in range(3):
        rho = density_of(random_state(rng, SubsystemSplit((2,) * 10)))
        assert rho.dim == 1024


@pytest.mark.parametrize("lo", [0.0, -1e-6])
def test_construction_leaves_the_input_byte_identical(lo):
    a = _state_with_min_eigenvalue(np.random.default_rng(4), 64, lo)
    before = a.tobytes()
    try:
        DensityMatrix(a, SubsystemSplit((64,)))
    except ValueError:
        assert lo < EIG_FLOOR
    assert a.tobytes() == before


def test_read_only_input_is_accepted():
    a = _state_with_min_eigenvalue(np.random.default_rng(5), 64, 0.0)
    a.flags.writeable = False
    assert DensityMatrix(a, SubsystemSplit((64,))).dim == 64
    g = np.full((3, 3), 0.5, dtype=complex)
    np.fill_diagonal(g, 1.0)
    g.flags.writeable = False
    assert check_gram(g) is g
    bad = np.diag([1.2, -0.2]).astype(complex)
    bad.flags.writeable = False
    with pytest.raises(ValueError, match="negative eigenvalue"):
        DensityMatrix(bad, SubsystemSplit((2,)))


def test_rejection_names_the_eigenvalue():
    with pytest.raises(ValueError, match="negative eigenvalue") as err:
        DensityMatrix(np.diag([1.2, -0.2]), SubsystemSplit((2,)))
    assert float(str(err.value).split()[-1]) == pytest.approx(-0.2)
    g = np.full((3, 3), -0.9, dtype=complex)
    np.fill_diagonal(g, 1.0)
    with pytest.raises(ValueError, match="positive semidefinite: negative eigenvalue") as err:
        check_gram(g)
    assert float(str(err.value).split()[-1]) == pytest.approx(-0.8)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("entries", [
    [[np.nan, 0.0], [0.0, 1.0]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[0.5, np.inf], [np.inf, 0.5]],
    [[np.inf, 0.0], [0.0, 1.0]],
])
def test_non_finite_entries_are_rejected(entries):
    split = SubsystemSplit((2,))
    with pytest.raises(ValueError):
        DensityMatrix(np.array(entries), split)
    with pytest.raises(ValueError):
        Observable(np.array(entries), split)
    with pytest.raises(ValueError):
        check_gram(np.array(entries))
    with pytest.raises(ValueError):
        StateVector(np.array(entries[0]), split)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_state_vector_rejects_nan_amplitude():
    with pytest.raises(ValueError, match="state not normalized"):
        StateVector(np.array([np.nan, 1.0]), SubsystemSplit((2,)))
    check_unit(np.array([0.6, 0.8]), "unit")
    with pytest.raises(ValueError, match="v not normalized"):
        check_unit(np.array([0.6, 0.8 + 2e-12]), "v")


def test_basis_state_and_tensor():
    a = basis_state(0, SubsystemSplit((2,)))
    b = basis_state(1, SubsystemSplit((3,)))
    ab = tensor_product(a, b)
    assert ab.split.dims == (2, 3)
    assert ab.amplitudes[1] == 1.0


def test_expectation_matches_eigendecomposition():
    rng = np.random.default_rng(5)
    split = SubsystemSplit((3,))
    rho = random_density(rng, split)
    obs = random_observable(rng, split)
    ev = float(np.real(np.trace(obs.entries @ rho.entries)))
    assert expectation(obs, rho) == pytest.approx(ev, abs=1e-12)
    with pytest.raises(ValueError):
        expectation(random_observable(rng, SubsystemSplit((2,))), rho)


def test_partial_trace_validation():
    rng = np.random.default_rng(0)
    rho = random_density(rng, SubsystemSplit((2, 2)))
    with pytest.raises(ValueError):
        partial_trace(rho, ())
    with pytest.raises(ValueError):
        partial_trace(rho, (2,))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pool=st.integers(0, len(DIM_POOLS) - 1),
       keep_first=st.booleans())
def test_partial_trace_properties(seed, pool, keep_first):
    """Reduced states stay unit-trace, hermitian and positive."""
    rng = np.random.default_rng(seed)
    split = SubsystemSplit(DIM_POOLS[pool])
    rho = random_density(rng, split)
    keep = (0,) if keep_first else (split.n_factors - 1,)
    red = partial_trace(rho, keep)
    assert red.dim == split.dims[keep[0]]
    assert abs(np.trace(red.entries) - 1.0) < 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), pool=st.integers(0, len(DIM_POOLS) - 1))
def test_schmidt_probabilities_and_entropy_match(seed, pool):
    """Schmidt spectrum equals the reduced-state spectrum on both sides."""
    rng = np.random.default_rng(seed)
    split = SubsystemSplit(DIM_POOLS[pool])
    psi = random_state(rng, split)
    dec = schmidt(psi, (0,))
    assert abs(dec.probabilities.sum() - 1.0) < 1e-12
    assert np.all(np.diff(dec.probabilities) <= 1e-14)
    rho_loc = partial_trace(density_of(psi), (0,))
    ev = np.sort(np.linalg.eigvalsh(rho_loc.entries))[::-1][: len(dec.probabilities)]
    assert np.allclose(ev, dec.probabilities, atol=1e-10)


def test_schmidt_bell_state():
    split = SubsystemSplit((2, 2))
    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), split)
    dec = schmidt(bell, (0,))
    assert np.allclose(dec.probabilities, [0.5, 0.5])
    assert dec.degenerate
    assert entanglement_entropy(partial_trace(density_of(bell), (0,))) == pytest.approx(np.log(2))


def test_schmidt_product_state():
    a = basis_state(1, SubsystemSplit((2,)))
    b = StateVector(np.array([0.6, 0.8]), SubsystemSplit((2,)))
    psi = tensor_product(a, b)
    dec = schmidt(psi, (0,))
    assert len(dec.probabilities) == 1
    assert dec.probabilities[0] == pytest.approx(1.0, abs=1e-14)
    assert not dec.degenerate
    assert entanglement_entropy(partial_trace(density_of(psi), (0,))) == pytest.approx(0.0, abs=1e-12)


def test_schmidt_gauge_is_deterministic():
    rng = np.random.default_rng(11)
    psi = random_state(rng, SubsystemSplit((3, 4)))
    d1 = schmidt(psi, (0,))
    d2 = schmidt(psi, (0,))
    assert np.array_equal(d1.local_vectors, d2.local_vectors)
    for k in range(len(d1.probabilities)):
        col = d1.local_vectors[:, k]
        j = np.argmax(np.abs(col) > 1e-12)
        assert col[j].imag == pytest.approx(0.0, abs=1e-12)
        assert col[j].real > 0


def test_schmidt_reconstruction_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(10):
        psi = random_state(rng, SubsystemSplit((3, 5)))
        dec = schmidt(psi, (0,))
        assert np.allclose(schmidt_reconstruct(dec), psi.amplitudes, atol=1e-10)


def test_offdiagonal_coherence():
    split = SubsystemSplit((2,))
    rho = DensityMatrix(np.array([[0.5, 0.3], [0.3, 0.5]]), split)
    assert offdiagonal_coherence(rho) == pytest.approx(0.6)
    assert offdiagonal_coherence(DensityMatrix(np.diag([0.5, 0.5]), split)) == 0.0


def test_entropy_of_maximally_mixed():
    split = SubsystemSplit((4,))
    rho = DensityMatrix(np.eye(4) / 4.0, split)
    assert entanglement_entropy(rho) == pytest.approx(np.log(4))


@pytest.mark.parametrize("r", [200, 400])
def test_offdiagonal_coherence_of_tiny_offdiagonals(r):
    """Off-diagonals far below the diagonal's rounding are summed, not cancelled."""
    entries = np.full((3, 3), 0.9**r / 3.0)
    np.fill_diagonal(entries, 1.0 / 3.0)
    rho = DensityMatrix(entries, SubsystemSplit((3,)))
    assert offdiagonal_coherence(rho) == pytest.approx(2.0 * 0.9**r, rel=1e-12, abs=0.0)
