"""Tests for premeasurement, records and erasure."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from decolab.hilbert import (
    SubsystemSplit, StateVector, density_of, partial_trace, random_state,
)
from decolab.premeasure import (
    PointerCoupling, ScattererChain,
    rotation_between, ideal_premeasure, decoherence_factor, erase,
    pointers_from_gram,
)


def _random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6))
def test_rotation_between_properties(seed, d):
    rng = np.random.default_rng(seed)
    a, b = _random_unit(rng, d), _random_unit(rng, d)
    u = rotation_between(a, b)
    assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)
    assert np.allclose(u @ a, b, atol=1e-12)


def test_rotation_between_parallel_vectors():
    a = np.array([1.0, 0.0])
    u = rotation_between(a, 1j * a)
    assert np.allclose(u @ a, 1j * a, atol=1e-14)
    assert np.allclose(u @ u.conj().T, np.eye(2), atol=1e-14)


def test_pointer_coupling_validation():
    with pytest.raises(ValueError):
        PointerCoupling(np.array([1.0, 1.0]), np.eye(2))  # ready not normalized
    with pytest.raises(ValueError):
        PointerCoupling(np.array([1.0, 0.0]), np.eye(3))  # dimension mismatch


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_pointer_coupling_rejects_nan_state():
    with pytest.raises(ValueError, match="environment state not normalized"):
        PointerCoupling(np.array([1.0, 0.0]), np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_premeasure_creates_perfect_record():
    """Orthogonal pointers: reduced system state loses all coherence."""
    split = SubsystemSplit((2,), ("system",))
    psi = StateVector(np.array([0.6, 0.8]), split)
    coupling = PointerCoupling(np.array([1.0, 0.0]), np.eye(2))
    joint = ideal_premeasure(psi, coupling)
    red = partial_trace(density_of(joint), (0,))
    assert np.allclose(red.entries, np.diag([0.36, 0.64]), atol=1e-12)


def test_premeasure_partial_record_scales_coherence():
    """Pointer overlap 0.6 multiplies the off-diagonal by exactly 0.6."""
    split = SubsystemSplit((2,))
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), split)
    pointers = pointers_from_gram(np.array([[1.0, 0.6], [0.6, 1.0]]))
    coupling = PointerCoupling(np.array([1.0, 0.0]), pointers)
    joint = ideal_premeasure(psi, coupling)
    red = partial_trace(density_of(joint), (0,))
    assert abs(red.entries[0, 1]) == pytest.approx(0.3, abs=1e-12)


def test_sequential_records_multiply():
    """k records with overlaps g_j damp rho_mn by the product of the g_j."""
    rng = np.random.default_rng(7)
    overlaps = [0.9, 0.7, 0.5]
    split = SubsystemSplit((2,))
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), split)
    state = psi
    couplings = []
    for g in overlaps:
        pointers = pointers_from_gram(np.array([[1.0, g], [g, 1.0]]))
        c = PointerCoupling(np.array([1.0, 0.0]), pointers)
        couplings.append(c)
        state = ideal_premeasure(state, c)
    red = partial_trace(density_of(state), (0,))
    chain = ScattererChain([np.array([[1.0, g], [g, 1.0]]) for g in overlaps])
    for k in range(4):
        assert decoherence_factor(chain, 0, 1, k) == pytest.approx(np.prod(overlaps[:k]))
    assert abs(red.entries[0, 1]) == pytest.approx(0.5 * np.prod(overlaps), abs=1e-12)


def test_decoherence_factor_bounds():
    chain = ScattererChain([np.eye(2)])
    with pytest.raises(IndexError):
        decoherence_factor(chain, 0, 1, 2)
    with pytest.raises(IndexError):
        decoherence_factor(chain, 0, 5, 1)


def test_scatterer_chain_validation():
    with pytest.raises(ValueError):
        ScattererChain([np.array([[1.0, 0.5], [0.5, 2.0]])])  # diagonal not 1
    with pytest.raises(ValueError):
        ScattererChain([np.array([[1.0, 2.0], [2.0, 1.0]])])  # not PSD


def test_erase_all_restores_initial_product():
    rng = np.random.default_rng(21)
    split = SubsystemSplit((3,))
    psi = random_state(rng, split)
    couplings = [
        PointerCoupling(_random_unit(rng, 3),
                        np.array([_random_unit(rng, 3) for _ in range(3)]))
        for _ in range(2)
    ]
    joint = psi
    for c in couplings:
        joint = ideal_premeasure(joint, c)
    restored = erase(joint, couplings, subset=(0, 1))
    expected = psi.amplitudes
    for c in couplings:
        expected = np.kron(expected, c.env_ready)
    assert np.allclose(restored.amplitudes, expected, atol=1e-12)


def test_erase_subset_leaves_complement_factor():
    g1, g2 = 0.8, 0.3
    split = SubsystemSplit((2,))
    psi = StateVector(np.array([1.0, 1.0]) / np.sqrt(2), split)
    couplings = []
    joint = psi
    for g in (g1, g2):
        c = PointerCoupling(np.array([1.0, 0.0]),
                            pointers_from_gram(np.array([[1.0, g], [g, 1.0]])))
        couplings.append(c)
        joint = ideal_premeasure(joint, c)
    partial = erase(joint, couplings, subset=(0,))
    red = partial_trace(density_of(partial), (0,))
    assert abs(red.entries[0, 1]) == pytest.approx(0.5 * g2, abs=1e-12)


def test_erase_validation():
    split = SubsystemSplit((2,))
    psi = StateVector(np.array([1.0, 0.0]), split)
    c = PointerCoupling(np.array([1.0, 0.0]), np.eye(2))
    joint = ideal_premeasure(psi, c)
    with pytest.raises(ValueError):
        erase(joint, [c, c], subset=(0,))  # coupling count mismatch
    with pytest.raises(ValueError):
        erase(joint, [c], subset=(3,))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 5))
def test_pointers_from_gram_realizes_gram(seed, d):
    rng = np.random.default_rng(seed)
    v = np.array([_random_unit(rng, d) for _ in range(d)])
    gram = v.conj() @ v.T  # G[m, n] = <v_m|v_n>
    states = pointers_from_gram(gram)
    realized = states.conj() @ states.T
    assert np.allclose(realized, gram, atol=1e-10)
