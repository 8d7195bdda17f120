"""Unit and property tests for the finite-dimensional kinematics layer."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from decolab import hilbert
from decolab.hilbert import (
    EIG_FLOOR, HERM_BLOCK, SubsystemSplit, StateVector, DensityMatrix, Observable,
    density_of, expectation, partial_trace, check_gram, check_unit, hermiticity_drift,
    schmidt, entanglement_entropy, offdiagonal_coherence, audit,
)
from decolab.localization import GridSpec, gaussian_packet, pure_density
from decolab.scenarios.twoslit import TwoSlitConfig, two_slit_run
from states import (
    basis_state, random_state, random_density, random_observable, state_with_min_eigenvalue, tensor_product,
    schmidt_reconstruct,
)
from test_acceptance import _partial_trace_oracle

DIM_POOLS = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4)]


def test_split_validation():
    s = SubsystemSplit((2, 3))
    assert s.dim == 6 and s.n_factors == 2
    assert s.concat(SubsystemSplit((4,))).dims == (2, 3, 4)
    assert s.select((1,)).dims == (3,)
    with pytest.raises(ValueError):
        SubsystemSplit(())
    with pytest.raises(ValueError):
        SubsystemSplit((2, 0))


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
    with pytest.raises(ValueError, match="exactly one"):
        DensityMatrix(np.diag([0.25, 0.75]), split, factor=np.diag([0.5, 0.75**0.5]))
    with pytest.raises(ValueError, match="exactly one"):
        DensityMatrix(None, split)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(None, split, factor=np.array([[0.6], [0.8 + 1e-9]]))  # |V|_F != 1
    for shape in [(2,), (1, 1), (2, 1, 1)]:  # not one row per basis state
        with pytest.raises(ValueError, match=r"factor must be a \(2, r\) matrix"):
            DensityMatrix(None, split, factor=np.full(shape, 2**-0.5))
    rho = DensityMatrix(None, split, factor=np.diag([0.5, 0.75**0.5]))
    assert rho.purity() == pytest.approx(0.625)
    assert np.max(np.abs(rho.entries - np.diag([0.25, 0.75]))) < 1e-15


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


@pytest.mark.parametrize("n", [2, 64, 300])
@pytest.mark.parametrize("lo", [0.0, -3e-11, -8e-11, -2e-10, -1e-6])
def test_positivity_decision_matches_eigvalsh_rule(n, lo):
    """Accepted exactly when eigvalsh's smallest eigenvalue is not below EIG_FLOOR."""
    a = state_with_min_eigenvalue(np.random.default_rng([n, 7]), n, lo)
    rejected = np.linalg.eigvalsh(a)[0] < EIG_FLOOR
    assert rejected == (lo < EIG_FLOOR)  # the construction is far from the floor's rounding
    if rejected:
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(a, SubsystemSplit((n,)))
    else:
        DensityMatrix(a, SubsystemSplit((n,)))


@pytest.fixture(scope="module")
def headline_state():
    """The grid benchmark's headline geometry: N = 512, 12 localization and kinetic steps from a pure state."""
    return two_slit_run(TwoSlitConfig(n_points=512, mass=10.0, slit_separation=2.0, packet_width=0.15,
                                      lam=1.0, t_final=0.12))[1]


def test_rank_deficient_states_are_certified_without_eigvalsh(monkeypatch, headline_state):
    """Grid states are certified on their support alone, fewer than N rows; a full-support state is factored
    whole, in place, with no copy of its entries."""
    grid = GridSpec(512, -4.0, 4.0)
    psi = gaussian_packet(grid, -1.0, 0.15) + gaussian_packet(grid, 1.0, 0.15)
    pure_grid = pure_density(grid, psi / np.sqrt(2.0), 10.0, 1.0)  # rank one; the packets barely overlap
    split = SubsystemSplit((2,) * 9)
    pure = density_of(random_state(np.random.default_rng(3), split))
    def refuse(*args, **kwargs):
        raise AssertionError("eigvalsh called where the certificate should hold")
    factored, cholesky = [], np.linalg.cholesky
    monkeypatch.setattr(hilbert.np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(hilbert.np.linalg, "cholesky", lambda x: factored.append(x) or cholesky(x))
    for got in (pure_grid.audit(), headline_state.audit(), audit(pure.entries)):
        assert got["min_eigenvalue"] is None
        assert got["min_eigenvalue_bound"] == EIG_FLOOR
    assert [len(x) < 512 for x in factored] == [True, True, False]
    assert factored[2] is pure.entries
    DensityMatrix(pure.entries, split)  # the constructor's check takes the same certificate


def _state_with_tail(seed, n_kept, coupling, diagonal, lo, planted_in_tail, weight):
    """a / weight for a hermitian a: a kept block, a unit-trace state whose smallest eigenvalue is lo (0 if the
    eigenvalue is planted in the tail), and a tail row per coupling exponent e, coupled to the block's lowest
    eigenvector by 10^e, with diagonal +-10^d for its diagonal exponent d and tail-tail entries of 10^e;
    in the tail, lo sits on the two first rows as the pair [[0, -lo], [-lo, 0]].  Rows in random order."""
    rng = np.random.default_rng(seed)
    block = state_with_min_eigenvalue(rng, n_kept, 0.0 if planted_in_tail else lo)
    lowest = np.linalg.eigh(block)[1][:, 0]
    s = 10.0 ** np.array(coupling)
    n_tail = len(s)
    g = rng.normal(size=(n_tail, n_tail)) + 1j * rng.normal(size=(n_tail, n_tail))
    tail = np.sqrt(np.outer(s, s)) * (g + g.conj().T) / 4.0
    tail[np.diag_indices(n_tail)] = rng.choice([-1.0, 1.0], n_tail) * 10.0 ** np.array(diagonal)
    if planted_in_tail and n_tail > 1:
        tail[0, 1] -= lo
        tail[1, 0] -= lo
    phases = np.exp(2j * np.pi * rng.uniform(size=n_tail))
    a = np.block([[block, np.outer(lowest, (s * phases).conj())], [np.outer(s * phases, lowest.conj()), tail]])
    order = rng.permutation(len(a))
    return a[np.ix_(order, order)] / weight


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_kept=st.integers(2, 8),
       tail=st.lists(st.tuples(st.floats(-15.0, -10.0), st.floats(-15.0, -10.0)), min_size=1, max_size=8),
       lo=st.sampled_from([0.0, -2e-11, -6e-11, -2e-10]), planted_in_tail=st.booleans(),
       weight=st.sampled_from([1.0, 0.01]))
@example(seed=1, n_kept=4, tail=[(-10.0, -10.0)], lo=-2e-11, planted_in_tail=False, weight=1.0)
@example(seed=2, n_kept=4, tail=[(-10.0, -15.0)], lo=-2e-11, planted_in_tail=False, weight=0.01)
def test_certificate_on_the_kept_rows_is_sound(seed, n_kept, tail, lo, planted_in_tail, weight):
    """Tail rows of masses 1e-30 to 1e-20 around a kept block, a negative eigenvalue planted in either: the
    certificate holds only where eigvalsh finds nothing below EIG_FLOOR, always holds above EIG_FLOOR/4 (the
    block's shift, EIG_FLOOR/2, clears it), and otherwise the audit reports eigvalsh's eigenvalue; the input
    is left byte-identical."""
    coupling, diagonal = zip(*tail)
    a = _state_with_tail(seed, n_kept, coupling, diagonal, lo, planted_in_tail, weight)
    before = a.tobytes()
    got = audit(a, weight, hermitian=True)
    assert a.tobytes() == before
    lowest = np.linalg.eigvalsh(a)[0] * weight
    if got["min_eigenvalue"] is None:
        assert lowest >= EIG_FLOOR
    else:
        assert got["min_eigenvalue"] == pytest.approx(lowest, rel=1e-9)
    if lowest >= EIG_FLOOR / 4.0:
        assert got["min_eigenvalue"] is None


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_entry_in_a_trimmable_row_fails(bad):
    """Rows 32-63 are empty and would be trimmed; a NaN or inf coupling one of them to the state is kept, and
    neither the constructor nor the audit certifies the matrix."""
    a = np.zeros((64, 64), complex)
    a[:32, :32] = state_with_min_eigenvalue(np.random.default_rng(12), 32, 0.0)
    assert audit(a)["min_eigenvalue"] is None
    a[40, 3] = a[3, 40] = bad
    with pytest.raises(ValueError):
        DensityMatrix(a, SubsystemSplit((64,)))
    try:
        lo = audit(a, hermitian=True)["min_eigenvalue"]
    except np.linalg.LinAlgError:  # eigvalsh of a matrix with a NaN or inf
        lo = float("nan")
    assert lo is not None and not lo >= EIG_FLOOR


def test_certificate_peaks_at_or_below_a_whole_factorization(headline_state):
    """tracemalloc peaks stay at or below those of factoring the whole matrix: 8,398,040 B for the headline grid
    audit (the decoded rho and the factor), 16,794,744 B for a full-support audit at n = 1024 (the factor
    beside the given a), both rounded up to 0.1 MB.  The grid's tail rows are never copied; a full-support
    a is shifted in place, not copied."""
    a = state_with_min_eigenvalue(np.random.default_rng(13), 1024, 0.0)
    for call, bound in ((headline_state.audit, 8.4e6), (lambda: audit(a), 16.8e6)):
        call()  # warm
        tracemalloc.start()
        try:
            got = call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got["min_eigenvalue"] is None
        assert peak <= bound


@pytest.mark.parametrize("weight", [1.0, 0.01])
@pytest.mark.parametrize("lo", [0.0, -1e-11, -1e-9, -1e-7])
def test_audit_certifies_or_measures_as_eigvalsh_decides(lo, weight):
    """The certificate holds exactly where eigvalsh finds nothing below EIG_FLOOR; otherwise the audit
    reports eigvalsh's eigenvalue of rho * weight."""
    a = state_with_min_eigenvalue(np.random.default_rng([64, 11]), 64, lo) / weight
    before = a.tobytes()
    got = audit(a, weight)
    assert a.tobytes() == before
    lowest = np.linalg.eigvalsh(a)[0] * weight
    assert lowest == pytest.approx(lo, abs=1e-14)
    if lowest >= EIG_FLOOR:
        assert got["min_eigenvalue"] is None and got["min_eigenvalue_bound"] == EIG_FLOOR
    else:
        assert got["min_eigenvalue"] == got["min_eigenvalue_bound"] == pytest.approx(lowest, rel=1e-9)


def test_rank_one_states_are_accepted_at_dimension_1024():
    rng = np.random.default_rng(9)
    for _ in range(3):
        rho = density_of(random_state(rng, SubsystemSplit((2,) * 10)))
        assert rho.dim == 1024


def _keep_subsets(n):
    return [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 2**n)]


@pytest.mark.parametrize("dims", [(2, 3, 2), (2,) * 10])
def test_factored_state_matches_entries_path(dims):
    """density_of and partial_trace of a factored state agree with the entries path on every keep subset."""
    split = SubsystemSplit(dims)
    psi = random_state(np.random.default_rng(len(dims)), split)
    rho = density_of(psi)
    assert rho.factor.shape == (split.dim, 1)
    plain = DensityMatrix(np.outer(psi.amplitudes, psi.amplitudes.conj()), split)
    assert plain.factor is None
    assert np.max(np.abs(rho.entries - plain.entries)) < 1e-14
    oracle_keeps = _keep_subsets(len(dims)) if split.dim <= 12 else [(0,), (1, 4, 9)]
    for keep in _keep_subsets(len(dims)):
        red = partial_trace(rho, keep)
        d_keep = red.dim
        assert red.factor.shape == (d_keep, split.dim // d_keep)
        assert red.split.dims == tuple(dims[k] for k in keep)
        assert np.max(np.abs(red.entries - partial_trace(plain, keep).entries)) < 1e-14
        if keep in oracle_keeps:
            assert np.max(np.abs(red.entries - _partial_trace_oracle(plain.entries, dims, keep))) < 1e-14
    twice = partial_trace(partial_trace(rho, (0, 1)), (1,))  # a factored state of rank above 1
    assert np.max(np.abs(twice.entries - partial_trace(plain, (1,)).entries)) < 1e-14


def test_factored_trace_builds_no_entries():
    """partial_trace of density_of keeps to the factor: at n = 2^12 no n x n array (256 MiB) is built."""
    psi = random_state(np.random.default_rng(12), SubsystemSplit((2,) * 12))
    tracemalloc.start()
    try:
        red = partial_trace(density_of(psi), (0, 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert red.factor.shape == (4, 2**10)


def test_factored_entries_are_built_checked_and_cached_on_first_read(monkeypatch):
    calls = []
    def counting(a):
        calls.append(a.shape)
        return hermiticity_drift(a)
    monkeypatch.setattr(hilbert, "hermiticity_drift", counting)
    rho = partial_trace(density_of(random_state(np.random.default_rng(6), SubsystemSplit((2, 3, 4)))), (0, 2))
    assert not calls
    first = rho.entries
    assert calls == [(8, 8)]
    assert first.tobytes() == (rho.factor @ rho.factor.conj().T).tobytes()
    assert rho.entries is first
    assert calls == [(8, 8)]


def test_bad_factors_are_rejected_from_the_factor_alone(monkeypatch):
    """A factor that is not finite, off unit |V|_F or not (split.dim, r) fails before any entries exist."""
    def refuse(a):
        raise AssertionError("entries read while checking a factor")
    monkeypatch.setattr(hilbert, "hermiticity_drift", refuse)
    split = SubsystemSplit((2,))
    good = np.array([[0.6], [0.8j]])
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
        v = good.copy()
        v[1, 0] = bad
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(None, split, factor=v)
    with pytest.raises(ValueError, match="trace"):
        DensityMatrix(None, split, factor=good * 1.01)
    with pytest.raises(ValueError, match=r"factor must be a \(2, r\) matrix, not \(1, 2\)"):
        DensityMatrix(None, split, factor=good.T)
    assert DensityMatrix(None, split, factor=good).factor.shape == (2, 1)


@pytest.mark.parametrize("keep", [(0, 2), (1,), (0, 1, 2)])  # V of 8 x 3, 3 x 8 and 24 x 1
def test_factored_reads_answer_from_the_factor(monkeypatch, keep):
    """purity, entanglement_entropy and expectation of a factored state match the entries path and never
    build its entries, whichever of V^dag V and V V^dag is the smaller."""
    rng = np.random.default_rng(7)
    rho = partial_trace(density_of(random_state(rng, SubsystemSplit((2, 3, 4)))), keep)
    plain = DensityMatrix(rho.factor @ rho.factor.conj().T, rho.split)
    obs = random_observable(rng, rho.split)
    expected = (plain.purity(), entanglement_entropy(plain), expectation(obs, plain))

    def refuse(a):
        raise AssertionError("entries built for a factored read")
    monkeypatch.setattr(hilbert, "hermiticity_drift", refuse)
    got = (rho.purity(), entanglement_entropy(rho), expectation(obs, rho))
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("lo", [0.0, -1e-6])
def test_construction_leaves_the_input_byte_identical(lo):
    a = state_with_min_eigenvalue(np.random.default_rng(4), 64, lo)
    before = a.tobytes()
    try:
        DensityMatrix(a, SubsystemSplit((64,)))
    except ValueError:
        assert lo < EIG_FLOOR
    assert a.tobytes() == before


def test_read_only_input_is_accepted():
    a = state_with_min_eigenvalue(np.random.default_rng(5), 64, 0.0)
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
        DensityMatrix(None, split, factor=np.array(entries))
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


def test_offdiagonal_coherence_returns_a_float_for_one_matrix():
    rho = DensityMatrix(np.array([[0.5, 0.3j], [-0.3j, 0.5]]), SubsystemSplit((2,)))
    assert type(offdiagonal_coherence(rho)) is float
    assert type(offdiagonal_coherence(rho.entries)) is float


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
@pytest.mark.parametrize("n", [2, 3, 12])
def test_offdiagonal_coherence_of_a_stack_equals_each_matrix(shape, n):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=shape + (n, n)) + 1j * rng.normal(size=shape + (n, n))
    before = stack.copy()
    sums = offdiagonal_coherence(stack)
    assert np.array_equal(stack, before)  # the input is left unchanged
    assert sums.shape == shape and sums.dtype == np.float64
    for index in np.ndindex(shape):
        assert sums[index] == offdiagonal_coherence(stack[index])


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
    sums = offdiagonal_coherence(np.stack([entries] * 3))  # and so is each matrix of a stack
    assert np.array_equal(sums, np.full(3, offdiagonal_coherence(rho)))
