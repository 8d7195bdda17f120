"""Tests for the grid master-equation solver and its diagnostics."""
import math

import numpy as np
import pytest

from decolab.localization import (
    GridSpec, GridDensityMatrix, GaussianMoments, ObservableTrace,
    gaussian_packet, pure_density, localization_step, kinetic_half_step,
    moments_of, coherence_length, evolve, record_steps, OBSERVABLES, _record,
)
from decolab import localization
from decolab.errors import InvariantError
from oracles import moment_ode_oracle

GRID = GridSpec(128, -8.0, 8.0)


def _gaussian_state(mass=1.0, lam=0.0, sigma=0.5, momentum=0.0):
    psi = gaussian_packet(GRID, 0.0, sigma, momentum)
    return pure_density(GRID, psi, mass, lam)


def test_record_steps_are_integers_ending_at_the_last_step():
    assert record_steps(10, 3).dtype.kind == "i" and record_steps(10, 3).tolist() == [0, 3, 6, 9, 10]
    assert record_steps(9, 3).dtype.kind == "i" and record_steps(9, 3).tolist() == [0, 3, 6, 9]


def test_grid_spec_validation():
    assert GridSpec(100, -1.0, 1.0).n_points == 100  # any size from 16 up, not only powers of two
    with pytest.raises(ValueError):
        GridSpec(8, -1.0, 1.0)  # too small
    with pytest.raises(ValueError):
        GridSpec(64, 1.0, -1.0)
    g = GridSpec(64, -2.0, 2.0)
    assert g.dx == pytest.approx(4.0 / 64)
    assert len(g.x) == 64 and len(g.p) == 64


def test_gaussian_packet_is_normalized():
    psi = gaussian_packet(GRID, 0.3, 0.4, momentum=1.5)
    assert np.sum(np.abs(psi) ** 2) * GRID.dx == pytest.approx(1.0, abs=1e-12)


def test_density_matrix_invariants_checked():
    psi = gaussian_packet(GRID, 0.0, 0.5)
    rho = np.outer(psi, psi.conj())
    with pytest.raises(ValueError):
        GridDensityMatrix(GRID, 2.0 * rho, 1.0, 0.0)  # trace 2
    with pytest.raises(ValueError):
        GridDensityMatrix(GRID, rho, -1.0, 0.0)  # bad mass
    with pytest.raises(ValueError):
        GridDensityMatrix(GRID, rho, 1.0, -0.5)  # bad lam


def test_trace_guard_tells_a_callers_state_from_a_solver_drift():
    """A caller's rho off unit trace is a ValueError; a state the solver made off it is an InvariantError (exit 4)."""
    s = _gaussian_state()
    with pytest.raises(ValueError, match="trace"):
        GridDensityMatrix(GRID, 1.001 * s.rho, 1.0, 0.0)
    with pytest.raises(InvariantError, match="trace"):
        localization_step(s, 0.01, kernel=np.full((128, 128), 1.001))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("where", [(0, 0), (3, 90), (127, 127)])
def test_non_finite_grid_entries_are_rejected(value, where):
    psi = gaussian_packet(GRID, 0.0, 0.5)
    rho = np.outer(psi, psi.conj())
    rho[where] = value
    with pytest.raises(ValueError):
        GridDensityMatrix(GRID, rho, 1.0, 0.0)


def _caller_encoding(psi):
    """M of outer(psi, psi^*) as a caller's rho is encoded: (Re + Re^T)/2 + (Im - Im^T)/2."""
    return GridDensityMatrix(GRID, np.outer(psi, psi.conj()), 1.0, 0.0).m


def test_pure_state_builds_m_from_psi_without_reading_hermiticity(monkeypatch):
    psi = gaussian_packet(GRID, 0.4, 0.5, momentum=1.7)
    expected = _caller_encoding(psi)

    def refuse(a):
        raise AssertionError("hermiticity read for a pure state")
    monkeypatch.setattr(localization, "hermiticity_drift", refuse)
    s = pure_density(GRID, psi, 1.0, 0.0)
    assert s.psi is not None and s._m is None  # checked from psi alone, M not yet built
    assert np.max(np.abs(s.m - expected)) <= 1e-15
    assert s.m is s.m
    assert s.trace() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", ["nan", "inf", "norm", "shape"])
def test_pure_state_rejects_a_bad_psi(bad):
    psi = gaussian_packet(GRID, 0.0, 0.5)
    if bad == "nan":
        psi[5] = np.nan
    elif bad == "inf":
        psi[64] = np.inf
    elif bad == "norm":
        psi = psi * 1.001
    else:
        psi = psi[:-1]
    with pytest.raises(ValueError):
        pure_density(GRID, psi, 1.0, 0.0)


def test_pure_state_comes_without_rho_or_m():
    """Given psi beside a rho or an M, neither may silently win."""
    psi = gaussian_packet(GRID, 0.0, 0.5)
    rho = np.outer(psi, psi.conj())
    with pytest.raises(ValueError, match="without rho or M"):
        GridDensityMatrix(GRID, rho, 1.0, 0.0, psi=psi)
    with pytest.raises(ValueError, match="without rho or M"):
        GridDensityMatrix(GRID, None, 1.0, 0.0, encoded=rho.real, psi=psi)


@pytest.mark.parametrize("mass", [0.7, math.inf])
def test_pure_kinetic_half_step_matches_the_dense_kick_and_stays_pure(mass):
    psi = gaussian_packet(GRID, -0.5, 0.4, momentum=2.5)
    out = kinetic_half_step(pure_density(GRID, psi, mass, 0.3), 0.2)
    dense = kinetic_half_step(GridDensityMatrix(GRID, np.outer(psi, psi.conj()), mass, 0.3), 0.2)
    assert out.psi is not None and out.psi.shape == psi.shape
    assert np.max(np.abs(out.m - dense.m)) <= 1e-13
    assert out.trace() == pytest.approx(1.0, abs=1e-13)


def test_localization_step_writes_into_out():
    s = _gaussian_state(mass=math.inf, lam=2.0)
    expected = localization_step(s, 0.125).m
    m = s.m.copy()
    out = localization_step(_gaussian_state(mass=math.inf, lam=2.0), 0.125, out=m)
    assert out.m is m and np.array_equal(m, expected)


def test_localization_step_into_the_states_own_m_changes_that_state_too():
    """out=s.m rewrites s: a pure s drops its psi and any cached rho, so every later read of s sees the new M."""
    psi = gaussian_packet(GRID, 0.3, 0.4, momentum=1.5)
    expected = localization_step(pure_density(GRID, psi, 1.0, 2.0), 0.125)
    s = pure_density(GRID, psi, 1.0, 2.0)
    assert s.rho is not None  # cache the rho of the pure state
    out = localization_step(s, 0.125, out=s.m)
    assert out.m is s.m and s.psi is None
    assert np.array_equal(s.m, expected.m) and np.array_equal(s.rho, expected.rho)
    assert s.trace() == expected.trace()
    assert np.array_equal(kinetic_half_step(s, 0.2).m, kinetic_half_step(expected, 0.2).m)


def test_a_pure_state_owns_a_copy_of_psi():
    psi = gaussian_packet(GRID, 0.0, 0.5)
    s = pure_density(GRID, psi, 1.0, 0.0)
    psi[:] = np.nan
    assert np.all(np.isfinite(s.psi)) and np.all(np.isfinite(s.m))


def test_localization_step_is_exact_gaussian_damping():
    s = _gaussian_state(mass=math.inf, lam=2.0)
    dt = 0.125
    out = localization_step(s, dt)
    x = GRID.x
    expected = s.rho * np.exp(-2.0 * dt * (x[:, None] - x[None, :]) ** 2)
    assert np.allclose(out.rho, expected, atol=1e-15)
    assert out.trace() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n_points", [129, 512])
def test_localization_kernel_is_a_read_only_toeplitz_view(n_points):
    """The kernel is 2N - 1 values seen as N x N: exp(-lam dt (x_j - x_k)^2) within 1e-14 relative."""
    grid = GridSpec(n_points, -4.0, 4.0)
    kernel = localization._localization_kernel(grid, 1.3, 0.05)
    x = grid.x
    dense = np.exp(-1.3 * 0.05 * (x[:, None] - x[None, :]) ** 2)
    assert kernel.shape == (n_points, n_points) and kernel.strides == (-8, 8)  # one value per j - k
    np.testing.assert_allclose(kernel, dense, rtol=1e-14, atol=0)
    assert not kernel.flags.writeable
    with pytest.raises(ValueError):
        kernel[0, 1] = 0.0


def test_localization_step_with_and_without_a_built_kernel():
    s = _gaussian_state(mass=math.inf, lam=2.0)
    built = localization._localization_kernel(GRID, 2.0, 0.125)
    assert np.array_equal(localization_step(s, 0.125).m, localization_step(s, 0.125, built).m)
    dense = np.ascontiguousarray(built)
    assert np.array_equal(localization_step(s, 0.125).m, localization_step(s, 0.125, dense).m)


def test_kinetic_step_preserves_purity_and_moves_packet():
    p0 = 2.0
    s = _gaussian_state(mass=1.0, sigma=0.5, momentum=p0)
    dt = 0.2
    out = kinetic_half_step(s, dt)  # free evolution over dt/2
    m = moments_of(out)
    assert m.mean_p == pytest.approx(p0, abs=1e-9)
    assert m.mean_x == pytest.approx(p0 * dt / 2.0, abs=1e-9)
    purity = float(np.real(np.trace(out.rho @ out.rho))) * GRID.dx**2
    assert purity == pytest.approx(1.0, abs=1e-10)


def test_kinetic_step_is_identity_for_infinite_mass():
    s = _gaussian_state(mass=math.inf)
    out = kinetic_half_step(s, 0.3)
    assert np.array_equal(out.rho, s.rho)


def test_moments_of_gaussian():
    sigma = 0.6
    m = moments_of(_gaussian_state(sigma=sigma, momentum=1.0))
    assert m.var_xx == pytest.approx(sigma**2, rel=1e-8)
    assert m.var_pp == pytest.approx(1.0 / (4.0 * sigma**2), rel=1e-6)
    assert m.cov_xp == pytest.approx(0.0, abs=1e-9)
    assert m.mean_p == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("n", [64, 65])
def test_moments_of_matches_dense_operator_expectations(n):
    """<x>, <p>, <x^2>, Re<xp>, <p^2> as traces against dense X and P = F^-1 diag(p) F, on a mixed
    state with complex entries, so that the antisymmetric part of M counts."""
    grid = GridSpec(n, -3.0, 3.0)
    rng = np.random.default_rng(n)
    v = (rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))) * np.exp(-grid.x**2)[:, None]
    rho = v @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T) / (np.trace(rho).real * grid.dx)
    x = np.diag(grid.x)
    p = np.fft.ifft(grid.p[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    ev = lambda op: np.trace(op @ rho).real * grid.dx  # noqa: E731
    m = moments_of(GridDensityMatrix(grid, rho, 1.0, 0.0))
    assert m.mean_x == pytest.approx(ev(x), rel=1e-12)
    assert m.mean_p == pytest.approx(ev(p), rel=1e-12)
    assert m.var_xx == pytest.approx(ev(x @ x) - ev(x) ** 2, rel=1e-12)
    assert m.cov_xp == pytest.approx(ev(x @ p) - ev(x) * ev(p), rel=1e-12)
    assert m.var_pp == pytest.approx(ev(p @ p) - ev(p) ** 2, rel=1e-12)


def test_records_from_the_encoding_match_the_complex_state():
    grid = GridSpec(64, -3.0, 3.0)
    rng = np.random.default_rng(3)
    v = (rng.normal(size=(64, 3)) + 1j * rng.normal(size=(64, 3))) * np.exp(-grid.x**2)[:, None]
    rho = v @ v.conj().T
    rho = 0.5 * (rho + rho.conj().T) / (np.trace(rho).real * grid.dx)
    rec = _record(GridDensityMatrix(grid, rho, 1.0, 0.0), OBSERVABLES)
    off = np.abs(rho)
    np.fill_diagonal(off, 0.0)
    assert rec["offdiag_peak"] == pytest.approx(off.max(), rel=1e-13)
    assert rec["purity"] == pytest.approx(np.sum(np.abs(rho) ** 2) * grid.dx**2, rel=1e-13)
    assert rec["trace"] == pytest.approx(1.0, abs=1e-14)


def test_gaussian_moments_uncertainty_check():
    with pytest.raises(ValueError):
        GaussianMoments(0.0, 0.0, 0.1, 0.0, 0.1)  # var product below 1/4


def test_coherence_length_of_pure_gaussian():
    """|rho(x0+u/2, x0-u/2)| = exp(-u^2 / 8 sigma^2): 1/e at u = 2 sqrt(2) sigma."""
    sigma = 0.5
    cl = coherence_length(_gaussian_state(sigma=sigma))
    assert cl.length == pytest.approx(2.0 * math.sqrt(2.0) * sigma, rel=2e-2)
    assert not cl.below_floor


def test_coherence_length_shrinks_under_localization():
    s = _gaussian_state(mass=math.inf, lam=1.0, sigma=0.5)
    before = coherence_length(s).length
    s2, _ = evolve(s, t_final=1.0, dt=0.05)
    after = coherence_length(s2).length
    assert after < before


def test_observable_trace_requires_increasing_times():
    ObservableTrace([0.0], {"a": [1.0]})
    with pytest.raises(ValueError):
        ObservableTrace([0.0, 0.0], {"a": [1.0, 2.0]})


def test_evolve_records_and_conserves_trace():
    s = _gaussian_state(mass=1.0, lam=0.5)
    out, trace = evolve(s, t_final=0.5, dt=0.01, record_stride=10)
    t, rec = trace.as_arrays()
    assert t[0] == 0.0 and t[-1] == pytest.approx(0.5)
    assert np.max(np.abs(rec["trace"] - 1.0)) < 1e-10
    audit = out.audit()
    assert audit["trace_drift"] < 1e-10
    assert audit["hermiticity_drift"] is None  # structural
    assert audit["min_eigenvalue_bound"] >= -1e-10
    assert np.max(np.abs(out.rho - out.rho.conj().T)) < 1e-10
    assert np.linalg.eigvalsh(out.rho)[0] * s.grid.dx > -1e-10


def test_evolve_requires_commensurate_dt():
    s = _gaussian_state()
    with pytest.raises(ValueError):
        evolve(s, t_final=1.0, dt=0.3)


def test_free_evolution_matches_moment_oracle():
    """Pure kinetic spreading: var_xx(t) = var_0 + t^2 var_pp / m^2."""
    s = _gaussian_state(mass=2.0, lam=0.0, sigma=0.5)
    m0 = moments_of(s)
    out, _ = evolve(s, t_final=1.0, dt=0.01)
    m1 = moments_of(out)
    oracle = moment_ode_oracle(m0, 2.0, 0.0, 1.0)
    assert m1.var_xx == pytest.approx(oracle.var_xx, rel=1e-6)
    assert m1.var_pp == pytest.approx(oracle.var_pp, rel=1e-6)
    assert m1.cov_xp == pytest.approx(oracle.cov_xp, rel=1e-6)


def test_moment_oracle_time_zero_and_negative():
    m0 = GaussianMoments(0.0, 0.0, 1.0, 0.0, 1.0)
    same = moment_ode_oracle(m0, 1.0, 0.5, 0.0)
    assert same.var_xx == m0.var_xx
    with pytest.raises(ValueError):
        moment_ode_oracle(m0, 1.0, 0.5, -1.0)


def test_momentum_variance_grows_linearly():
    """d var_pp / dt = 2 lam independent of the kinetic term."""
    lam = 0.75
    s = _gaussian_state(mass=1.0, lam=lam, sigma=0.5)
    _, trace = evolve(s, t_final=0.5, dt=0.01, recorder=("trace", "var_pp"))
    t, rec = trace.as_arrays()
    slope = np.polyfit(t, rec["var_pp"], 1)[0]
    assert slope == pytest.approx(2.0 * lam, rel=1e-3)
