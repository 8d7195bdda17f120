"""The grid's one step loop against a per-step Strang loop written here.

`evolve` and the two-slit scenario share a loop that merges adjacent
kinetic half-kicks and reads two-slit records from momentum space.  The
reference below steps every half-kick as U rho U^dag with a dense U built
from plain numpy, and applies no decolab step function.
"""
import math
import tracemalloc

import numpy as np
import pytest

from decolab.localization import (
    OBSERVABLES, GridDensityMatrix, GridSpec, _record, evolve, gaussian_packet, pure_density,
)
from decolab.scenarios.twoslit import TwoSlitConfig, _initial_state, two_slit_run


def _strang_reference(rho, grid, mass, lam, dt, n_steps):
    """States 0..n_steps of a per-step Strang loop built here from plain numpy:
    half kick, localization, half kick, each kick U rho U^dag with a dense U."""
    x, n = grid.x, grid.n_points
    kernel = np.exp(-lam * dt * (x[:, None] - x[None, :]) ** 2)
    u = None
    if math.isfinite(mass):
        half = np.exp(-1j * grid.p**2 / (2.0 * mass) * dt / 2.0)
        u = np.fft.ifft(half[:, None] * np.fft.fft(np.eye(n), axis=0), axis=0)
    states = [rho]
    for _ in range(n_steps):
        if u is not None:
            rho = u @ rho @ u.conj().T
        rho = rho * kernel
        if u is not None:
            rho = u @ rho @ u.conj().T
        states.append(rho)
    return states


@pytest.mark.parametrize("n_points", [128, 256, 300])
@pytest.mark.parametrize("stride", [1, 3])
def test_two_slit_matches_per_step_strang_loop(n_points, stride):
    cfg = TwoSlitConfig(slit_separation=1.0, packet_width=0.1, mass=5.0, lam=1.0, t_final=0.1, dt=0.01,
                        n_points=n_points, record_stride=stride)
    s0, i_r, i_l = _initial_state(cfg)
    states = _strang_reference(s0.rho, s0.grid, cfg.mass, cfg.lam, cfg.dt, 10)
    steps = [0, 3, 6, 9, 10] if stride == 3 else list(range(11))  # stride 3: partial last stride
    trace, final = two_slit_run(cfg)
    t, rec = trace.as_arrays()
    assert np.allclose(t, np.array(steps) * cfg.dt, rtol=0, atol=1e-15)
    cross = np.array([abs(states[k][i_r, i_l]) for k in steps])
    np.testing.assert_allclose(rec["cross_peak"], cross, rtol=1e-12)
    np.testing.assert_allclose(rec["visibility"], cross / cross[0], rtol=1e-12)
    tr = np.array([np.real(np.trace(states[k])) * s0.grid.dx for k in steps])
    np.testing.assert_allclose(rec["trace"], tr, rtol=1e-12)
    assert np.max(np.abs(final.rho - states[-1])) < 1e-12 * np.max(np.abs(states[-1]))


@pytest.mark.parametrize("n_points", [128, 256, 300])
@pytest.mark.parametrize("stride", [1, 3])
def test_evolve_matches_per_step_strang_loop(n_points, stride):
    grid = GridSpec(n_points, -6.0, 6.0)
    psi = gaussian_packet(grid, 1.0, 0.4, -2.0) + gaussian_packet(grid, -1.0, 0.4, 2.0)
    psi /= np.linalg.norm(psi) * math.sqrt(grid.dx)
    s0 = pure_density(grid, psi, 3.0, 0.8)
    states = _strang_reference(s0.rho, grid, 3.0, 0.8, 0.01, 10)
    steps = [0, 3, 6, 9, 10] if stride == 3 else list(range(11))
    out, trace = evolve(s0, 0.1, 0.01, recorder=OBSERVABLES, record_stride=stride)
    t, rec = trace.as_arrays()
    assert np.allclose(t, np.array(steps) * 0.01, rtol=0, atol=1e-15)
    expected = [_record(GridDensityMatrix(grid, states[k], 3.0, 0.8), OBSERVABLES) for k in steps]
    for name in OBSERVABLES:
        np.testing.assert_allclose(rec[name], [e[name] for e in expected], rtol=1e-12, atol=1e-12, err_msg=name)
    assert np.max(np.abs(out.rho - states[-1])) < 1e-12 * np.max(np.abs(states[-1]))


def test_infinite_mass_loop_matches_exactly():
    cfg = TwoSlitConfig(lam=2.0, t_final=0.1, dt=0.01, n_points=128, record_stride=3)
    s0, i_r, i_l = _initial_state(cfg)
    states = _strang_reference(s0.rho, s0.grid, math.inf, cfg.lam, cfg.dt, 10)
    trace, final = two_slit_run(cfg)
    _, rec = trace.as_arrays()
    assert list(rec["cross_peak"]) == [abs(states[k][i_r, i_l]) for k in (0, 3, 6, 9, 10)]
    assert np.array_equal(final.rho, states[-1])
    out, _ = evolve(s0, 0.1, 0.01, record_stride=3)
    assert np.array_equal(out.rho, states[-1])


@pytest.mark.parametrize("pure", [True, False])
def test_evolve_is_repeatable_and_leaves_s0_untouched(pure):
    """The loop steps in buffers of its own: two runs from one s0 agree bitwise, and s0.m never changes."""
    grid = GridSpec(128, -6.0, 6.0)
    psi = gaussian_packet(grid, 1.0, 0.4, -2.0) + gaussian_packet(grid, -1.0, 0.4, 2.0)
    psi /= np.linalg.norm(psi) * math.sqrt(grid.dx)
    s0 = pure_density(grid, psi, 3.0, 0.8) if pure else GridDensityMatrix(grid, np.outer(psi, psi.conj()), 3.0, 0.8)
    before = s0.m.copy()
    runs = [evolve(s0, 0.1, 0.01, recorder=OBSERVABLES, record_stride=3) for _ in range(2)]
    assert np.array_equal(s0.m, before)
    (first, t1), (second, t2) = runs
    assert first.m is not second.m and np.array_equal(first.m, second.m)
    for name in OBSERVABLES:
        assert np.array_equal(t1.records[name], t2.records[name]), name


def test_two_slit_at_512_points_peaks_below_14_mb():
    """A finite-mass run holds M, the kernel, the rotation and two spectrum buffers (10.3 MB at N = 512),
    and frees all but M before its closing half-kick; the state is pure, not N x N, until then."""
    cfg = TwoSlitConfig(slit_separation=2.0, packet_width=0.15, mass=10.0, lam=1.0, t_final=0.12, dt=0.01,
                        n_points=512)
    two_slit_run(cfg)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        two_slit_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 14e6
