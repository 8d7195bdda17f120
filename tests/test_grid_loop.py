"""The grid's one step loop against a per-step Strang loop written here.

`evolve` and the finite-mass two-slit scenario share a loop that merges
adjacent kinetic half-kicks, takes one step per record interval (the
intervals' closed BCH factor makes it reproduce every dt step), and reads
two-slit records from the state before its closing half-kick.  The
reference below steps every half-kick of every dt step as U rho U^dag with
a dense U built from plain numpy, and applies no decolab step function;
the finite-mass runs compared with it stay in a box their coherences do
not reach.  At infinite mass two-slit takes no steps and `evolve`
localizes once per record interval; both are checked against the closed
form rho(x, x', 0) exp(-lam t (x - x')^2), built here too, and against the
reference loop.
"""
import math
import tracemalloc

import numpy as np
import pytest

from decolab import localization
from decolab.localization import (
    OBSERVABLES, GridDensityMatrix, GridSpec, _record, evolve, gaussian_packet, pure_density,
)
from decolab.scenarios.twoslit import TwoSlitConfig, _initial_state, two_slit_run


def _steps(stride, n_steps=10):
    """0, every stride-th step and the last: stride 3 and 4 end on a partial interval, stride 10 is one interval."""
    return sorted(set(range(0, n_steps + 1, stride)) | {n_steps})


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


@pytest.mark.parametrize("n_points", [128, 129, 256, 300])
@pytest.mark.parametrize("stride", [1, 3, 4, 10])
def test_two_slit_matches_per_step_strang_loop(n_points, stride):
    cfg = TwoSlitConfig(slit_separation=1.0, packet_width=0.1, mass=5.0, lam=1.0, t_final=0.1, dt=0.01,
                        n_points=n_points, half_width=3.0, record_stride=stride)
    s0, i_r, i_l = _initial_state(cfg)
    states = _strang_reference(s0.rho, s0.grid, cfg.mass, cfg.lam, cfg.dt, 10)
    steps = _steps(stride)
    trace, final = two_slit_run(cfg)
    t, rec = trace.as_arrays()
    assert np.allclose(t, np.array(steps) * cfg.dt, rtol=0, atol=1e-15)
    cross = np.array([abs(states[k][i_r, i_l]) for k in steps])
    np.testing.assert_allclose(rec["cross_peak"], cross, rtol=1e-12)
    np.testing.assert_allclose(rec["visibility"], cross / cross[0], rtol=1e-12)
    tr = np.array([np.real(np.trace(states[k])) * s0.grid.dx for k in steps])
    np.testing.assert_allclose(rec["trace"], tr, rtol=1e-12)
    assert np.max(np.abs(final.rho - states[-1])) < 1e-12 * np.max(np.abs(states[-1]))


def _two_packets(grid):
    psi = gaussian_packet(grid, 1.0, 0.4, -2.0) + gaussian_packet(grid, -1.0, 0.4, 2.0)
    return psi / (np.linalg.norm(psi) * math.sqrt(grid.dx))


@pytest.mark.parametrize("n_points", [128, 256, 300])
@pytest.mark.parametrize("stride", [1, 3, 4, 10])
def test_evolve_matches_per_step_strang_loop(n_points, stride):
    grid = GridSpec(n_points, -6.0, 6.0)
    s0 = pure_density(grid, _two_packets(grid), 3.0, 0.8)
    states = _strang_reference(s0.rho, grid, 3.0, 0.8, 0.01, 10)
    steps = _steps(stride)
    out, trace = evolve(s0, 0.1, 0.01, recorder=OBSERVABLES, record_stride=stride)
    t, rec = trace.as_arrays()
    assert np.allclose(t, np.array(steps) * 0.01, rtol=0, atol=1e-15)
    expected = [_record(GridDensityMatrix(grid, states[k], 3.0, 0.8), OBSERVABLES) for k in steps]
    for name in OBSERVABLES:
        np.testing.assert_allclose(rec[name], [e[name] for e in expected], rtol=1e-12, atol=1e-12, err_msg=name)
    assert np.max(np.abs(out.rho - states[-1])) < 1e-12 * np.max(np.abs(states[-1]))


@pytest.mark.parametrize("stride", [1, 4, 10])
def test_evolve_from_a_mixed_rho_matches_per_step_strang_loop(stride):
    """A caller's mixed rho opens through its M at every stride."""
    grid = GridSpec(128, -6.0, 6.0)
    psi, phi = _two_packets(grid), gaussian_packet(grid, 0.5, 0.3, 1.0)
    rho = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.outer(phi, phi.conj())
    reference = _strang_reference(rho, grid, 3.0, 0.8, 0.01, 10)[-1]
    out, trace = evolve(GridDensityMatrix(grid, rho, 3.0, 0.8), 0.1, 0.01, recorder=("purity",), record_stride=stride)
    assert np.max(np.abs(out.rho - reference)) < 1e-12 * np.max(np.abs(reference))
    assert trace.records["purity"][-1] == pytest.approx(np.vdot(reference, reference).real * grid.dx**2, rel=1e-12)


def _no_factor(s, tau, n, dt):
    return localization._rotation(s.grid, s.mass, tau)


def _exact_factor(s, tau, n, dt):
    """The kick times the exact mode's exp(-lam k^2 T^3 / 12 m^2), T = n dt, at k = p + q: it drops Strang's dt^2."""
    p, t = s.grid.p, n * dt
    f = np.exp(-s.lam * t**3 / (12.0 * s.mass**2) * (p[:, None] + p[:len(p) // 2 + 1]) ** 2)
    return tuple(part * f for part in localization._rotation(s.grid, s.mass, tau))


@pytest.mark.parametrize("plant", [_no_factor, _exact_factor], ids=["no-factor", "exact-T3"])
@pytest.mark.parametrize("stride", [4, 10])
def test_a_planted_interval_factor_leaves_strang(plant, stride, monkeypatch):
    """Without f, or with the exact exponent T^3 in place of T (T^2 - dt^2), strided runs leave the per-step loop
    by far more than the 1e-12 of max|rho| that the real factor keeps, in evolve and in two-slit alike."""
    grid = GridSpec(128, -6.0, 6.0)
    s0 = pure_density(grid, _two_packets(grid), 3.0, 0.8)
    cfg = TwoSlitConfig(slit_separation=1.0, packet_width=0.1, mass=5.0, lam=1.0, t_final=0.1, dt=0.01,
                        n_points=128, half_width=3.0, record_stride=stride)
    t0, _, _ = _initial_state(cfg)
    references = [_strang_reference(s.rho, s.grid, s.mass, s.lam, 0.01, 10)[-1] for s in (s0, t0)]
    monkeypatch.setattr(localization, "_interval_rotation", plant)
    finals = [evolve(s0, 0.1, 0.01, recorder=(), record_stride=stride)[0], two_slit_run(cfg)[1]]
    for final, reference in zip(finals, references):
        assert np.max(np.abs(final.rho - reference)) > 1e-9 * np.max(np.abs(reference))


@pytest.mark.parametrize("stride, calls", [(1, 10), (3, 4), (4, 3), (10, 1), (20, 1)])
def test_one_localization_per_record_interval(stride, calls, monkeypatch):
    """A finite-mass run localizes once per record interval: once per step at stride 1."""
    counted = []
    step = localization.localization_step
    monkeypatch.setattr(localization, "localization_step", lambda *a, **k: counted.append(1) or step(*a, **k))
    grid = GridSpec(128, -6.0, 6.0)
    evolve(pure_density(grid, _two_packets(grid), 3.0, 0.8), 0.1, 0.01, recorder=(), record_stride=stride)
    assert len(counted) == calls
    counted.clear()
    two_slit_run(TwoSlitConfig(mass=5.0, packet_width=0.1, t_final=0.1, n_points=128, record_stride=stride))
    assert len(counted) == calls


@pytest.mark.parametrize("stride", [1, 3, 20])
def test_infinite_mass_evolve_is_the_closed_form(stride):
    """Records and the final state of rho_0 * exp(-lam t (x - x')^2) to 1e-14, and the per-step reference loop
    to its n_steps roundings; stride 3 ends on a partial interval, stride 20 is one interval over t_final."""
    cfg = TwoSlitConfig(lam=2.0, t_final=0.1, dt=0.01, n_points=128)
    s0, _, _ = _initial_state(cfg)
    x, rho0, names = s0.grid.x, s0.rho, ("trace", "offdiag_peak", "purity")
    before = s0.m.copy()
    out, trace = evolve(s0, 0.1, 0.01, recorder=names, record_stride=stride)
    assert np.array_equal(s0.m, before)
    times, rec = trace.as_arrays()
    closed = [rho0 * np.exp(-cfg.lam * t * (x[:, None] - x[None, :]) ** 2) for t in times]
    assert np.max(np.abs(out.rho - closed[-1])) <= 1e-14 * np.max(np.abs(closed[-1]))
    expected = [_record(GridDensityMatrix(s0.grid, rho, math.inf, cfg.lam), names) for rho in closed]
    for name in names:
        np.testing.assert_allclose(rec[name], [e[name] for e in expected], rtol=1e-14, atol=0, err_msg=name)
    reference = _strang_reference(rho0, s0.grid, math.inf, cfg.lam, cfg.dt, 10)[-1]
    assert np.max(np.abs(out.rho - reference)) <= 10 * np.finfo(float).eps * np.max(np.abs(reference))


@pytest.mark.parametrize("stride", [1, 3])
def test_infinite_mass_two_slit_is_the_closed_form(stride):
    """Records |psi_r psi_l^*| exp(-lam t (x_r - x_l)^2) and the final rho_0 * exp(-lam t_final (x - x')^2) to
    1e-14, and the per-step reference loop to its n_steps roundings."""
    cfg = TwoSlitConfig(lam=2.0, t_final=0.1, dt=0.01, n_points=128, record_stride=stride)
    s0, i_r, i_l = _initial_state(cfg)
    x, psi, rho0 = s0.grid.x, s0.psi, np.outer(s0.psi, s0.psi.conj())
    steps = [0, 3, 6, 9, 10] if stride == 3 else list(range(11))
    t = np.array(steps) * cfg.dt
    trace, final = two_slit_run(cfg)
    times, rec = trace.as_arrays()
    assert np.allclose(times, t, rtol=0, atol=1e-15)
    cross = abs(psi[i_r] * psi[i_l].conj()) * np.exp(-cfg.lam * t * (x[i_r] - x[i_l]) ** 2)
    np.testing.assert_allclose(rec["cross_peak"], cross, rtol=1e-14, atol=0)
    np.testing.assert_allclose(rec["visibility"], cross / cross[0], rtol=1e-14, atol=0)
    np.testing.assert_allclose(rec["trace"], np.vdot(psi, psi).real * s0.grid.dx, rtol=1e-14, atol=0)
    rho = rho0 * np.exp(-cfg.lam * cfg.t_final * (x[:, None] - x[None, :]) ** 2)
    assert np.max(np.abs(final.rho - rho)) <= 1e-14 * np.max(np.abs(rho))
    states = _strang_reference(rho0, s0.grid, math.inf, cfg.lam, cfg.dt, 10)
    n_eps = 10 * np.finfo(float).eps
    np.testing.assert_allclose(rec["cross_peak"], [abs(states[k][i_r, i_l]) for k in steps], rtol=n_eps, atol=0)
    assert np.max(np.abs(final.rho - states[-1])) <= n_eps * np.max(np.abs(states[-1]))


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


def test_two_slit_at_512_points_peaks_below_11_mb():
    """A finite-mass run holds M, the kernel's 2N - 1 values, the rotation and two spectrum buffers
    (8.3 MB at N = 512), and swaps the full rotation for the half one at its last step; the state is
    pure, not N x N, until the loop starts."""
    cfg = TwoSlitConfig(slit_separation=2.0, packet_width=0.15, mass=10.0, lam=1.0, t_final=0.12, dt=0.01,
                        n_points=512)
    two_slit_run(cfg)  # warm numpy's FFT plan cache
    tracemalloc.start()
    try:
        two_slit_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 11e6


def test_infinite_mass_two_slit_at_512_points_holds_one_m():
    """At mass = inf the final localization runs in place in the initial M: the peak is that one N x N
    float64 M (2.1 MB at N = 512) and O(N), at or below the 2,195,730 B measured when the run stepped `_march`."""
    cfg = TwoSlitConfig(n_points=512)
    two_slit_run(cfg)
    tracemalloc.start()
    try:
        two_slit_run(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2e6
