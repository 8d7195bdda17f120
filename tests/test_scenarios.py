"""Tests for the physics scenario presets."""
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from decolab import cli
from decolab.errors import PreconditionError
from decolab.hilbert import StateVector, SubsystemSplit, density_of, offdiagonal_coherence, partial_trace
from decolab.premeasure import PointerCoupling, ideal_premeasure
from decolab.localization import ObservableTrace, fit_exponent, record_steps
from decolab.runner import write_trace_csv
from decolab.scenarios import registry
from decolab.scenarios.twoslit import _initial_state
from decolab.scenarios.decay import BLOCK
from decolab.scenarios import (
    TwoSlitConfig, two_slit_run,
    ChiralConfig, chiral_run, classify_regime,
    ChargeModel, charge_reduced_density,
    DecayConfig, decay_run, golden_rule_rate, revival_time, survival_peak,
    MeasurementChain, run_chain,
    SCENARIOS, scenario_names,
)


# ---------------------------------------------------------------- two-slit

def test_two_slit_config_validation():
    with pytest.raises(ValueError):
        TwoSlitConfig(slit_separation=0.08, packet_width=0.05)
    with pytest.raises(ValueError):
        TwoSlitConfig(dt=-0.1)


def test_two_slit_edge_precondition():
    # packets wider than the grid must be rejected, not silently wrapped
    with pytest.raises(PreconditionError):
        two_slit_run(TwoSlitConfig(packet_width=0.4, half_width=0.8, t_final=0.1))


def test_two_slit_visibility_monotone_and_normalized():
    trace = two_slit_run(TwoSlitConfig(t_final=0.5))[0]
    t, rec = trace.as_arrays()
    v = rec["visibility"]
    assert v[0] == 1.0
    assert np.all(np.diff(v) < 0)
    assert np.max(np.abs(rec["trace"] - 1.0)) < 1e-10


def test_two_slit_frozen_mode_is_exact():
    cfg = TwoSlitConfig(mass=math.inf, lam=1.0, t_final=1.0, dt=0.01)
    trace, final = two_slit_run(cfg)
    t, rec = trace.as_arrays()
    k, _, resid = fit_exponent(t, rec["visibility"], floor=1e-12)
    assert k == pytest.approx(cfg.lam * cfg.slit_separation**2, rel=1e-10)
    assert resid < 1e-12
    audit = final.audit()
    assert audit["min_eigenvalue_bound"] >= -1e-10
    assert audit["hermiticity_drift"] is None  # structural
    assert np.linalg.eigvalsh(final.rho)[0] * final.grid.dx > -1e-10
    assert np.max(np.abs(final.rho - final.rho.conj().T)) < 1e-10


@pytest.mark.parametrize("n_points", [64, 65])
def test_two_slit_inner_records_on_a_rough_grid(n_points):
    """Packets about one grid spacing wide fill the whole spectrum, the N/2 column included."""
    from test_grid_loop import _strang_reference
    cfg = TwoSlitConfig(slit_separation=1.0, packet_width=0.06, mass=0.5, lam=1.0, t_final=0.05, dt=0.01,
                        n_points=n_points)
    s0, i_r, i_l = _initial_state(cfg)
    states = _strang_reference(s0.rho, s0.grid, cfg.mass, cfg.lam, cfg.dt, 5)
    _, rec = two_slit_run(cfg)[0].as_arrays()
    np.testing.assert_allclose(rec["cross_peak"], [abs(r[i_r, i_l]) for r in states], rtol=1e-12)


def test_two_slit_finite_mass_still_decoheres():
    cfg = TwoSlitConfig(mass=50.0, lam=1.0, t_final=0.3, dt=0.005)
    trace = two_slit_run(cfg)[0]
    _, rec = trace.as_arrays()
    assert rec["visibility"][-1] < 0.8


# ---------------------------------------------------------------- chiral

def test_chiral_config_validation():
    with pytest.raises(ValueError):
        ChiralConfig(omega=-1.0)
    with pytest.raises(PreconditionError):
        chiral_run(ChiralConfig(omega=1.0, gamma=100.0, dt=0.01))


def test_chiral_rabi_oscillation():
    cfg = ChiralConfig(omega=2.0, gamma=0.0, t_final=10.0, dt=0.001, record_stride=10)
    trace = chiral_run(cfg)[0]
    t, rec = trace.as_arrays()
    exact = np.cos(cfg.omega * t / 2.0) ** 2
    assert np.max(np.abs(rec["p_left"] - exact)) < 1e-6


def test_chiral_frozen_tunneling_is_robust():
    """omega = 0: |L><L| commutes with the monitoring, so nothing moves."""
    cfg = ChiralConfig(omega=0.0, gamma=5.0, t_final=2.0, dt=0.001)
    trace, rho = chiral_run(cfg)
    _, rec = trace.as_arrays()
    assert np.all(rec["p_left"] == 1.0)
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)


def test_chiral_strong_monitoring_relaxation():
    cfg = ChiralConfig(omega=1.0, gamma=50.0, t_final=100.0, dt=0.001, record_stride=100)
    t, rec = chiral_run(cfg)[0].as_arrays()
    rate = fit_exponent(t, 2.0 * (rec["p_left"] - 0.5), (0.05 * t[-1], math.inf), floor=1e-6)[0]
    assert rate == pytest.approx(cfg.omega**2 / (2.0 * cfg.gamma), rel=0.05)


def test_chiral_trace_is_conserved():
    cfg = ChiralConfig(omega=1.0, gamma=3.0, t_final=5.0, dt=0.001)
    trace = chiral_run(cfg)[0]
    _, rec = trace.as_arrays()
    assert np.max(np.abs(rec["trace"] - 1.0)) < 1e-12


def _strang_chiral_loop(omega, gamma, t_final, dt, stride):
    """Reference: the per-step Strang loop on the 2x2 matrix, renormalized each step.

    Returns rows (t, P_L, coherence, trace) at the stride multiples and the
    last step, and the final state.
    """
    c, s = math.cos(omega * dt / 4.0), math.sin(omega * dt / 4.0)
    half = np.array([[c, -1j * s], [-1j * s, c]])
    damp = math.exp(-2.0 * gamma * dt)
    rho = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    n_steps = round(t_final / dt)
    rows = [(0.0, 1.0, 0.0, 1.0)]
    for step in range(1, n_steps + 1):
        rho = half @ rho @ half.conj().T
        rho[0, 1] *= damp
        rho[1, 0] *= damp
        rho = half @ rho @ half.conj().T
        rho /= np.trace(rho).real
        if step % stride == 0 or step == n_steps:
            rows.append((step * dt, rho[0, 0].real, 2.0 * abs(rho[0, 1]), np.trace(rho).real))
    return np.array(rows), rho


@pytest.mark.parametrize("gamma, t_final, stride", [(3.0, 2.0, 10), (0.5, 1.0, 7)])
def test_chiral_matches_per_step_strang_loop(gamma, t_final, stride):
    """The stride-power map equals the step-by-step loop, also over a last, partial stride."""
    cfg = ChiralConfig(omega=1.3, gamma=gamma, t_final=t_final, dt=0.001, record_stride=stride)
    trace, rho = chiral_run(cfg)
    t, rec = trace.as_arrays()
    ref, ref_rho = _strang_chiral_loop(cfg.omega, gamma, t_final, cfg.dt, stride)
    assert t.shape == ref[:, 0].shape
    assert np.max(np.abs(t - ref[:, 0])) < 1e-12
    assert t[-1] == pytest.approx(t_final, abs=1e-12)
    for i, name in enumerate(("p_left", "coherence", "trace"), start=1):
        assert np.max(np.abs(rec[name] - ref[:, i])) < 1e-10, name
    assert np.max(np.abs(rho - ref_rho)) < 1e-10


def test_classify_regime_thresholds():
    assert classify_regime(ChiralConfig(omega=1.0, gamma=0.01)) == "unitary"
    assert classify_regime(ChiralConfig(omega=1.0, gamma=1.0)) == "master"
    assert classify_regime(ChiralConfig(omega=1.0, gamma=50.0)) == "zeno"
    assert classify_regime(ChiralConfig(omega=0.0, gamma=1.0)) == "zeno"
    assert classify_regime(ChiralConfig(omega=0.0, gamma=0.0)) == "unitary"


# ---------------------------------------------------------------- charge

def test_charge_model_validation():
    with pytest.raises(ValueError):
        ChargeModel(np.array([1.0, 1.0]), 1, np.eye(2))  # not normalized
    with pytest.raises(ValueError):
        ChargeModel(np.array([1.0, 0.0]) , -1, np.eye(2))
    with pytest.raises(ValueError):
        ChargeModel(np.array([0.6, 0.8]), 1, np.array([[1.0, 2.0], [2.0, 1.0]]))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_charge_model_rejects_nan_amplitude():
    with pytest.raises(ValueError, match="charge amplitudes not normalized"):
        ChargeModel(np.array([np.nan, 1.0]), 1, np.eye(2))


def test_charge_orthogonal_shells_superselect():
    c = np.array([0.6, 0.8])
    rho = charge_reduced_density(ChargeModel(c, 1, np.eye(2)))
    assert rho.entries[0, 1] == 0.0 and rho.entries[1, 0] == 0.0
    assert np.array_equal(np.diag(rho.entries), np.abs(c) ** 2 + 0.0j)


def test_charge_zero_shells_is_pure():
    c = np.array([0.6, 0.8])
    rho = charge_reduced_density(ChargeModel(c, 0, np.eye(2)))
    assert np.allclose(rho.entries, np.outer(c, c), atol=1e-15)
    assert rho.purity() == pytest.approx(1.0)


def test_charge_offdiagonal_decays_geometrically():
    c = np.array([1.0, 1.0]) / math.sqrt(2)
    gram = np.array([[1.0, 0.9], [0.9, 1.0]])
    vals = [abs(charge_reduced_density(ChargeModel(c, r, gram)).entries[0, 1])
            for r in range(5)]
    for r in range(1, 5):
        assert vals[r] == pytest.approx(0.5 * 0.9**r, abs=1e-14)


def _charge_reference(n_charges: int, shells: int, overlap: float, stride: int, real: bool = False) -> ObservableTrace:
    """The charge records one per record: of a validated complex charge_reduced_density, or with real=True of
    rho_qq' = c_q c_q' (overlap_q'q)^r in float64, which the run computes over chunks of records."""
    amps = np.full(n_charges, 1.0 / math.sqrt(n_charges))
    gram = np.full((n_charges, n_charges), overlap)
    np.fill_diagonal(gram, 1.0)
    steps = record_steps(shells, stride)
    if real:
        sums = [offdiagonal_coherence(np.outer(amps, amps) * gram.T ** r) for r in steps]
    else:
        sums = [offdiagonal_coherence(charge_reduced_density(ChargeModel(amps, r, gram))) for r in steps]
    return ObservableTrace(steps, {"offdiagonal_sum": sums})


def _charge_run(n_charges: int, shells: int, overlap: float, stride: int):
    return SCENARIOS["charge-shells"].run({"n_charges": n_charges, "shells": shells, "overlap": overlap}, 1, stride)


@pytest.mark.parametrize("n_charges, shells, overlap, stride, budget", [
    (3, 400, 0.0, 1, None),
    (3, 400, 0.9, 1, None),
    (3, 4000, 0.9995, 1, None),
    (3, 400, 1.0, 1, None),
    (3, 0, 0.9, 1, None),
    (4, 100, 0.99, 7, None),  # a partial last stride: ..., 98, 100
    (3, 23, 0.9, 1, 50),  # chunks of 5 records, the last of 4
    (5, 60, 0.97, 4, 30),  # chunks of 1 record
    (300, 5, 0.99, 2, None),  # n_charges^2 > BUDGET / 2: chunks of 1 record
])
def test_charge_chunked_records_equal_the_per_record_reduced_density(monkeypatch, n_charges, shells, overlap,
                                                                     stride, budget):
    if budget is not None:
        monkeypatch.setattr(registry, "BUDGET", budget)
    result = _charge_run(n_charges, shells, overlap, stride)
    expected = _charge_reference(n_charges, shells, overlap, stride, real=True)
    assert np.array_equal(result.trace.times, expected.times)
    assert np.array_equal(result.trace.records["offdiagonal_sum"], expected.records["offdiagonal_sum"])
    # against the complex reduced state, last bits only: numpy's complex power is the less exact one
    # (6e-15 relative at 0.9^r, r < 400; the real power stays within 2.3e-16 of the exact value)
    complex_sums = _charge_reference(n_charges, shells, overlap, stride).records["offdiagonal_sum"]
    np.testing.assert_allclose(result.trace.records["offdiagonal_sum"], complex_sums, rtol=1e-14, atol=0)
    assert result.summary["final_offdiagonal_sum"] == expected.records["offdiagonal_sum"][-1]


def test_charge_records_memory_is_bounded_by_the_chunk(monkeypatch):
    """32 charges over 1,001 records: one unchunked float64 stack of rho is 8 MB, a chunk of 128 records 1 MiB."""
    def peak_bytes():
        tracemalloc.start()
        try:
            _charge_run(32, 1000, 0.99, 1)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes() < 8e6
    monkeypatch.setattr(registry, "BUDGET", 2**30)  # every record in one chunk
    assert peak_bytes() > 8e6  # the bound above tells the two apart


def test_charge_cli_csv_equals_the_per_record_reference(tmp_path, monkeypatch):
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    cfg = tmp_path / "charge.cfg"
    cfg.write_text("[charge-shells]\noutput = run.csv\nrecord_stride = 1\nshells = 4000\nn_charges = 3\n"
                   "overlap = 0.9987\n")
    assert cli.main(["run", str(cfg)]) == 0
    write_trace_csv(str(tmp_path / "reference.csv"), "shell", _charge_reference(3, 4000, 0.9987, 1, real=True))
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# ---------------------------------------------------------------- decay

def test_decay_config_validation():
    with pytest.raises(ValueError):
        DecayConfig(n_modes=0)


def test_decay_span_precondition():
    with pytest.raises(PreconditionError):
        decay_run(DecayConfig(n_modes=9, mode_spacing=0.5, coupling=1.0))


def test_decay_survival_starts_at_one_and_decays():
    trace = decay_run(DecayConfig(t_final=1.0))[0]
    t, rec = trace.as_arrays()
    p = rec["survival"]
    assert p[0] == pytest.approx(1.0, abs=1e-12)
    gamma = golden_rule_rate(DecayConfig())
    assert p[-1] < math.exp(-gamma * t[-1] / 2.0)


def test_revival_time_requires_uniform_spacing():
    cfg = DecayConfig()
    assert revival_time(cfg) == pytest.approx(2.0 * math.pi / cfg.mode_spacing)


def test_monitored_decay_is_exponential():
    spec = SCENARIOS["decay-monitored"]  # DecayConfig(monitored=True) but for t_final
    params = {key: p.default for key, p in spec.params.items()}
    summary = spec.run({**params, "t_final": 4.0}, 0, spec.default_stride).summary
    assert summary["fit_residual"] < 0.01
    assert summary["fitted_rate"] > 0


@pytest.mark.parametrize("n_modes, t_final", [(161, 4.0), (401, 2.0)])
def test_monitored_rate_follows_the_band_limited_law(n_modes, t_final):
    """Monitoring broadens the level into a Lorentzian of half-width monitor_rate, and only the
    share (2/pi) arctan(n spacing / 2 monitor_rate) of it inside the band decays."""
    spec = SCENARIOS["decay-monitored"]
    params = {key: p.default for key, p in spec.params.items()}
    params.update(n_modes=n_modes, t_final=t_final)
    summary = spec.run(params, 0, spec.default_stride).summary
    g, spacing, gamma = params["coupling"], params["mode_spacing"], params["monitor_rate"]
    law = 2.0 * math.pi * g**2 / spacing * (2.0 / math.pi) * math.atan(n_modes * spacing / (2.0 * gamma))
    assert 3.0 / summary["fitted_rate"] < t_final  # the fit window [0, 3/rate] lies inside the run
    assert summary["band_limited_rate"] == pytest.approx(law, rel=1e-12)
    assert summary["fitted_rate"] == pytest.approx(law, rel=0.03)
    assert summary["fitted_rate"] < 0.6 * summary["golden_rule_rate"]


def test_survival_peak_lookup():
    trace = decay_run(DecayConfig())[0]
    t_rev = revival_time(DecayConfig())
    peak_t, peak_p = survival_peak(trace, 0.6 * t_rev)
    assert peak_t >= 0.6 * t_rev
    assert 0.0 < peak_p <= 1.0


def _site_basis_monitored_decay(cfg: DecayConfig):
    """Reference: U rho U^dag with U = expm(-i H dt), then damp row and column 0, step by step.

    Builds H from the model's definition; returns record times, survival and
    the final state, recording at the stride multiples and the last step.
    """
    n = cfg.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = h[1:, 0] = cfg.coupling
    h[range(1, n + 1), range(1, n + 1)] = (np.arange(n) - (n - 1) / 2.0) * cfg.mode_spacing
    u = expm(-1j * h * cfg.dt)
    f = math.exp(-cfg.monitor_rate * cfg.dt)
    rho = np.zeros((n + 1, n + 1), dtype=complex)
    rho[0, 0] = 1.0
    n_steps = round(cfg.t_final / cfg.dt)
    times, survival = [0.0], [1.0]
    for step in range(1, n_steps + 1):
        rho = u @ rho @ u.conj().T
        rho[0, 1:] *= f
        rho[1:, 0] *= f
        if step % cfg.record_stride == 0 or step == n_steps:
            times.append(step * cfg.dt)
            survival.append(rho[0, 0].real)
    return np.array(times), np.array(survival), rho


@pytest.mark.parametrize("n_modes, stride", [(21, 10), (41, 7)])
def test_monitored_decay_matches_site_basis_loop(n_modes, stride):
    cfg = DecayConfig(n_modes=n_modes, mode_spacing=1.0, coupling=0.5, monitored=True,
                      monitor_rate=20.0, t_final=3.0, dt=0.01, record_stride=stride)
    trace, rho = decay_run(cfg)
    t, rec = trace.as_arrays()
    ref_t, ref_p, ref_rho = _site_basis_monitored_decay(cfg)
    assert t.shape == ref_t.shape
    assert np.max(np.abs(t - ref_t)) < 1e-12
    assert np.max(np.abs(rec["survival"] - ref_p)) < 1e-10
    assert rho.shape == (n_modes + 1, n_modes + 1)
    assert np.max(np.abs(rho - ref_rho)) < 1e-10
    assert np.array_equal(rho, rho.conj().T)


@pytest.mark.parametrize("n_modes, n_steps", [
    (21, BLOCK - 1), (21, BLOCK), (21, BLOCK + 1), (21, 2 * BLOCK + 3), (1, 2 * BLOCK + 3),
])
def test_monitored_decay_block_edges(n_modes, n_steps):
    """Runs that end before, at and just after a block's end, with records (stride 7) inside blocks."""
    cfg = DecayConfig(n_modes=n_modes, mode_spacing=1.0, coupling=0.5, monitored=True,
                      monitor_rate=20.0, t_final=n_steps * 0.01, dt=0.01, record_stride=7)
    trace, rho = decay_run(cfg)
    t, rec = trace.as_arrays()
    ref_t, ref_p, ref_rho = _site_basis_monitored_decay(cfg)
    assert np.max(np.abs(t - ref_t)) < 1e-12
    assert np.max(np.abs(rec["survival"] - ref_p)) < 1e-10
    assert np.max(np.abs(rho - ref_rho)) < 1e-10
    assert np.array_equal(rho, rho.conj().T)


def test_unobserved_monitored_decay_is_unitary():
    """At monitor_rate 0 the monitored path gives the unmonitored survival."""
    cfg = DecayConfig(t_final=1.0, record_stride=7, monitor_rate=0.0)
    t_u, unitary = decay_run(cfg)[0].as_arrays()
    t_m, monitored = decay_run(replace(cfg, monitored=True))[0].as_arrays()
    assert np.array_equal(t_u, t_m)
    assert np.max(np.abs(unitary["survival"] - monitored["survival"])) < 1e-12


def test_decay_paths_record_at_the_same_steps():
    """Both paths record at the stride multiples and the last step, ending at t_final."""
    unmonitored = DecayConfig(t_final=1.0, dt=0.005, record_stride=7)
    monitored = DecayConfig(t_final=1.0, dt=0.005, record_stride=7, monitored=True)
    t_u, _ = decay_run(unmonitored)[0].as_arrays()
    t_m, _ = decay_run(monitored)[0].as_arrays()
    expected = np.array([*range(0, 200, 7), 200]) * 0.005
    assert np.array_equal(t_u, expected)
    assert np.array_equal(t_m, expected)


def test_fits_without_a_window_raise_value_error():
    rising = ObservableTrace([0.0, 1.0, 2.0, 3.0], {"survival": [0.5, 0.6, 0.7, 0.8]})
    t, rec = rising.as_arrays()
    assert fit_exponent(t, rec["survival"])[0] < 0  # a growing trace fits no decay rate
    with pytest.raises(ValueError, match="fewer than 2"):
        fit_exponent(t, rec["survival"], (0.0, 0.5))
    with pytest.raises(ValueError, match="before t_min"):
        survival_peak(rising, 4.0)


# ---------------------------------------------------------------- chain

def test_chain_validation():
    with pytest.raises(ValueError):
        MeasurementChain(np.array([1.0, 1.0]))  # not normalized


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_chain_rejects_nan_amplitude():
    with pytest.raises(ValueError, match="amplitudes not normalized"):
        MeasurementChain(np.array([np.nan, 1.0]))


def _chain_stage(chain: MeasurementChain, recorded: tuple[bool, bool, bool]) -> StateVector:
    """system (x) apparatus (x) environment (x) observer, each factor recording the system
    in its basis pointers or, if it has not recorded yet, left in its ready state e0."""
    n = chain.n_outcomes
    e0 = np.eye(n)[0]
    state = StateVector(chain.amplitudes, SubsystemSplit((n,)))
    for records in recorded:
        state = ideal_premeasure(state, PointerCoupling(e0, np.eye(n) if records else np.tile(e0, (n, 1))))
    return state


def test_chain_stages_entangle_progressively():
    c = np.array([0.6, 0.8])
    chain = MeasurementChain(c)
    meas = _chain_stage(chain, (True, False, False))
    decoh = _chain_stage(chain, (True, True, False))
    # reduced system state is diag(|c|^2) at both stages (records exist)
    for state in (meas, decoh):
        red = partial_trace(density_of(state), (0,))
        assert np.allclose(red.entries, np.diag(c**2), atol=1e-14)
    # but the apparatus+system pair still carries coherence before the
    # environment copy exists
    pair_meas = partial_trace(density_of(meas), (0, 1))
    pair_decoh = partial_trace(density_of(decoh), (0, 1))
    assert np.abs(pair_meas.entries).sum() > np.abs(pair_decoh.entries).sum()


def test_run_chain_is_deterministic_and_unbiased():
    chain = MeasurementChain(np.array([0.6, 0.8]), seed=123)
    a = run_chain(chain, 50000)
    b = run_chain(chain, 50000)
    assert np.array_equal(a.counts, b.counts)
    assert a.n_runs == 50000
    assert abs(a.frequencies[0] - 0.36) < 3.0 * math.sqrt(0.36 * 0.64 / 50000)


def test_run_chain_prefix_property():
    """The counter-based stream makes shorter runs a prefix of longer ones."""
    chain = MeasurementChain(np.array([1.0, 1.0, 1.0, 1.0]) / 2.0, seed=9)
    short = run_chain(chain, 1000)
    long = run_chain(chain, 2000)
    assert long.n_runs == 2000
    # frequencies of the long run stay near the short-run frequencies
    assert np.max(np.abs(long.frequencies - short.frequencies)) < 0.05


# ---------------------------------------------------------------- registry

def test_registry_names_and_defaults():
    names = scenario_names()
    assert "two-slit" in names and "born-chain" in names
    for name in names:
        spec = SCENARIOS[name]
        for pname, ps in spec.params.items():
            ps.check(pname, ps.default)  # every default satisfies its own bounds


def test_registry_runs_produce_audited_results():
    result = SCENARIOS["charge-shells"].run(
        {"n_charges": 2, "shells": 100, "overlap": 0.9}, 0, 10)
    assert result.audit["trace_drift"] < 1e-12
    assert "final_offdiagonal_sum" in result.summary
