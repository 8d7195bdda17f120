"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion N: PASS`` line when it succeeds, so
``pytest -s tests/test_acceptance.py`` doubles as a release checklist.  All
expected values here are produced by independent brute-force or closed-form
oracles, not by the implementation under test.
"""
import math
from math import prod

import numpy as np
import pytest

from decolab.hilbert import (
    SubsystemSplit, StateVector, density_of, expectation, partial_trace,
    schmidt, entanglement_entropy,
)
from decolab.premeasure import (
    PointerCoupling, ScattererChain, ideal_premeasure, decoherence_factor, erase,
)
from decolab.localization import (
    GridSpec, gaussian_packet, pure_density, moments_of, evolve, fit_exponent,
)
from decolab.scenarios import (
    TwoSlitConfig, two_slit_run,
    ChiralConfig, chiral_run,
    ChargeModel, charge_reduced_density,
    DecayConfig, decay_run, golden_rule_rate, revival_time, survival_peak,
    MeasurementChain, run_chain, SCENARIOS,
)
from oracles import moment_ode_oracle
from states import (
    basis_state, random_state, random_density, random_observable, tensor_product,
    schmidt_reconstruct,
)


def _report(n, label):
    print(f"criterion {n} ({label}): PASS")


def _random_unit(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    return v / np.linalg.norm(v)


# -------------------------------------------------------------------------
# 1. kinematics operations against brute-force index-loop oracles

def _kron_oracle(a, b):
    out = np.zeros(len(a) * len(b), dtype=complex)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i * len(b) + j] = ai * bj
    return out


def _partial_trace_oracle(rho, dims, keep):
    n = len(dims)
    traced = [i for i in range(n) if i not in keep]
    keep_dims = [dims[k] for k in keep]
    d_keep = prod(keep_dims)
    out = np.zeros((d_keep, d_keep), dtype=complex)

    def flat(idx):
        f = 0
        for i, d in zip(idx, dims):
            f = f * d + i
        return f

    def flat_keep(idx):
        f = 0
        for k, d in zip(keep, keep_dims):
            f = f * d + idx[k]
        return f

    for idx in np.ndindex(*dims):
        for jdx in np.ndindex(*dims):
            if any(idx[t] != jdx[t] for t in traced):
                continue
            out[flat_keep(idx), flat_keep(jdx)] += rho[flat(idx), flat(jdx)]
    return out


def test_criterion_1_kinematics_oracles():
    rng = np.random.default_rng(101)
    pools = [(2, 2), (2, 3), (3, 2), (2, 2, 2), (2, 4)]
    for i in range(200):
        dims = pools[i % len(pools)]
        split = SubsystemSplit(dims)

        a = random_state(rng, SubsystemSplit((dims[0],)))
        b = random_state(rng, SubsystemSplit(dims[1:]))
        assert np.max(np.abs(tensor_product(a, b).amplitudes
                             - _kron_oracle(a.amplitudes, b.amplitudes))) < 1e-12

        psi = random_state(rng, split)
        outer = np.zeros((split.dim, split.dim), dtype=complex)
        for r in range(split.dim):
            for c in range(split.dim):
                outer[r, c] = psi.amplitudes[r] * np.conj(psi.amplitudes[c])
        assert np.max(np.abs(density_of(psi).entries - outer)) < 1e-12

        rho = random_density(rng, split)
        obs = random_observable(rng, split)
        acc = 0.0 + 0.0j
        for r in range(split.dim):
            for c in range(split.dim):
                acc += obs.entries[r, c] * rho.entries[c, r]
        assert abs(expectation(obs, rho) - acc.real) < 1e-12

        keep = (0,) if i % 2 == 0 else (len(dims) - 1,)
        red = partial_trace(rho, keep)
        assert np.max(np.abs(red.entries
                             - _partial_trace_oracle(rho.entries, dims, keep))) < 1e-12
    _report(1, "kinematics oracle equivalence")


# -------------------------------------------------------------------------
# 2. Schmidt decomposition suite

def test_criterion_2_schmidt_suite():
    rng = np.random.default_rng(202)
    pools = [(2, 2), (2, 3), (3, 4), (2, 2, 2), (4, 2)]
    checked = 0
    while checked < 200:
        dims = pools[checked % len(pools)]
        split = SubsystemSplit(dims)
        psi = random_state(rng, split)
        dec = schmidt(psi, (0,))
        if dec.degenerate:
            continue  # criterion targets nondegenerate states
        checked += 1
        assert abs(dec.probabilities.sum() - 1.0) < 1e-12
        # dual spectra: both reduced states carry the same Schmidt weights
        rho = density_of(psi)
        for side in ((0,), tuple(range(1, len(dims)))):
            ev = np.sort(np.linalg.eigvalsh(partial_trace(rho, side).entries))[::-1]
            assert np.max(np.abs(ev[: len(dec.probabilities)] - dec.probabilities)) < 1e-10
        # reconstruction
        assert np.max(np.abs(schmidt_reconstruct(dec) - psi.amplitudes)) < 1e-10

    bell = StateVector(np.array([1, 0, 0, 1]) / np.sqrt(2), SubsystemSplit((2, 2)))
    dec = schmidt(bell, (0,))
    assert np.allclose(dec.probabilities, [0.5, 0.5], atol=1e-15) and dec.degenerate
    assert entanglement_entropy(partial_trace(density_of(bell), (0,))) == pytest.approx(np.log(2))

    prod_state = tensor_product(basis_state(0, SubsystemSplit((2,))),
                                basis_state(1, SubsystemSplit((3,))))
    dec = schmidt(prod_state, (0,))
    assert len(dec.probabilities) == 1 and dec.probabilities[0] == pytest.approx(1.0, abs=1e-14)
    _report(2, "Schmidt suite")


# -------------------------------------------------------------------------
# 3. recoherence / unitarity of the record-making interaction

def test_criterion_3_recoherence():
    rng = np.random.default_rng(303)
    for _ in range(100):
        split = SubsystemSplit((3,))
        psi = random_state(rng, split)
        couplings = []
        joint = psi
        for _j in range(2):
            c = PointerCoupling(_random_unit(rng, 3),
                                np.array([_random_unit(rng, 3) for _ in range(3)]))
            couplings.append(c)
            joint = ideal_premeasure(joint, c)
        # full erase restores the initial product state
        restored = erase(joint, couplings, subset=(0, 1))
        expected = psi.amplitudes
        for c in couplings:
            expected = np.kron(expected, c.env_ready)
        assert np.max(np.abs(restored.amplitudes - expected)) < 1e-12
        # partial erase leaves exactly the complement's decoherence factor
        part = erase(joint, couplings, subset=(0,))
        red = partial_trace(density_of(part), (0,)).entries
        g1 = couplings[1].env_pointers.conj() @ couplings[1].env_pointers.T
        chain = ScattererChain([g1])
        for m in range(3):
            for n in range(3):
                want = psi.amplitudes[m] * np.conj(psi.amplitudes[n]) \
                    * decoherence_factor(chain, m, n, 1)
                assert abs(red[m, n] - want) < 1e-12
    _report(3, "recoherence and unitarity")


# -------------------------------------------------------------------------
# 4. localization-only closed form

def test_criterion_4_localization_closed_form():
    grid = GridSpec(128, -6.0, 6.0)
    lam = 1.0
    psi = gaussian_packet(grid, 0.0, 0.8)
    s0 = pure_density(grid, psi, math.inf, lam)
    t_final, dt = 1.0, 1e-3  # 1000 steps
    out, _ = evolve(s0, t_final, dt)
    x = grid.x
    expected = s0.rho * np.exp(-lam * (x[:, None] - x[None, :]) ** 2 * t_final)
    assert np.max(np.abs(out.rho - expected)) < 1e-10
    audit = out.audit()
    assert audit["trace_drift"] < 1e-12
    assert audit["hermiticity_drift"] is None  # structural
    assert audit["min_eigenvalue_bound"] >= -1e-10
    assert np.max(np.abs(out.rho - out.rho.conj().T)) < 1e-12
    assert np.linalg.eigvalsh(out.rho)[0] * grid.dx > -1e-10
    _report(4, "localization closed form")


# -------------------------------------------------------------------------
# 5. second-moment oracle for the full master equation

def _moment_errors(dt):
    grid = GridSpec(256, -10.0, 10.0)
    mass, lam, t = 1.0, 0.5, 1.0
    psi = gaussian_packet(grid, 0.0, 0.5)
    s0 = pure_density(grid, psi, mass, lam)
    m0 = moments_of(s0)
    out, trace = evolve(s0, t, dt, recorder=("trace", "var_pp"))
    m1 = moments_of(out)
    oracle = moment_ode_oracle(m0, mass, lam, t)
    errs = [abs(m1.var_xx - oracle.var_xx) / oracle.var_xx,
            abs(m1.cov_xp - oracle.cov_xp) / abs(oracle.cov_xp),
            abs(m1.var_pp - oracle.var_pp) / oracle.var_pp]
    return max(errs), trace, lam


def test_criterion_5_moment_oracle():
    err_coarse, trace, lam = _moment_errors(0.01)
    err_fine, _, _ = _moment_errors(0.005)
    assert err_coarse < 1e-3
    assert err_coarse / err_fine >= 3.0  # convergence with dt
    t, rec = trace.as_arrays()
    slope = np.polyfit(t, rec["var_pp"], 1)[0]
    assert abs(slope - 2.0 * lam) / (2.0 * lam) < 0.01
    _report(5, "master-equation moment oracle")


# -------------------------------------------------------------------------
# 6. two-slit visibility scaling

def test_criterion_6_two_slit_scaling():
    cfg_d = TwoSlitConfig(slit_separation=1.0)
    t, rec = two_slit_run(cfg_d)[0].as_arrays()
    model = np.exp(-cfg_d.lam * cfg_d.slit_separation**2 * t)
    assert np.max(np.abs(rec["visibility"] - model) / model) < 0.02

    k1 = fit_exponent(t, rec["visibility"], floor=1e-12)[0]
    cfg_2d = TwoSlitConfig(slit_separation=2.0, t_final=0.5)
    t2, rec2 = two_slit_run(cfg_2d)[0].as_arrays()
    k2 = fit_exponent(t2, rec2["visibility"], floor=1e-12)[0]
    assert abs(k2 / k1 - 4.0) < 0.1
    _report(6, "two-slit visibility scaling")


# -------------------------------------------------------------------------
# 7. chiral molecule regimes

def test_criterion_7_chiral_regimes():
    # free tunneling reproduces the Rabi law
    cfg = ChiralConfig(omega=1.0, gamma=0.0, t_final=20.0, dt=0.001, record_stride=10)
    t, rec = chiral_run(cfg)[0].as_arrays()
    assert np.max(np.abs(rec["p_left"] - np.cos(cfg.omega * t / 2.0) ** 2)) < 1e-4

    # frozen tunneling: monitoring alone moves nothing
    _, rho = chiral_run(ChiralConfig(omega=0.0, gamma=5.0, t_final=2.0, dt=0.001))
    assert rho[0, 0].real == pytest.approx(1.0, abs=1e-12)

    # strong monitoring relaxes at omega^2 / (2 gamma)
    strong = ChiralConfig(omega=1.0, gamma=50.0, t_final=100.0, dt=0.001, record_stride=100)
    t, rec = chiral_run(strong)[0].as_arrays()
    rate = fit_exponent(t, 2.0 * (rec["p_left"] - 0.5), (0.05 * t[-1], math.inf), floor=1e-6)[0]
    assert abs(rate - 1.0 / 100.0) / (1.0 / 100.0) < 0.10

    # monotonicity ladder: stronger monitoring never speeds up relaxation
    times = []
    for gamma in (2.0, 4.0, 8.0, 16.0):
        cfg = ChiralConfig(omega=1.0, gamma=gamma, t_final=40.0, dt=0.002, record_stride=10)
        t, rec = chiral_run(cfg)[0].as_arrays()
        below = np.nonzero(rec["p_left"] <= 0.75)[0]  # first record with P_L <= 0.75
        times.append(float(t[below[0]]) if len(below) else math.inf)
    assert all(math.isfinite(x) for x in times)
    assert all(b >= a for a, b in zip(times, times[1:]))
    _report(7, "chiral monitoring regimes")


# -------------------------------------------------------------------------
# 8. charge superselection

def test_criterion_8_charge_superselection():
    c = np.array([0.6, 0.8])
    rho = charge_reduced_density(ChargeModel(c, 5, np.eye(2))).entries
    assert rho[0, 1] == 0.0 and rho[1, 0] == 0.0
    assert np.array_equal(np.diag(rho), np.abs(c) ** 2 + 0.0j)

    # product-overlap path against the joint-state premeasurement oracle
    rng = np.random.default_rng(808)
    q, shells = 3, 3
    amps = _random_unit(rng, q)
    shell_states = np.array([_random_unit(rng, q) for _ in range(q)])
    gram = shell_states.conj() @ shell_states.T
    fast = charge_reduced_density(ChargeModel(amps, shells, gram)).entries

    joint = StateVector(amps, SubsystemSplit((q,)))
    coupling = PointerCoupling(np.eye(q)[0], shell_states)
    for _ in range(shells):
        joint = ideal_premeasure(joint, coupling)
    slow = partial_trace(density_of(joint), (0,)).entries
    assert np.max(np.abs(fast - slow)) < 1e-12
    _report(8, "charge superselection")


# -------------------------------------------------------------------------
# 9. decay, revival, and monitored suppression

def test_criterion_9_decay_and_revival():
    cfg = DecayConfig()
    gamma = golden_rule_rate(cfg)
    t_rev = revival_time(cfg)

    trace = decay_run(cfg)[0]
    t, rec = trace.as_arrays()
    window = t <= 3.0 / gamma
    model = np.exp(-gamma * t[window])
    assert np.max(np.abs(rec["survival"][window] - model) / model) < 0.10
    peak_t, peak_p = survival_peak(trace, 0.6 * t_rev)
    assert abs(peak_t - t_rev) / t_rev < 0.05
    assert peak_p > 0.5

    spec = SCENARIOS["decay-monitored"]  # DecayConfig(monitored=True) at its defaults
    monitored = spec.run({key: p.default for key, p in spec.params.items()}, 0, spec.default_stride)
    assert monitored.summary["fit_residual"] < 0.01
    _, late_p = survival_peak(monitored.trace, 0.6 * t_rev)
    assert late_p < 0.05
    _report(9, "decay, revival, monitored suppression")


# -------------------------------------------------------------------------
# 10. Born frequencies

def test_criterion_10_born_frequencies():
    runs = 100_000
    amp_rng = np.random.default_rng(1010)
    for i in range(20):
        n = 2 + i % 5
        amps = _random_unit(amp_rng, n)
        chain = MeasurementChain(amps, seed=7000 + i)
        record = run_chain(chain, runs)
        p = chain.probabilities
        sigma = np.sqrt(p * (1.0 - p) / runs)
        assert np.all(np.abs(record.frequencies - p) <= 3.0 * sigma)
        # byte-identical repetition under the same seed
        again = run_chain(chain, runs)
        assert np.array_equal(record.counts, again.counts)
    _report(10, "Born frequency agreement")
