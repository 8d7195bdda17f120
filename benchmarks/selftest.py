"""Self-test of the benchmark's checks.

    python3 benchmarks/selftest.py

Each case runs a small instance of the program, shows that the check
accepts the real output, and that it rejects the same output perturbed
slightly (a visibility scaled by 1 + 1e-6, one wrong overlap, one flipped
byte, ...), so that no check passes vacuously.  Exits 1 if any case does
not behave so.
"""
from __future__ import annotations

import math
import sys

import bootstrap

bootstrap.require_decolab()

import numpy as np  # noqa: E402

import checks  # noqa: E402
from decolab import hilbert, premeasure  # noqa: E402
from decolab import scenarios as registry  # noqa: E402

CASES = []


def case(fn):
    CASES.append(fn)
    return fn


def perturbed(a, index, factor=None, add=None):
    a = np.array(a, copy=True)
    a[index] = a[index] * factor if factor is not None else a[index] + add
    return a


def defaults(name: str) -> dict:
    return {k: spec.default for k, spec in registry.SCENARIOS[name].params.items()}


@case
def visibility():
    cfg = registry.TwoSlitConfig(n_points=128, t_final=0.2, dt=0.01)
    trace, _ = registry.two_slit_run(cfg)
    t, rec = trace.as_arrays()
    _, x_r, x_l, _ = checks.two_slit_psi(128, cfg.slit_separation, cfg.packet_width)
    return checks.check_visibility, (t, rec["visibility"], cfg.lam, x_r, x_l), {
        "visibility x (1 + 1e-6)": (t, perturbed(rec["visibility"], -1, factor=1 + 1e-6), cfg.lam, x_r, x_l),
    }


def _finite_two_slit():
    cfg = registry.TwoSlitConfig(n_points=128, slit_separation=2.0, packet_width=0.15, mass=10.0,
                                 lam=1.0, t_final=0.2, dt=0.01)
    _, final = registry.two_slit_run(cfg)
    psi, _, _, dx = checks.two_slit_psi(128, 2.0, 0.15)
    x, _ = checks.grid_points(128, 4.0)
    return cfg, final.rho, psi, x, dx


@case
def moments():
    cfg, rho, psi, x, dx = _finite_two_slit()
    m0 = checks.grid_moments(np.outer(psi, psi.conj()), x, dx)
    expected = checks.strang_moments(m0, cfg.mass, cfg.lam, cfg.t_final, cfg.dt)
    got = checks.grid_moments(rho, x, dx)
    scale = math.sqrt(expected[0] * expected[2])
    return checks.check_moments, (got, expected), {
        "var_xx x (1 + 1e-6)": (perturbed(got, 0, factor=1 + 1e-6), expected),
        "cov_xp + 1e-6 scale": (perturbed(got, 1, add=1e-6 * scale), expected),
        "var_pp x (1 + 1e-6)": (perturbed(got, 2, factor=1 + 1e-6), expected),
    }


@case
def grid_state():
    _, rho, _, _, dx = _finite_two_slit()
    n = len(rho)
    eps = 1e-6 / dx
    asym = rho.copy()
    asym[3, 5] += 1e-6
    negative = rho.copy()  # move weight from x = 0, between the packets, onto a packet centre
    negative[n // 2, n // 2] -= eps
    negative[5 * n // 8, 5 * n // 8] += eps
    edge = (1 - 1e-6) * rho  # mix in a state at the edge point: still a valid state
    edge[0, 0] += eps
    return checks.check_grid_state, (rho, dx), {
        "trace x (1 + 1e-6)": (rho * (1 + 1e-6), dx),
        "one entry off hermitian": (asym, dx),
        "negative eigenvalue": (negative, dx),
        "density at the edge": (edge, dx),
    }


@case
def chiral():
    cfg = registry.ChiralConfig(omega=1.0, gamma=0.05, t_final=2.0, dt=0.001, record_stride=100)
    trace, _ = registry.chiral_run(cfg)
    t, rec = trace.as_arrays()
    tol = checks.chiral_tolerance(cfg.omega, cfg.gamma, cfg.dt)
    args = (cfg.omega, cfg.gamma, cfg.dt)
    return checks.check_chiral, (t, rec["p_left"], rec["coherence"], *args), {
        "p_left + 2 tol": (t, perturbed(rec["p_left"], 7, add=2 * tol), rec["coherence"], *args),
        "coherence + 2 tol": (t, rec["p_left"], perturbed(rec["coherence"], 7, add=2 * tol), *args),
    }


@case
def decay_unitary():
    cfg = registry.DecayConfig()
    trace, _ = registry.decay_run(cfg)
    t, rec = trace.as_arrays()
    h = checks.decay_hamiltonian(cfg.n_modes, cfg.mode_spacing, cfg.coupling)
    return checks.check_decay_unitary, (t, rec["survival"], h), {
        "survival x (1 + 1e-6)": (t, perturbed(rec["survival"], 5, factor=1 + 1e-6), h),
    }


@case
def decay_monitored():
    cfg = registry.DecayConfig(n_modes=41, monitored=True, monitor_rate=80.0, t_final=2.0, dt=0.005, record_stride=10)
    trace, rho = registry.decay_run(cfg)
    t, rec = trace.as_arrays()
    h = checks.decay_hamiltonian(cfg.n_modes, cfg.mode_spacing, cfg.coupling)
    oracle = checks.monitored_decay_oracle(h, cfg.monitor_rate, cfg.dt, 400, 10)
    s = rec["survival"]
    shifted = rho.copy()
    shifted[0, 0] += 1e-6
    return checks.check_decay_monitored, (t, s, rho, oracle), {
        "survival x (1 + 1e-6)": (t, perturbed(s, 20, factor=1 + 1e-6), rho, oracle),
        "final trace + 1e-6": (t, s, shifted, oracle),
    }


@case
def decay_rate():
    p = defaults("decay-monitored")
    fitted = registry.SCENARIOS["decay-monitored"].run(p, 0, 10).summary["fitted_rate"]
    predicted = checks.band_limited_golden_rule(p["n_modes"], p["mode_spacing"], p["coupling"], p["monitor_rate"])
    return checks.check_rate, (fitted, predicted), {"fitted rate x 1.05": (fitted * 1.05, predicted)}


def _chain():
    rng = np.random.default_rng(5)
    amps = checks.random_unit(rng, 2)
    readies = [checks.random_unit(rng, 2) for _ in range(3)]
    pointer_sets = [np.array([checks.random_unit(rng, 2) for _ in range(2)]) for _ in range(3)]
    couplings = [premeasure.PointerCoupling(r, p) for r, p in zip(readies, pointer_sets)]
    psi = hilbert.StateVector(amps, hilbert.SubsystemSplit((2,)))
    for c in couplings:
        psi = premeasure.ideal_premeasure(psi, c)
    return rng, amps, readies, pointer_sets, couplings, psi


@case
def reduced_state():
    rng, amps, _, pointer_sets, _, psi = _chain()
    reduced = hilbert.partial_trace(hilbert.density_of(psi), (0,)).entries
    wrong = [p.copy() for p in pointer_sets]
    wrong[1][0] = checks.random_unit(rng, 2)
    return checks.check_reduced, (reduced, checks.reduced_oracle(amps, pointer_sets)), {
        "one wrong overlap": (reduced, checks.reduced_oracle(amps, wrong)),
    }


@case
def schmidt():
    _, amps, _, pointer_sets, _, psi = _chain()
    expected = checks.reduced_oracle(amps, pointer_sets)
    dec = hilbert.schmidt(psi, (0,))
    entropy = hilbert.entanglement_entropy(hilbert.partial_trace(hilbert.density_of(psi), (0,)))
    return checks.check_schmidt, (dec.probabilities, entropy, expected), {
        "probability x (1 + 1e-6)": (perturbed(dec.probabilities, 0, factor=1 + 1e-6), entropy, expected),
        "entropy + 1e-8": (dec.probabilities, entropy + 1e-8, expected),
    }


@case
def decoherence_factors():
    _, _, _, pointer_sets, _, _ = _chain()
    chain = premeasure.ScattererChain([checks.gram(p) for p in pointer_sets])
    factors = {(0, 1, k): premeasure.decoherence_factor(chain, 0, 1, k) for k in (1, 2, 3)}
    bad = dict(factors)
    bad[(0, 1, 3)] *= 1 + 1e-6
    return checks.check_decoherence_factors, (factors, pointer_sets), {"factor x (1 + 1e-6)": (bad, pointer_sets)}


@case
def erase():
    _, amps, readies, _, couplings, psi = _chain()
    erased = premeasure.erase(psi, couplings, range(3)).amplitudes
    initial = amps
    for r in readies:
        initial = np.kron(initial, r)
    return checks.check_erased, (erased, initial), {"amplitude + 1e-9": (perturbed(erased, 3, add=1e-9), initial)}


@case
def charge():
    p = {"n_charges": 3, "shells": 200, "overlap": 0.99}
    t, rec = registry.SCENARIOS["charge-shells"].run(p, 0, 1).trace.as_arrays()
    off = rec["offdiagonal_sum"]
    return checks.check_charge, (t, off, 3, 0.99), {"sum x (1 + 1e-6)": (t, perturbed(off, 100, factor=1 + 1e-6), 3, 0.99)}


@case
def born():
    p = {"n_outcomes": 4, "runs": 100000, "amplitude_seed": 3}
    _, rec = registry.SCENARIOS["born-chain"].run(p, 7, 1000).trace.as_arrays()
    freqs = np.array([rec[f"f_{k}"][-1] for k in range(4)])
    probs = checks.born_probabilities(3, 4)
    shift = 6.0 * np.sqrt(probs[0] * (1 - probs[0]) / p["runs"])
    bad = freqs + np.array([shift, -shift, 0.0, 0.0])
    return checks.check_born, (freqs, probs, p["runs"]), {"6 sigma shift": (bad, probs, p["runs"])}


@case
def last_time():
    t = np.linspace(0.0, 1.0, 11)
    return checks.check_last_time, (t, 1.0), {"last row at 0.9": (t[:-1], 1.0)}


@case
def identical():
    data = b"time,survival\n0,1\n"
    return checks.check_identical, (data, bytes(data)), {"one flipped byte": (data, data[:-2] + b"2\n")}


@case
def exponent():
    return checks.check_exponent, (0.0100503 * (1 + 1e-7), 0.0100503), {"x (1 + 1e-4)": (0.0100503 * (1 + 1e-4), 0.0100503)}


def main() -> int:
    bad = 0
    for make in CASES:
        check, good, perturbations = make()
        try:
            check(*good)
            print(f"ok    {make.__name__}: accepts the program's output")
        except checks.CheckFailed as exc:
            bad += 1
            print(f"FAIL  {make.__name__}: rejects the program's output: {exc}")
        for label, args in perturbations.items():
            try:
                check(*args)
                bad += 1
                print(f"FAIL  {make.__name__}: accepts {label}")
            except checks.CheckFailed as exc:
                print(f"ok    {make.__name__}: rejects {label} ({exc})")
    print(f"{len(CASES)} checks, {bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
