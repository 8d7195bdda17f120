"""Named scenario presets, derived from the declared fields of the config dataclasses.

A preset is a config class, the defaults it overrides, the fields it
exposes, a record stride, a time column and a description.  Its `params`
are the exposed fields' declarations (`decolab.params`), keyed by config
key; `configure` builds and so validates the config object, and `run`
runs it, producing a time-indexed trace, a summary of fitted quantities,
and an invariant audit of the final state (`hilbert.audit`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from ..hilbert import audit, offdiagonal_coherence
from ..localization import ObservableTrace, fit_exponent, record_steps
from ..params import Param, declared
from .twoslit import TwoSlitConfig, two_slit_run
from .chiral import ChiralConfig, chiral_run, classify_regime
from .charge import ChargeConfig, ChargeModel, charge_reduced_density
from .decay import DecayConfig, band_limited_rate, decay_run, golden_rule_rate, revival_time, survival_peak
from .chain import ChainConfig, MeasurementChain, run_chain

BUDGET = 2 ** 17  # float64 entries in one chunk of charge records: 1 MiB


@dataclass
class ScenarioResult:
    trace: ObservableTrace
    summary: dict
    audit: dict


@dataclass(frozen=True)
class ScenarioDef:
    name: str
    description: str
    params: dict[str, Param]  # config key -> declaration, with this preset's default
    configure: Callable[[dict, int], object]  # (parameters, record stride) -> validated config
    run: Callable[[dict, int, int], ScenarioResult]  # (parameters, seed, record stride)
    time_column: str = "time"
    default_stride: int = 1


def preset(name: str, description: str, config: type, body: Callable[[object, int], ScenarioResult], *,
           stride: int, time_column: str = "time", hide: tuple[str, ...] = (), **overrides) -> ScenarioDef:
    """A scenario that runs body(config(...), seed) on every declared field of config but those in hide.

    overrides gives a declared field a new default, or any other field a fixed value.
    """
    exposed = {f: d for f, d in declared(config).items() if f not in hide}
    params = {d.key: replace(d, default=overrides.pop(f, d.default)) for f, d in exposed.items()}

    def configure(p: dict, record_stride: int):
        return config(**overrides, **{f: p[d.key] for f, d in exposed.items()}, record_stride=record_stride)

    def run(p: dict, seed: int, record_stride: int) -> ScenarioResult:
        return body(configure(p, record_stride), seed)

    return ScenarioDef(name, description, params, configure, run, time_column, stride)


def _run_two_slit(cfg: TwoSlitConfig, seed: int) -> ScenarioResult:
    trace, final = two_slit_run(cfg)
    t, rec = trace.as_arrays()
    v = rec["visibility"]
    below = np.nonzero(v <= 0.5)[0]
    half_life = float(t[below[0]]) if len(below) else None
    summary = {
        "visibility_half_life": half_life if half_life is not None else "none detected",
    }
    if cfg.lam > 0:
        try:
            k, _, resid = fit_exponent(t, v, floor=1e-12)
        except ValueError:
            k = resid = "not resolved"
        summary["decay_exponent"] = k
        summary["decay_exponent_residual"] = resid
    return ScenarioResult(trace, summary, final.audit())


def _run_chiral(cfg: ChiralConfig, seed: int) -> ScenarioResult:
    trace, rho = chiral_run(cfg)
    t, rec = trace.as_arrays()
    summary = {"regime": classify_regime(cfg)}
    if cfg.gamma > 0 and cfg.omega > 0:
        # P_L - 1/2 relaxes as exp(-rate t) under strong monitoring; in the unitary regime it oscillates
        try:
            rate = fit_exponent(t, 2.0 * (rec["p_left"] - 0.5), (0.05 * t[-1], math.inf), floor=1e-6)[0]
        except ValueError:
            rate = 0.0  # already relaxed: too few samples above the floor
        summary["relaxation_rate"] = rate if rate > 0 else "not resolved"
    return ScenarioResult(trace, summary, audit(rho))


def _run_charge(cfg: ChargeConfig, seed: int) -> ScenarioResult:
    """Records the off-diagonal sum of rho = c c^dag * (G^T)^r, unvalidated, over stacks of
    max(1, BUDGET // n_charges^2) shell counts r: no temporary grows with the record count.  The
    amplitudes and the Gram matrix are real, so the stacks are float64; charge_reduced_density stays complex."""
    q = cfg.n_charges
    amps = np.full(q, 1.0 / math.sqrt(q))
    gram = np.full((q, q), cfg.overlap)
    np.fill_diagonal(gram, 1.0)
    model = ChargeModel(amps, cfg.shells, gram)  # validates the Gram matrix once per run
    coherent, gram_t = np.outer(amps, amps), gram.T
    shells = np.array(record_steps(cfg.shells, cfg.record_stride))
    sums = np.empty(len(shells))
    chunk = max(1, BUDGET // q**2)
    for i in range(0, len(shells), chunk):
        sums[i:i + chunk] = offdiagonal_coherence(coherent * gram_t ** shells[i:i + chunk, None, None])
    trace = ObservableTrace(shells, {"offdiagonal_sum": sums})
    rho = charge_reduced_density(model).entries  # validated once, at r = shells
    summary = {
        "final_offdiagonal_sum": float(sums[-1]),  # the last record, r = shells
        "diagonal_matches_born": float(np.max(np.abs(np.diag(rho).real - np.abs(amps) ** 2))),
    }
    return ScenarioResult(trace, summary, audit(rho))


def _run_decay(cfg: DecayConfig, seed: int) -> ScenarioResult:
    trace, rho = decay_run(cfg)
    t, rec = trace.as_arrays()
    p = rec["survival"]
    t_rev = revival_time(cfg)
    try:  # fit over [0, 3/rate], rate from a first pass over the run's first quarter, ended before any revival
        first = fit_exponent(t, p, (0.0, max(min(t[len(t) // 4], 0.6 * t_rev), t[1])))[0]
        if first <= 0:
            raise ValueError(f"first-pass rate {first:.6g} is not positive: no decay to fit")
        rate, _, resid = fit_exponent(t, p, (0.0, 3.0 / first))
    except ValueError:
        rate = resid = "not resolved"
    try:
        peak_t, peak_p = survival_peak(trace, 0.6 * t_rev)
    except ValueError:
        peak_t = peak_p = "no revival in window"
    summary = {"golden_rule_rate": golden_rule_rate(cfg)}
    if cfg.monitored:  # the rate the monitored fit should match
        summary["band_limited_rate"] = band_limited_rate(cfg)
    summary.update({
        "fitted_rate": rate,
        "fit_residual": resid,
        "revival_time_nominal": t_rev,
        "late_peak_time": peak_t,
        "late_peak_survival": peak_p,
    })
    if rho is None:  # unitary path: norm conservation at t = 0 is the one invariant measured
        checked = {"trace_drift": abs(1.0 - float(p[0])), "hermiticity_drift": None, "min_eigenvalue": None,
                   "min_eigenvalue_bound": None}
    else:
        checked = audit(rho)
    return ScenarioResult(trace, summary, checked)


def _run_chain(cfg: ChainConfig, seed: int) -> ScenarioResult:
    n, runs = cfg.n_outcomes, cfg.runs
    amp_rng = np.random.Generator(np.random.Philox(key=cfg.amplitude_seed))
    raw = amp_rng.normal(size=n) + 1j * amp_rng.normal(size=n)
    amps = raw / np.linalg.norm(raw)
    chain = MeasurementChain(amps, seed=seed)
    record = run_chain(chain, runs)
    probs = chain.probabilities
    # outcome k's frequency among the first m runs, from its counts in the chunks between record steps
    steps = np.array(record_steps(runs, cfg.record_stride))  # 0, then every m
    m, wide = steps[1:], np.min_scalar_type(runs)  # an integer that holds every count
    trace = ObservableTrace(m, {f"f_{k}": np.add.reduceat(record.outcomes == k, steps[:-1], dtype=wide).cumsum() / m
                                for k in range(n)})
    freqs = record.frequencies
    sigma = np.sqrt(probs * (1 - probs) / runs)
    summary = {
        "max_abs_deviation": float(np.max(np.abs(freqs - probs))),
        "within_3_sigma": bool(np.all(np.abs(freqs - probs) <= 3 * sigma + 1e-15)),
    }
    return ScenarioResult(trace, summary, audit(np.diag(probs)))  # the decohered state diag(|c_n|^2)


SCENARIOS: dict[str, ScenarioDef] = {s.name: s for s in (
    preset("two-slit", "Interference visibility of two separated packets under localization",
           TwoSlitConfig, _run_two_slit, stride=1),
    preset("chiral-sugar", "Strongly monitored chiral molecule (sugar-like); the physical "
                           "anchor is a ~1e-9 s decoherence time, shipped here in scaled "
                           "units as gamma = 50*omega",
           ChiralConfig, _run_chiral, stride=100, gamma=50.0, t_final=100.0),
    preset("chiral-ph3-like", "Weakly monitored chiral molecule: near-unitary parity oscillation",
           ChiralConfig, _run_chiral, stride=20, gamma=0.05),
    preset("charge-shells", "Charge superposition decohered by its Coulomb field, shell by shell",
           ChargeConfig, _run_charge, stride=50, time_column="shell"),
    preset("decay-cavity", "Unitary decay into a uniform discrete bath; revival at 2*pi/spacing",
           DecayConfig, _run_decay, stride=10, hide=("monitor_rate",)),
    preset("decay-monitored", "Same bath with excited/decayed dephasing: exponential decay, no revival",
           DecayConfig, _run_decay, stride=10, monitored=True),
    preset("born-chain", "Measurement chain sampling: empirical frequencies against |c_n|^2",
           ChainConfig, _run_chain, stride=1000, time_column="runs"),
)}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)
