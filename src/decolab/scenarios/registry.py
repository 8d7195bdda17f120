"""Named scenario presets with declared, bounded parameters.

Each entry knows how to validate its parameter map and how to run itself,
producing a time-indexed trace, a summary of fitted quantities, and an
invariant audit (trace drift, hermiticity drift, minimum eigenvalue).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ConfigError
from ..hilbert import offdiagonal_coherence
from ..localization import ObservableTrace, record_steps
from .twoslit import TwoSlitConfig, two_slit_run, visibility_exponent
from .chiral import ChiralConfig, chiral_run, classify_regime, relaxation_rate
from .charge import ChargeModel, charge_reduced_density
from .decay import DecayConfig, decay_run, golden_rule_rate, revival_time, survival_peak, exponential_fit
from .chain import MeasurementChain, run_chain


@dataclass(frozen=True)
class ParamSpec:
    default: float | int | bool
    kind: type = float
    minimum: float | None = None
    maximum: float | None = None
    exclusive_min: bool = False
    constraint: str = ""

    def coerce(self, raw: str):
        try:
            if self.kind is bool:
                if raw.lower() in ("true", "1", "yes"):
                    return True
                if raw.lower() in ("false", "0", "no"):
                    return False
                raise ValueError(raw)
            return self.kind(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {raw!r} as {self.kind.__name__}") from exc

    def check(self, name: str, value):
        bad_low = self.minimum is not None and (
            value < self.minimum or (self.exclusive_min and value == self.minimum)
        )
        if bad_low:
            raise ConfigError(f"out of bounds: {self.constraint or f'{name} >= {self.minimum}'}")
        if self.maximum is not None and value > self.maximum:
            raise ConfigError(f"out of bounds: {self.constraint or f'{name} <= {self.maximum}'}")


@dataclass
class ScenarioResult:
    trace: ObservableTrace
    summary: dict
    audit: dict


@dataclass(frozen=True)
class ScenarioDef:
    name: str
    description: str
    params: dict
    run: Callable[[dict, int, int], ScenarioResult]
    time_column: str = "time"
    default_stride: int = 1


def _min_eig_2x2(rho: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(rho)[0])


def _run_two_slit(p: dict, seed: int, record_stride: int) -> ScenarioResult:
    cfg = TwoSlitConfig(
        slit_separation=p["slit_separation"], packet_width=p["packet_width"],
        mass=p["mass"], lam=p["lambda"], t_final=p["t_final"], dt=p["dt"],
        n_points=int(p["n_points"]), record_stride=record_stride,
    )
    trace, final = two_slit_run(cfg)
    t, rec = trace.as_arrays()
    v = rec["visibility"]
    below = np.nonzero(v <= 0.5)[0]
    half_life = float(t[below[0]]) if len(below) else None
    summary = {
        "visibility_half_life": half_life if half_life is not None else "none detected",
    }
    if cfg.lam > 0:
        k, resid = visibility_exponent(trace)
        summary["decay_exponent"] = k
        summary["decay_exponent_residual"] = resid
    audit = final.audit()
    return ScenarioResult(trace, summary, audit)


def _run_chiral(p: dict, seed: int, record_stride: int) -> ScenarioResult:
    cfg = ChiralConfig(omega=p["omega"], gamma=p["gamma"], t_final=p["t_final"],
                       dt=p["dt"], record_stride=record_stride)
    trace, rho = chiral_run(cfg)
    t, rec = trace.as_arrays()
    summary = {"regime": classify_regime(cfg)}
    if cfg.gamma > 0 and cfg.omega > 0:
        try:
            summary["relaxation_rate"] = relaxation_rate(trace)
        except ValueError:
            summary["relaxation_rate"] = "not resolved"
    audit = {
        "trace_drift": float(np.max(np.abs(rec["trace"] - 1.0))),
        "hermiticity_drift": float(np.max(np.abs(rho - rho.conj().T))),
        "min_eigenvalue": _min_eig_2x2(rho),
    }
    return ScenarioResult(trace, summary, audit)


def _run_charge(p: dict, seed: int, record_stride: int) -> ScenarioResult:
    q = int(p["n_charges"])
    shells = int(p["shells"])
    overlap = p["overlap"]
    amps = np.full(q, 1.0 / math.sqrt(q))
    gram = np.full((q, q), overlap, dtype=complex)
    np.fill_diagonal(gram, 1.0)
    trace = ObservableTrace()
    for r in record_steps(shells, max(1, record_stride)):
        reduced = charge_reduced_density(ChargeModel(amps, r, gram))
        trace.append(float(r), {"offdiagonal_sum": offdiagonal_coherence(reduced)})
    rho = reduced.entries  # the last record is at r = shells
    summary = {
        "final_offdiagonal_sum": offdiagonal_coherence(reduced),
        "diagonal_matches_born": float(np.max(np.abs(np.diag(rho).real - np.abs(amps) ** 2))),
    }
    audit = {
        "trace_drift": abs(float(np.trace(rho).real) - 1.0),
        "hermiticity_drift": float(np.max(np.abs(rho - rho.conj().T))),
        "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]),
    }
    return ScenarioResult(trace, summary, audit)


def _run_decay(p: dict, seed: int, record_stride: int, monitored: bool) -> ScenarioResult:
    cfg = DecayConfig(
        n_modes=int(p["n_modes"]), mode_spacing=p["mode_spacing"], coupling=p["coupling"],
        monitored=monitored, monitor_rate=p["monitor_rate"], t_final=p["t_final"],
        dt=p["dt"], record_stride=record_stride,
    )
    trace, rho = decay_run(cfg)
    t, rec = trace.as_arrays()
    try:
        rate, _, resid = exponential_fit(trace)
    except ValueError:
        rate = resid = "not resolved"
    t_rev = revival_time(cfg)
    try:
        peak_t, peak_p = survival_peak(trace, 0.6 * t_rev)
    except ValueError:
        peak_t = peak_p = "no revival in window"
    summary = {
        "golden_rule_rate": golden_rule_rate(cfg),
        "fitted_rate": rate,
        "fit_residual": resid,
        "revival_time_nominal": t_rev,
        "late_peak_time": peak_t,
        "late_peak_survival": peak_p,
    }
    if rho is None:
        # unitary path: norm conservation at t=0 is the meaningful audit
        audit = {"trace_drift": abs(1.0 - float(rec["survival"][0])),
                 "hermiticity_drift": 0.0, "min_eigenvalue": 0.0}
    else:
        audit = {
            "trace_drift": abs(float(np.trace(rho).real) - 1.0),
            "hermiticity_drift": float(np.max(np.abs(rho - rho.conj().T))),
            "min_eigenvalue": float(np.linalg.eigvalsh(rho)[0]),
        }
    return ScenarioResult(trace, summary, audit)


def _run_chain(p: dict, seed: int, record_stride: int) -> ScenarioResult:
    n = int(p["n_outcomes"])
    runs = int(p["runs"])
    amp_rng = np.random.Generator(np.random.Philox(key=int(p["amplitude_seed"])))
    raw = amp_rng.normal(size=n) + 1j * amp_rng.normal(size=n)
    amps = raw / np.linalg.norm(raw)
    chain = MeasurementChain(amps, seed=seed)
    record = run_chain(chain, runs)
    probs = chain.probabilities
    # cumulative empirical frequencies (re-sampled prefix-wise for the trace)
    rng = np.random.Generator(np.random.Philox(key=seed))
    u = rng.random(runs)
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    outcomes = np.searchsorted(edges, u, side="right")
    trace = ObservableTrace()
    stride = max(1, record_stride)
    for m in range(stride, runs + 1, stride):
        counts = np.bincount(outcomes[:m], minlength=n)
        trace.append(float(m), {f"f_{k}": counts[k] / m for k in range(n)})
    freqs = record.frequencies
    sigma = np.sqrt(probs * (1 - probs) / runs)
    summary = {
        "max_abs_deviation": float(np.max(np.abs(freqs - probs))),
        "within_3_sigma": bool(np.all(np.abs(freqs - probs) <= 3 * sigma + 1e-15)),
    }
    audit = {"trace_drift": abs(float(probs.sum()) - 1.0), "hermiticity_drift": 0.0,
             "min_eigenvalue": float(probs.min())}
    return ScenarioResult(trace, summary, audit)


SCENARIOS: dict[str, ScenarioDef] = {
    "two-slit": ScenarioDef(
        name="two-slit",
        description="Interference visibility of two separated packets under localization",
        params={
            "slit_separation": ParamSpec(1.0, float, minimum=0.0, exclusive_min=True, constraint="slit_separation > 0"),
            "packet_width": ParamSpec(0.05, float, minimum=0.0, exclusive_min=True, constraint="packet_width > 0"),
            "mass": ParamSpec(math.inf, float, minimum=0.0, exclusive_min=True, constraint="mass > 0"),
            "lambda": ParamSpec(1.0, float, minimum=0.0, constraint="lambda >= 0"),
            "t_final": ParamSpec(1.0, float, minimum=0.0, exclusive_min=True, constraint="t_final > 0"),
            "dt": ParamSpec(0.01, float, minimum=0.0, exclusive_min=True, constraint="dt > 0"),
            "n_points": ParamSpec(256, int, minimum=16, constraint="n_points >= 16"),
        },
        run=_run_two_slit,
        default_stride=1,
    ),
    "chiral-sugar": ScenarioDef(
        name="chiral-sugar",
        description="Strongly monitored chiral molecule (sugar-like); the physical "
                    "anchor is a ~1e-9 s decoherence time, shipped here in scaled "
                    "units as gamma = 50*omega",
        params={
            "omega": ParamSpec(1.0, float, minimum=0.0, constraint="omega >= 0"),
            "gamma": ParamSpec(50.0, float, minimum=0.0, constraint="gamma >= 0"),
            "t_final": ParamSpec(100.0, float, minimum=0.0, exclusive_min=True, constraint="t_final > 0"),
            "dt": ParamSpec(0.001, float, minimum=0.0, exclusive_min=True, constraint="dt > 0"),
        },
        run=_run_chiral,
        default_stride=100,
    ),
    "chiral-ph3-like": ScenarioDef(
        name="chiral-ph3-like",
        description="Weakly monitored chiral molecule: near-unitary parity oscillation",
        params={
            "omega": ParamSpec(1.0, float, minimum=0.0, constraint="omega >= 0"),
            "gamma": ParamSpec(0.05, float, minimum=0.0, constraint="gamma >= 0"),
            "t_final": ParamSpec(20.0, float, minimum=0.0, exclusive_min=True, constraint="t_final > 0"),
            "dt": ParamSpec(0.001, float, minimum=0.0, exclusive_min=True, constraint="dt > 0"),
        },
        run=_run_chiral,
        default_stride=20,
    ),
    "charge-shells": ScenarioDef(
        name="charge-shells",
        description="Charge superposition decohered by its Coulomb field, shell by shell",
        params={
            "n_charges": ParamSpec(2, int, minimum=2, constraint="n_charges >= 2"),
            "shells": ParamSpec(1000, int, minimum=0, constraint="shells >= 0"),
            "overlap": ParamSpec(0.99, float, minimum=0.0, maximum=1.0, constraint="0 <= overlap <= 1"),
        },
        run=_run_charge,
        time_column="shell",
        default_stride=50,
    ),
    "decay-cavity": ScenarioDef(
        name="decay-cavity",
        description="Unitary decay into a uniform discrete bath; revival at 2*pi/spacing",
        params={
            "n_modes": ParamSpec(161, int, minimum=1, constraint="n_modes >= 1"),
            "mode_spacing": ParamSpec(0.5, float, minimum=0.0, exclusive_min=True, constraint="mode_spacing > 0"),
            "coupling": ParamSpec(0.5641895835477563, float, minimum=0.0, exclusive_min=True, constraint="coupling > 0"),
            "monitor_rate": ParamSpec(0.0, float, minimum=0.0, constraint="monitor_rate >= 0"),
            "t_final": ParamSpec(16.0, float, minimum=0.0, exclusive_min=True, constraint="t_final > 0"),
            "dt": ParamSpec(0.005, float, minimum=0.0, exclusive_min=True, constraint="dt > 0"),
        },
        run=lambda p, s, r: _run_decay(p, s, r, monitored=False),
        default_stride=10,
    ),
    "decay-monitored": ScenarioDef(
        name="decay-monitored",
        description="Same bath with excited/decayed dephasing: exponential decay, no revival",
        params={
            "n_modes": ParamSpec(161, int, minimum=1, constraint="n_modes >= 1"),
            "mode_spacing": ParamSpec(0.5, float, minimum=0.0, exclusive_min=True, constraint="mode_spacing > 0"),
            "coupling": ParamSpec(0.5641895835477563, float, minimum=0.0, exclusive_min=True, constraint="coupling > 0"),
            "monitor_rate": ParamSpec(80.0, float, minimum=0.0, constraint="monitor_rate >= 0"),
            "t_final": ParamSpec(16.0, float, minimum=0.0, exclusive_min=True, constraint="t_final > 0"),
            "dt": ParamSpec(0.005, float, minimum=0.0, exclusive_min=True, constraint="dt > 0"),
        },
        run=lambda p, s, r: _run_decay(p, s, r, monitored=True),
        default_stride=10,
    ),
    "born-chain": ScenarioDef(
        name="born-chain",
        description="Measurement chain sampling: empirical frequencies against |c_n|^2",
        params={
            "n_outcomes": ParamSpec(4, int, minimum=2, constraint="n_outcomes >= 2"),
            "runs": ParamSpec(100000, int, minimum=1, constraint="runs >= 1"),
            "amplitude_seed": ParamSpec(1, int, minimum=0, constraint="amplitude_seed >= 0"),
        },
        run=_run_chain,
        time_column="runs",
        default_stride=1000,
    ),
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)
