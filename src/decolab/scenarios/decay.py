"""Decay of an excited level into a discretized bath of field modes.

Uniformly spaced modes with uniform coupling (a cavity-like bath): the
unitary survival probability is near-exponential at the golden-rule rate
until the finite mode spacing causes a coherent revival at 2*pi/spacing.
Monitoring dephases the excited/decayed coherences each step, which
suppresses the revival and leaves an almost exactly exponential decay.

Runs work in the eigenbasis of H, where the unitary part of a step is an
elementwise phase and the dephasing a rank-two update, so a monitored step
costs O(n^2) rather than two O(n^3) matrix products.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
from ..localization import ObservableTrace, record_steps, step_count
from ..params import Declared, param


@dataclass
class DecayConfig(Declared):
    n_modes: int = param(161, at_least=1)
    mode_spacing: float = param(0.5, above=0)
    coupling: float = param(0.5641895835477563, above=0)  # golden-rule rate 4.0
    monitored: bool = False
    monitor_rate: float = param(80.0, at_least=0)  # read only when monitored
    t_final: float = param(16.0, above=0)
    dt: float = param(0.005, above=0)
    record_stride: int = 10


def golden_rule_rate(cfg: DecayConfig) -> float:
    """Fermi golden rule for a flat band: 2 pi g^2 / mode spacing."""
    return 2.0 * math.pi * cfg.coupling**2 / cfg.mode_spacing


def _hamiltonian(cfg: DecayConfig) -> np.ndarray:
    n = cfg.n_modes
    h = np.zeros((n + 1, n + 1))
    h[0, 1:] = cfg.coupling
    h[1:, 0] = cfg.coupling
    h[np.arange(1, n + 1), np.arange(1, n + 1)] = (np.arange(n) - (n - 1) / 2.0) * cfg.mode_spacing  # detunings
    return h


def _check_span(cfg: DecayConfig):
    span = cfg.n_modes * cfg.mode_spacing
    if cfg.n_modes > 1 and span < 4.0 * golden_rule_rate(cfg):
        raise PreconditionError(
            f"bath span {span:.3g} does not cover the linewidth {golden_rule_rate(cfg):.3g}"
        )


def decay_run(cfg: DecayConfig) -> tuple[ObservableTrace, np.ndarray | None]:
    """Survival probability P(t) of the excited level, and the final site-basis density matrix (monitored only).

    Both paths work in the eigenbasis of H.  Unmonitored: the exact
    amplitude sum_k |<0|k>|^2 exp(-i E_k t) at each record time.
    Monitored: each step is the exact unitary, an elementwise phase
    u_j conj(u_k) on rho with u = exp(-i E dt), followed by dephasing
    exp(-monitor_rate*dt) of the excited/decayed coherences (populations
    untouched), a rank-two update.
    """
    n_steps = step_count(cfg.t_final, cfg.dt)
    _check_span(cfg)
    steps = record_steps(n_steps, cfg.record_stride)
    evals, vecs = np.linalg.eigh(_hamiltonian(cfg))
    times = np.array(steps) * cfg.dt
    if not cfg.monitored:
        weights = np.abs(vecs[0, :]) ** 2
        amps = (weights[None, :] * np.exp(-1j * np.outer(times, evals))).sum(axis=1)
        # scalar abs and ** keep the CSV bytes: numpy's array forms round some |a|^2 differently in the last bit
        return ObservableTrace(times, {"survival": [abs(a) ** 2 for a in amps]}), None
    # In the eigenbasis P = |0><0| is w w^dag, and damping the <0|.|k>, <k|.|0>
    # coherences by f is rho - (1-f)(P rho + rho P - 2 P rho P).  For hermitian
    # rho, with r = rho w and c = <0|rho|0> = w^dag r, that is rho - (w a^dag + a w^dag)
    # where a = (1-f)(r - c w): one mat-vec and one rank-two product per step.
    w = vecs[0, :].conj().astype(complex)
    u = np.exp(-1j * evals * cfg.dt)
    phase = np.outer(u, u.conj())  # not exp(-i (E_j - E_k) dt): for large |E| dt its rounding breaks unitarity
    np.fill_diagonal(phase, 1.0)  # |u_j|^2 = 1 exactly, so rounding does not drift the trace
    loss = 1.0 - math.exp(-cfg.monitor_rate * cfg.dt)
    left = np.column_stack([w, w])   # [w, a]
    right = np.vstack([w, w]).conj()  # [a, w]^dag
    rho = np.outer(w, w.conj())
    survival = np.empty(len(steps))
    survival[0] = 1.0
    for i, (prev, cur) in enumerate(zip(steps, steps[1:]), start=1):
        for _ in range(prev, cur):
            rho *= phase
            r = rho @ w
            c = np.vdot(w, r)  # the damping leaves <0|rho|0> unchanged
            a = loss * (r - c * w)
            left[:, 1] = a
            right[0] = a.conj()
            rho -= left @ right
        survival[i] = c.real
    rho = vecs @ rho @ vecs.conj().T
    return ObservableTrace(times, {"survival": survival}), 0.5 * (rho + rho.conj().T)


def revival_time(cfg: DecayConfig) -> float:
    """Recurrence time 2 pi / mode spacing of the uniformly spaced bath."""
    return 2.0 * math.pi / cfg.mode_spacing


def survival_peak(trace: ObservableTrace, t_min: float) -> tuple[float, float]:
    """Location and height of the survival maximum after t_min.

    Raises ValueError when the trace ends before t_min.
    """
    t, rec = trace.as_arrays()
    p = rec["survival"]
    mask = t >= t_min
    if not mask.any():
        raise ValueError(f"trace ends at t = {t[-1]:.6g}, before t_min = {t_min:.6g}")
    i = int(np.argmax(p[mask]))
    return float(t[mask][i]), float(p[mask][i])
