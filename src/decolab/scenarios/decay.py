"""Decay of an excited level into a discretized bath of field modes.

Uniformly spaced modes with uniform coupling (a cavity-like bath): the
unitary survival probability is near-exponential at the golden-rule rate
until the finite mode spacing causes a coherent revival at 2*pi/spacing.
Monitoring dephases the excited/decayed coherences each step, which
suppresses the revival and leaves an almost exactly exponential decay.

Runs work in the eigenbasis of H.  A monitored run steps the state in the
rotating frame of H, where the unitary part of a step vanishes and the
dephasing is a rank-two update.  The updates of a block of BLOCK steps are
gathered and applied to the state together: one matrix product gives the
block's mat-vecs, one more (the flush) applies its rank-two terms, which
is the compact-WY form of blocked Householder updates (Schreiber & Van
Loan 1989).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
from ..localization import ObservableTrace, record_steps, step_count
from ..params import Declared, param

BLOCK = 32  # monitored steps per flush of the rotating-frame state


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


def band_limited_rate(cfg: DecayConfig) -> float:
    """Monitored decay rate: the golden rule times the share (2/pi) arctan(n spacing / 2 monitor_rate)
    of the dephasing Lorentzian that lies inside the band."""
    return golden_rule_rate(cfg) * (2.0 / math.pi) * math.atan(
        cfg.n_modes * cfg.mode_spacing / (2.0 * cfg.monitor_rate))


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
    Monitored: each step is the exact unitary followed by dephasing
    exp(-monitor_rate*dt) of the excited/decayed coherences (populations
    untouched).  The state is held in the rotating frame of H, where the
    unitary part is absent and step k dephases along v_k = exp(i E k dt) w,
    w = <0| in the eigenbasis: a rank-two update.  Steps run in blocks of
    BLOCK: one product gives rho v_k for the whole block from the state at
    its start, each step corrects its column by the block's earlier
    rank-two terms, and a second product flushes those terms into the
    state.  The final state is rotated back to the lab frame at t_final.
    """
    n_steps = step_count(cfg.t_final, cfg.dt)
    _check_span(cfg)
    steps = np.array(record_steps(n_steps, cfg.record_stride))
    evals, vecs = np.linalg.eigh(_hamiltonian(cfg))
    times = steps * cfg.dt
    if not cfg.monitored:
        weights = np.abs(vecs[0, :]) ** 2
        amps = (weights[None, :] * np.exp(-1j * np.outer(times, evals))).sum(axis=1)
        # scalar abs and ** keep the CSV bytes: numpy's array forms round some |a|^2 differently in the last bit
        return ObservableTrace(times, {"survival": [abs(a) ** 2 for a in amps]}), None
    # With P = v v^dag, damping the coherences by f is rho - (1-f)(P rho + rho P - 2 P rho P).
    # For hermitian rho, with q = rho v and c = v^dag q, that is rho - (v a^dag + a v^dag)
    # where a = (1-f)(q - c v), and c = <0|rho|0> is the survival, which the damping keeps.
    # Within a block, rows 2j, 2j+1 of `left` hold v_j, a_j and of `right` conj(a_j), conj(v_j),
    # so that the block's updates so far are left[:2j].T @ right[:2j].
    w = vecs[0, :].conj().astype(complex)
    loss = 1.0 - math.exp(-cfg.monitor_rate * cfg.dt)
    left = np.empty((2 * BLOCK, len(w)), dtype=complex)
    right = np.empty_like(left)
    rho = np.outer(w, w.conj())
    survival = np.empty(len(steps))
    survival[0] = 1.0
    block_survival = np.empty(BLOCK)
    # v_{start+j} = exp(i E j dt) w * exp(i E start dt): direct phases, not running products u^k, which drift
    within = np.exp(1j * np.outer(np.arange(1, BLOCK + 1) * cfg.dt, evals)) * w
    filled = 1  # records written so far
    for start in range(0, n_steps, BLOCK):
        b = min(BLOCK, n_steps - start)
        v = within[:b] * np.exp(1j * (start * cfg.dt) * evals)
        left[0:2 * b:2] = v
        right[1:2 * b:2] = v.conj()
        q = v @ rho.T  # row j is rho v_j at the block's start
        for j in range(b):
            vj, a = v[j], q[j]
            if j:
                a -= left[:2 * j].T @ (right[:2 * j] @ vj)  # now rho v_j after the block's earlier steps
            c = np.vdot(vj, a)
            block_survival[j] = c.real
            a -= c * vj
            a *= loss
            left[2 * j + 1] = a
            np.conjugate(a, out=right[2 * j])
        rho -= left[:2 * b].T @ right[:2 * b]
        done = int(np.searchsorted(steps, start + b, side="right"))  # records up to the block's last step
        survival[filled:done] = block_survival[steps[filled:done] - start - 1]
        filled = done
    u = np.exp(-1j * evals * (n_steps * cfg.dt))
    phase = np.outer(u, u.conj())  # not exp(-i (E_j - E_k) t): for large |E| t its rounding breaks unitarity
    np.fill_diagonal(phase, 1.0)  # |u_j|^2 = 1 exactly, so rounding does not drift the trace
    rho *= phase
    rho.real = vecs @ rho.real @ vecs.T  # vecs is real: real products, not complex ones
    rho.imag = vecs @ rho.imag @ vecs.T
    rho += rho.conj().T
    rho *= 0.5
    return ObservableTrace(times, {"survival": survival}), rho


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
