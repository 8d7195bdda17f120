"""Chiral two-level molecule under continuous environmental monitoring.

The molecule starts in the left-handed state |L>; tunneling between the
handedness states is a sigma_x Hamiltonian with parity splitting omega,
while scattering off the surroundings dephases the chirality basis at rate
gamma (Lindblad sigma_z convention: coherences decay at 2*gamma).
Depending on gamma/omega the motion is approximately unitary, follows a
master equation, or freezes (quantum Zeno effect).

A Strang step of this dynamics is one fixed 4x4 linear map on the
row-major vec(rho); runs apply its powers, one per record, instead of
stepping the 2x2 matrix dt by dt.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
from ..localization import ObservableTrace, record_steps, step_count
from ..params import Declared, param

# regime thresholds on gamma/omega
UNITARY_BELOW = 0.1
ZENO_ABOVE = 10.0


@dataclass
class ChiralConfig(Declared):
    omega: float = param(1.0, at_least=0)
    gamma: float = param(0.0, at_least=0)
    t_final: float = param(20.0, above=0)
    dt: float = param(0.001, above=0)
    record_stride: int = 10


def _check_step(cfg: ChiralConfig):
    bound = 0.05 / max(cfg.omega, cfg.gamma, 1e-30)
    if cfg.dt > bound:
        raise PreconditionError(f"dt = {cfg.dt} exceeds the step bound 0.05/max(omega, gamma) = {bound:.3g}")


def chiral_run(cfg: ChiralConfig) -> tuple[ObservableTrace, np.ndarray]:
    """Evolve |L><L| under tunneling + chirality monitoring; record P_L and coherence.

    One step is a Strang split: exact half tunneling unitary, full
    dephasing factor exp(-2*gamma*dt) on the chirality coherences, half
    unitary.  That step is a fixed linear map, so a run applies its
    record_stride-th power once per record (a lower power for a last,
    partial stride).  With gamma = 0 the composition is the exact Rabi
    evolution.  Also returns the final 2x2 density matrix.
    """
    _check_step(cfg)
    n_steps = step_count(cfg.t_final, cfg.dt)
    c, s = math.cos(cfg.omega * cfg.dt / 4.0), math.sin(cfg.omega * cfg.dt / 4.0)
    half = np.array([[c, -1j * s], [-1j * s, c]])  # exp(-i (omega/2) sigma_x dt/2)
    kick = np.kron(half, half.conj())  # rho -> half rho half^dag on row-major vec(rho)
    damp = math.exp(-2.0 * cfg.gamma * cfg.dt)
    step = kick @ np.diag([1.0, damp, damp, 1.0]) @ kick
    stride = cfg.record_stride
    stride_map = np.linalg.matrix_power(step, stride)
    tail_map = np.linalg.matrix_power(step, n_steps % stride)  # a last, partial stride
    rho = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    out = ObservableTrace()
    out.append(0.0, {"p_left": 1.0, "coherence": 0.0, "trace": 1.0})
    for n in record_steps(n_steps, stride)[1:]:
        rho = (stride_map if n % stride == 0 else tail_map) @ rho
        tr = (rho[0] + rho[3]).real  # recorded before renormalizing, so the column shows the map's drift
        rho /= tr  # counter rounding drift of the trig unitary
        out.append(n * cfg.dt, {
            "p_left": float(rho[0].real),
            "coherence": float(2.0 * abs(rho[1])),
            "trace": float(tr),
        })
    return out, rho.reshape(2, 2)


def classify_regime(cfg: ChiralConfig) -> str:
    """'unitary', 'master' or 'zeno' from the declared gamma/omega thresholds."""
    if cfg.omega == 0.0:
        return "zeno" if cfg.gamma > 0 else "unitary"
    ratio = cfg.gamma / cfg.omega
    if ratio < UNITARY_BELOW:
        return "unitary"
    if ratio > ZENO_ABOVE:
        return "zeno"
    return "master"
