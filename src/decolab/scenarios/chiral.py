"""Chiral two-level molecule under continuous environmental monitoring.

The molecule starts in the left-handed state |L>; tunneling between the
handedness states is a sigma_x Hamiltonian with parity splitting omega,
while scattering off the surroundings dephases the chirality basis at rate
gamma (Lindblad sigma_z convention: coherences decay at 2*gamma).
Depending on gamma/omega the motion is approximately unitary, follows a
master equation, or freezes (quantum Zeno effect).

Runs are exact in time: from |L> the Bloch vector keeps x = 0 and (y, z)
follows the closed form of its 2x2 generator at every record time at
once.  dt only sets the record grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _bloch_yz(omega: float, gamma: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch components (y, z) at times t from (0, 1), i.e. exp(A t) e_z with A = [[-2 gamma, -omega], [omega, 0]].

    exp(A t) = e^{-gamma t} [cosh(nu t) I + sinh(nu t)/nu (A + gamma I)] with nu^2 = gamma^2 - omega^2, so
    y = -omega s and z = e^{-(gamma - nu) t} + (gamma - nu) s, where s = e^{-gamma t} sinh(nu t)/nu.  Overdamped,
    s is built from e^{-(gamma - nu) t} and expm1(-2 nu t), which cannot overflow, and gamma - nu is taken as
    omega^2/(gamma + nu), which does not cancel; at omega = 0 it is exactly 0, so z stays exactly 1.  Underdamped
    and at critical damping (nu = i mu), s = e^{-gamma t} sin(mu t)/mu, which tends to t e^{-gamma t} as mu -> 0.
    """
    nu2 = (gamma - omega) * (gamma + omega)  # without cancelling near gamma = omega
    if nu2 > 0.0:
        nu = math.sqrt(nu2)
        slow = omega**2 / (gamma + nu)  # gamma - nu
        decay = np.exp(-slow * t)
        s = decay * -np.expm1(-2.0 * nu * t) / (2.0 * nu)
        z = decay + slow * s
    else:
        mu = math.sqrt(-nu2)
        decay = np.exp(-gamma * t)
        s = decay * t * np.sinc(mu * t / math.pi)  # sin(mu t)/mu
        z = decay * np.cos(mu * t) + gamma * s
    return -omega * s, z


def chiral_run(cfg: ChiralConfig) -> tuple[ObservableTrace, np.ndarray]:
    """Evolve |L><L| under tunneling + chirality monitoring; record P_L and coherence.

    Every record comes from the exact propagator (`_bloch_yz`): P_L = (1 + z)/2,
    coherence 2|rho_LR| = |y|.  The trace column is identically 1.  Also
    returns the final 2x2 density matrix (I + y sigma_y + z sigma_z)/2.
    """
    steps = record_steps(step_count(cfg.t_final, cfg.dt), cfg.record_stride)
    t = np.array(steps) * cfg.dt
    y, z = _bloch_yz(cfg.omega, cfg.gamma, t)
    columns = {"p_left": 0.5 * (1.0 + z), "coherence": np.abs(y), "trace": np.ones_like(t)}
    rho = 0.5 * np.array([[1.0 + z[-1], -1j * y[-1]], [1j * y[-1], 1.0 - z[-1]]])
    return ObservableTrace(t, columns), rho


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
