"""Two-slit visibility under position localization.

A symmetric superposition of two packets at +-d/2 evolves under the
localization master equation; the interference visibility is tracked as
the cross-peak magnitude rho(d/2, -d/2) relative to its initial value.
With the kinetic term frozen (mass = inf) the cross peak decays exactly as
exp(-lam d^2 t).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, PreconditionError
from ..localization import (
    MIN_POINTS, GridDensityMatrix, GridSpec, ObservableTrace, _decode, _march, gaussian_packet, record_steps,
    step_count,
)
from ..params import Declared, param


@dataclass
class TwoSlitConfig(Declared):
    slit_separation: float = param(1.0, above=0)
    packet_width: float = param(0.05, above=0)
    mass: float = param(math.inf, above=0, infinite=True)
    lam: float = param(1.0, at_least=0, key="lambda")
    t_final: float = param(1.0, above=0)
    dt: float = param(0.01, above=0)
    n_points: int = param(256, at_least=MIN_POINTS)
    half_width: float | None = None  # grid spans [-half_width, half_width)
    record_stride: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.slit_separation <= 2.0 * self.packet_width:
            raise ConfigError(f"slit_separation = {self.slit_separation} must exceed "
                              f"2 * packet_width = {2.0 * self.packet_width}")

    def grid(self) -> GridSpec:
        half = self.half_width or 2.0 * self.slit_separation
        return GridSpec(self.n_points, -half, half)


def _initial_state(cfg: TwoSlitConfig) -> tuple[GridDensityMatrix, int, int]:
    grid = cfg.grid()
    x = grid.x
    i_right = int(np.argmin(np.abs(x - cfg.slit_separation / 2.0)))
    i_left = int(np.argmin(np.abs(x + cfg.slit_separation / 2.0)))
    psi = gaussian_packet(grid, x[i_right], cfg.packet_width) + gaussian_packet(grid, x[i_left], cfg.packet_width)
    psi /= np.linalg.norm(psi) * math.sqrt(grid.dx)
    edge = max(abs(psi[0]), abs(psi[-1])) ** 2 * grid.dx
    if edge > 1e-8:
        raise PreconditionError(f"packets reach the grid edge (density {edge:.2e})")
    return GridDensityMatrix(grid, None, cfg.mass, cfg.lam, psi=psi), i_right, i_left


def two_slit_run(cfg: TwoSlitConfig) -> tuple[ObservableTrace, GridDensityMatrix]:
    """Evolve the two-packet state, recording V(t) at the packet-center entry; also returns the final grid state.

    rho_rl is psi_r psi_l^* at t = 0, then from M_rl and M_lr.  Inner records read them from the half
    spectrum (R, T) before its closing half-kick, in O(N^2) with no inverse
    transform: the kicked M_ab is Re(u_a^T (cos(theta) R + sin(theta) T) v_b) with
    u_p = e^{ip(x_a - x_0)}, v_q = w_q e^{iq(x_b - x_0)} / N^2, and w_q = 2 for
    the columns that stand for a conjugate pair (1 at q = 0 and q = N/2).  As
    theta_pq = alpha_p - alpha_q, with c = cos(alpha) v_b and s = sin(alpha) v_b,
    M_ab = Re((cos(alpha) u_a)^T (R c - T s) + (sin(alpha) u_a)^T (R s + T c)): R and T
    each meet four columns once.  The trace is the diagonal sum, which the kick keeps.
    """
    n_steps = step_count(cfg.t_final, cfg.dt)
    s0, i_r, i_l = _initial_state(cfg)
    v0 = float(abs(s0.psi[i_r] * s0.psi[i_l].conj()))
    if v0 <= 0:
        raise PreconditionError("no initial cross peak; packets unresolved on grid")
    peaks, traces = [], []
    n = s0.grid.n_points
    if math.isfinite(cfg.mass):
        k = np.arange(n)
        q = k[:n // 2 + 1]
        # e^{i p (x_i - x_0)} = e^{2 pi i k i / N}; the integer product mod N keeps the angle small
        u = np.exp(2j * np.pi * (np.outer((i_r, i_l), k) % n) / n)  # rows a = r, l
        v = u[::-1, :len(q)] * (np.where((q == 0) | (2 * q == n), 1.0, 2.0) / n**2)  # rows b = l, r
        alpha = -s0.grid.p**2 * (cfg.dt / 2.0) / (2.0 * cfg.mass)  # the half-kick's phase
        cos, sin = np.cos(alpha), np.sin(alpha)
        w = np.concatenate((v * cos[:len(q)], v * sin[:len(q)])).T  # columns cos v_l, cos v_r, sin v_l, sin v_r
        u_cos, u_sin = u * cos, u * sin

    def record(step: int, s: GridDensityMatrix, spectrum):
        if s.psi is not None:  # the pure initial state: rho_rl = psi_r psi_l^*
            rho_rl = s.psi[i_r] * s.psi[i_l].conj()
        elif spectrum is None:
            rho_rl = _decode(s.m[i_r, i_l], s.m[i_l, i_r])
        else:
            rw, tw = spectrum[0] @ w, spectrum[1] @ w
            m_rl, m_lr = (np.sum(u_cos * (rw[:, :2] - tw[:, 2:]).T, axis=1)
                          + np.sum(u_sin * (rw[:, 2:] + tw[:, :2]).T, axis=1)).real
            rho_rl = _decode(m_rl, m_lr)
        peaks.append(abs(rho_rl))
        traces.append(s.trace())

    final = _march(s0, cfg.dt, n_steps, cfg.record_stride, record)
    peaks = np.array(peaks)
    times = np.array(record_steps(n_steps, cfg.record_stride)) * cfg.dt
    return ObservableTrace(times, {"visibility": peaks / v0, "cross_peak": peaks, "trace": traces}), final
