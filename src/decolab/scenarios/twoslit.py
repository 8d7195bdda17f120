"""Two-slit visibility under position localization.

A symmetric superposition of two packets at +-d/2 evolves under the
localization master equation; the interference visibility is tracked as
the cross-peak magnitude rho(d/2, -d/2) relative to its initial value.
With the kinetic term frozen (mass = inf), rho(x, x', t) = rho(x, x', 0) exp(-lam (x - x')^2 t)
exactly (Joos & Zeh 1985), and the run evaluates that closed form, taking no steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, PreconditionError
from ..localization import (
    MIN_POINTS, GridDensityMatrix, GridSpec, ObservableTrace, _decode, _march, gaussian_packet, localization_step,
    record_steps, step_count,
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
    """The two-packet state; PreconditionError when a packet reaches the grid edge at t = 0 or, by the
    closed-form spread of a packet at rest, sigma^2 + t^2/(4 m^2 sigma^2) + 2 lam t^3/(3 m^2), at t_final."""
    grid = cfg.grid()
    x = grid.x
    i_right = int(np.argmin(np.abs(x - cfg.slit_separation / 2.0)))
    i_left = int(np.argmin(np.abs(x + cfg.slit_separation / 2.0)))
    t, width = cfg.t_final, cfg.packet_width
    var = width**2 + (t**2 / (4.0 * width**2) + 2.0 * cfg.lam * t**3 / 3.0) / cfg.mass**2
    offsets = x[[0, -1], None] - x[[i_right, i_left]]  # from each edge point to each packet center
    edge = np.max(np.exp(-offsets**2 / (2.0 * var)).sum(axis=1)) * grid.dx / (2.0 * math.sqrt(2.0 * math.pi * var))
    if edge > 1e-8:
        raise PreconditionError(f"packets spread to sigma_x = {math.sqrt(var):.3f} by t_final = {t:g} and reach the "
                                f"grid edge at half_width = {grid.x_max:g} (density {edge:.2e})")
    psi = gaussian_packet(grid, x[i_right], cfg.packet_width) + gaussian_packet(grid, x[i_left], cfg.packet_width)
    psi /= np.linalg.norm(psi) * math.sqrt(grid.dx)
    edge = max(abs(psi[0]), abs(psi[-1])) ** 2 * grid.dx
    if edge > 1e-8:
        raise PreconditionError(f"packets reach the grid edge (density {edge:.2e})")
    return GridDensityMatrix(grid, None, cfg.mass, cfg.lam, psi=psi), i_right, i_left


def two_slit_run(cfg: TwoSlitConfig) -> tuple[ObservableTrace, GridDensityMatrix]:
    """Evolve the two-packet state, recording V(t) at the packet-center entry; also returns the final grid state.

    At mass = inf every record is |psi_r psi_l^*| exp(-lam t (x_r - x_l)^2), and the final state is one
    localization over t_final, in place in the initial M; K_ii = 1 keeps the diagonal, so the trace.

    At a finite mass rho_rl is psi_r psi_l^* at t = 0, then from M_rl and M_lr.  Inner records get M
    before its closing half-kick U rho U^dag, where U = F^-1 e^{-i p^2 dt/4m} F is circulant: row a of U
    is u_a[b] = c[(a - b) mod N] with c = ifft(e^{-i p^2 dt/4m}).  As rho = ((1 + i) M + (1 - i) M^T)/2,
    the kicked rho_rl = u_r^T rho conj(u_l) = ((1 + i) u_r^T M conj(u_l) + (1 - i) conj(u_l)^T M u_r)/2,
    from one real product of M with the four columns Re and Im of conj(u_l) and u_r.  The trace is the
    diagonal sum, which the kick keeps.
    """
    n_steps = step_count(cfg.t_final, cfg.dt)
    s0, i_r, i_l = _initial_state(cfg)
    v0 = float(abs(s0.psi[i_r] * s0.psi[i_l].conj()))
    if v0 <= 0:
        raise PreconditionError("no initial cross peak; packets unresolved on grid")
    times = np.array(record_steps(n_steps, cfg.record_stride)) * cfg.dt
    if not math.isfinite(cfg.mass):  # exact in time: no steps
        peaks = v0 * np.exp(-cfg.lam * times * (s0.grid.dx * (i_r - i_l)) ** 2)  # the kernel's x_r - x_l
        final = localization_step(s0, cfg.t_final, out=s0.m)
        traces = np.full(len(times), final.trace())
    else:
        peaks, traces = [], []
        c = np.fft.ifft(np.exp(-1j * s0.grid.p**2 / (4.0 * cfg.mass) * cfg.dt))
        u_r, u_l = c[np.subtract.outer((i_r, i_l), np.arange(len(c))) % len(c)]
        w = np.stack((u_l.real, -u_l.imag, u_r.real, u_r.imag), axis=1)

        def record(step: int, s: GridDensityMatrix, spectrum):
            if s.psi is not None:  # the pure initial state: rho_rl = psi_r psi_l^*
                rho_rl = s.psi[i_r] * s.psi[i_l].conj()
            elif spectrum is None:
                rho_rl = _decode(s.m[i_r, i_l], s.m[i_l, i_r])
            else:
                y = s.m @ w  # M conj(u_l) and M u_r, as real and imaginary parts
                rho_rl = ((1 + 1j) * (u_r @ (y[:, 0] + 1j * y[:, 1]))
                          + (1 - 1j) * (u_l.conj() @ (y[:, 2] + 1j * y[:, 3]))) / 2
            peaks.append(abs(rho_rl))
            traces.append(s.trace())

        final = _march(s0, cfg.dt, n_steps, cfg.record_stride, record)
    peaks = np.asarray(peaks)
    return ObservableTrace(times, {"visibility": peaks / v0, "cross_peak": peaks, "trace": traces}), final
