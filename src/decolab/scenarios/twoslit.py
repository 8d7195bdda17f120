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
    MIN_POINTS, GridDensityMatrix, GridSpec, ObservableTrace, _kinetic_phase, _march, gaussian_packet, step_count,
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
    rho = np.outer(psi, psi.conj())
    return GridDensityMatrix(grid, rho, cfg.mass, cfg.lam), i_right, i_left


def two_slit_run(cfg: TwoSlitConfig) -> tuple[ObservableTrace, GridDensityMatrix]:
    """Evolve the two-packet state, recording V(t) at the packet-center entry; also returns the final grid state.

    Inner records read sigma = fft2(rho) before its closing half-kick, in O(N^2):
    rho_rl = (a phi)^T sigma (b conj phi) with a_p = e^{ip(x_r-x_0)}/N, b_p likewise
    for x_l and phi the half-kick phase; the trace is the p+q=0 anti-diagonal sum dx/N.
    """
    n_steps = step_count(cfg.t_final, cfg.dt)
    s0, i_r, i_l = _initial_state(cfg)
    v0 = abs(s0.rho[i_r, i_l])
    if v0 <= 0:
        raise PreconditionError("no initial cross peak; packets unresolved on grid")
    out = ObservableTrace()
    n, dx = s0.grid.n_points, s0.grid.dx
    if math.isfinite(cfg.mass):
        half = _kinetic_phase(s0.grid, cfg.mass, cfg.dt / 2.0)
        k = np.arange(n)
        # e^{i p (x_i - x_0)} = e^{2 pi i k i / N}; the integer product mod N keeps the angle small
        a = np.exp(2j * np.pi * (k * i_r % n) / n) / n * half
        b = np.exp(2j * np.pi * (k * i_l % n) / n) / n * half.conj()
        anti = -k % n

    def record(step: int, s: GridDensityMatrix, sigma):
        if sigma is None:
            cross, tr = abs(s.rho[i_r, i_l]), s.trace()
        else:
            cross, tr = abs(a @ sigma @ b), float(sigma[k, anti].sum().real) * dx / n
        out.append(step * cfg.dt, {"visibility": cross / v0, "cross_peak": cross, "trace": tr})

    return out, _march(s0, cfg.dt, n_steps, cfg.record_stride, record)
