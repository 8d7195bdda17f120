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

from ..errors import PreconditionError
from ..localization import GridSpec, GridDensityMatrix, ObservableTrace, gaussian_packet, step_count


@dataclass
class TwoSlitConfig:
    slit_separation: float = 1.0
    packet_width: float = 0.05
    mass: float = math.inf
    lam: float = 1.0
    t_final: float = 1.0
    dt: float = 0.01
    n_points: int = 256
    half_width: float | None = None  # grid spans [-half_width, half_width)
    record_stride: int = 1

    def __post_init__(self):
        if self.slit_separation <= 2.0 * self.packet_width:
            raise ValueError("slit separation must exceed twice the packet width")
        for name in ("slit_separation", "packet_width", "lam", "t_final", "dt"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be positive")

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


def two_slit_visibility(cfg: TwoSlitConfig) -> ObservableTrace:
    """Evolve the two-packet state, recording V(t) at the packet-center entry."""
    return two_slit_run(cfg)[0]


def two_slit_run(cfg: TwoSlitConfig) -> tuple[ObservableTrace, GridDensityMatrix]:
    """Like two_slit_visibility, but also returns the final grid state."""
    n_steps = step_count(cfg.t_final, cfg.dt)
    s0, i_r, i_l = _initial_state(cfg)
    v0 = abs(s0.rho[i_r, i_l])
    if v0 <= 0:
        raise PreconditionError("no initial cross peak; packets unresolved on grid")
    out = ObservableTrace()
    out.append(0.0, {"visibility": 1.0, "cross_peak": v0, "trace": s0.trace()})

    # step manually (Strang order as in localization.evolve) so the single
    # cross-peak matrix entry can be recorded
    s = s0
    from ..localization import localization_step, kinetic_half_step

    for step in range(1, n_steps + 1):
        s = kinetic_half_step(s, cfg.dt)
        s = localization_step(s, cfg.dt)
        s = kinetic_half_step(s, cfg.dt)
        if step % cfg.record_stride == 0 or step == n_steps:
            out.append(step * cfg.dt, {
                "visibility": abs(s.rho[i_r, i_l]) / v0,
                "cross_peak": abs(s.rho[i_r, i_l]),
                "trace": s.trace(),
            })
    return out, s


def visibility_exponent(trace: ObservableTrace) -> tuple[float, float]:
    """Least-squares decay exponent of V(t) with its fit residual; V = exp(-k t)."""
    t, rec = trace.as_arrays()
    v = rec["visibility"]
    mask = v > 1e-12
    if mask.sum() < 2:
        raise ValueError("visibility trace too short to fit")
    coef = np.polyfit(t[mask], np.log(v[mask]), 1)
    fit = np.polyval(coef, t[mask])
    resid = float(np.sqrt(np.mean((np.log(v[mask]) - fit) ** 2)))
    return float(-coef[0]), resid
