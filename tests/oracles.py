"""Oracles that the tests check decolab against, kept outside `src/` so
that they stay independent of the code they check."""
import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from decolab.localization import GaussianMoments


def moment_ode_oracle(m0: GaussianMoments, mass: float, lam: float, t: float) -> GaussianMoments:
    """Second-moment flow of the master equation, integrated independently.

    Closed system (derived by integrating the equation against x, p, x^2,
    (xp+px)/2, p^2; the localization term feeds only var_pp):
        d<x>/dt   = <p>/m          d<p>/dt    = 0
        d var_xx  = 2 cov_xp / m   d cov_xp   = var_pp / m
        d var_pp  = 2 lam
    Integrated with an adaptive RK scheme at tight tolerance so it stays an
    independent oracle for the grid solver.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return GaussianMoments(m0.mean_x, m0.mean_p, m0.var_xx, m0.cov_xp, m0.var_pp)
    inv_m = 0.0 if not math.isfinite(mass) else 1.0 / mass

    def rhs(_t, y):
        mean_x, mean_p, var_xx, cov_xp, var_pp = y
        return [mean_p * inv_m, 0.0, 2.0 * cov_xp * inv_m, var_pp * inv_m, 2.0 * lam]

    y0 = [m0.mean_x, m0.mean_p, m0.var_xx, m0.cov_xp, m0.var_pp]
    sol = solve_ivp(rhs, (0.0, t), y0, rtol=1e-11, atol=1e-13, dense_output=False)
    y = sol.y[:, -1]
    return GaussianMoments(*[float(v) for v in y])


def chiral_expm_oracle(omega: float, gamma: float, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """P_L, coherence 2|rho_LR| at each time, and the state at the last, from rho(0) = |L><L|.

    The 4x4 Lindblad generator on row-major vec(rho), where vec(A rho B) = (A kron B^T) vec(rho):
    H = (omega/2) sigma_x and one jump operator sqrt(gamma) sigma_z, whose dissipator
    gamma (sigma_z rho sigma_z - rho) damps the chirality coherences at 2 gamma.  Each time
    is one scipy `expm` of the generator times t, never a power of a step.
    """
    sx, sz, eye = np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, -1.0]), np.eye(2)
    h = 0.5 * omega * sx
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T)) + gamma * (np.kron(sz, sz.T) - np.kron(eye, eye))
    rho0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    states = np.array([expm(gen * t) @ rho0 for t in times])
    return states[:, 0].real, 2.0 * np.abs(states[:, 1]), states[-1].reshape(2, 2)
