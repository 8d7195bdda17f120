"""Oracles that the tests check decolab against, kept outside `src/` so
that they stay independent of the code they check."""
import math

from scipy.integrate import solve_ivp

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
