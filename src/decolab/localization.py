"""Position-localization master equation on a uniform 1-D grid.

d rho/dt = -i [p^2/2m, rho] - lam (x - x')^2 rho,  hbar = 1.

The kinetic part is the elementwise phase phi_p conj(phi_q) on
sigma = fft2(rho), phi = exp(-i p^2 dt/2m) (periodic boundaries; p^2 is
even, so no axis is reversed).  The localization part has an exact
entrywise flow exp(-lam (x-x')^2 dt), a Schur product with a positive-
semidefinite kernel, so both preserve hermiticity, trace and positivity.
Time stepping is Strang splitting with adjacent kinetic half-kicks merged
into one full kick in momentum space, in one loop for `evolve` and two-slit.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import InvariantError, PreconditionError
from .hilbert import audit, hermiticity_drift


MIN_POINTS = 16


@dataclass(frozen=True)
class GridSpec:
    n_points: int
    x_min: float
    x_max: float

    def __post_init__(self):
        if self.n_points < MIN_POINTS:
            raise ValueError(f"n_points must be >= {MIN_POINTS}")
        if self.x_max <= self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n_points

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    @property
    def p(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass
class GridDensityMatrix:
    """rho(x_i, x_j) with continuum normalization sum_i rho_ii dx = 1.

    mass may be math.inf (kinetic term skipped); lam >= 0 is the
    localization rate with units 1/(length^2 * time).
    """

    grid: GridSpec
    rho: np.ndarray
    mass: float
    lam: float

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=complex)
        n = self.grid.n_points
        if self.rho.shape != (n, n):
            raise ValueError("rho shape must match the grid")
        if not (self.mass > 0):
            raise ValueError("mass must be positive (math.inf allowed)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        herm = hermiticity_drift(self.rho)
        if not herm <= 1e-10:  # written so that a NaN fails it
            raise ValueError(f"not hermitian: deviation {herm}")
        tr = float(np.real(np.sum(np.diag(self.rho)))) * self.grid.dx
        if not abs(tr - 1.0) <= 1e-8:
            raise ValueError(f"trace {tr} != 1")

    def trace(self) -> float:
        return float(np.real(np.sum(np.diag(self.rho)))) * self.grid.dx

    def audit(self) -> dict[str, float]:
        return audit(self.rho, self.grid.dx)


@dataclass
class GaussianMoments:
    mean_x: float
    mean_p: float
    var_xx: float
    cov_xp: float
    var_pp: float

    def __post_init__(self):
        if self.var_xx <= 0 or self.var_pp <= 0:
            raise ValueError("variances must be positive")
        if self.var_xx * self.var_pp - self.cov_xp**2 < 0.25 - 1e-9:
            raise ValueError("moments violate the uncertainty bound")


@dataclass
class ObservableTrace:
    times: list[float] = field(default_factory=list)
    records: dict[str, list[float]] = field(default_factory=dict)

    def append(self, t: float, values: dict[str, float]):
        if self.times and t <= self.times[-1]:
            raise ValueError("times must be strictly increasing")
        self.times.append(t)
        for k, v in values.items():
            self.records.setdefault(k, []).append(v)

    def as_arrays(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return np.asarray(self.times), {k: np.asarray(v) for k, v in self.records.items()}


def fit_exponent(t: np.ndarray, y: np.ndarray, window: tuple[float, float] = (-math.inf, math.inf),
                 floor: float = 0.0) -> tuple[float, float, float]:
    """Least-squares fit of y = amplitude * exp(-rate t) to the samples in window (inclusive) with y > floor.

    Returns (rate, amplitude, residual), the residual being the largest relative
    deviation |y - model| / model over those samples.  Raises ValueError when
    fewer than 2 samples qualify.
    """
    m = (t >= window[0]) & (t <= window[1]) & (y > floor)
    if m.sum() < 2:
        raise ValueError(f"fewer than 2 samples above {floor:g} in the fit window [{window[0]:.6g}, {window[1]:.6g}]")
    coef = np.polyfit(t[m], np.log(y[m]), 1)
    rate, amplitude = -coef[0], math.exp(coef[1])
    model = amplitude * np.exp(-rate * t[m])
    return float(rate), amplitude, float(np.max(np.abs(y[m] - model) / model))


def step_count(t_final: float, dt: float) -> int:
    """Number of dt steps from 0 to t_final; PreconditionError unless dt divides t_final."""
    n_steps = round(t_final / dt)
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(1.0, t_final):
        raise PreconditionError(f"dt = {dt} does not divide t_final = {t_final}")
    return n_steps


def record_steps(n_steps: int, stride: int) -> list[int]:
    """Steps at which a run records: 0, every stride-th step, and the last step."""
    steps = list(range(0, n_steps + 1, stride))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    return steps


class CoherenceLength(NamedTuple):
    length: float
    below_floor: bool


def gaussian_packet(grid: GridSpec, center: float, sigma: float, momentum: float = 0.0) -> np.ndarray:
    """Normalized Gaussian wave function with position spread sigma."""
    x = grid.x
    psi = np.exp(-((x - center) ** 2) / (4.0 * sigma**2) + 1j * momentum * x)
    psi /= np.linalg.norm(psi) * math.sqrt(grid.dx)
    return psi.astype(complex)


def pure_density(grid: GridSpec, psi: np.ndarray, mass: float, lam: float) -> GridDensityMatrix:
    rho = np.outer(psi, psi.conj())
    return GridDensityMatrix(grid, rho, mass, lam)


def _localization_kernel(grid: GridSpec, lam: float, dt: float) -> np.ndarray:
    return np.exp(-lam * dt * np.subtract.outer(grid.x, grid.x) ** 2)


def localization_step(s: GridDensityMatrix, dt: float, kernel: np.ndarray | None = None) -> GridDensityMatrix:
    """Exact localization flow over dt; `kernel` is _localization_kernel(grid, lam, dt), if already built."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if kernel is None:
        kernel = _localization_kernel(s.grid, s.lam, dt)
    return GridDensityMatrix(s.grid, s.rho * kernel, s.mass, s.lam)


def _kinetic_phase(grid: GridSpec, mass: float, dt: float) -> np.ndarray:
    return np.exp(-1j * grid.p**2 / (2.0 * mass) * dt)


def _kick(sigma: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """sigma_pq *= phase_p conj(phase_q) in place: U rho U^dag in momentum space, sigma = fft2(rho)."""
    sigma *= phase[:, None]
    sigma *= phase.conj()
    return sigma


def kinetic_half_step(s: GridDensityMatrix, dt: float, sigma: np.ndarray | None = None) -> GridDensityMatrix:
    """Unitary free evolution over dt/2: rho -> U rho U^dag, U = F^-1 e^{-i p^2 dt/4m} F.

    sigma, when given, is fft2(s.rho) as the caller already has it; it is left unchanged.
    """
    if not math.isfinite(s.mass):
        return GridDensityMatrix(s.grid, s.rho.copy(), s.mass, s.lam)
    sigma = np.fft.fft2(s.rho) if sigma is None else sigma.copy()
    rho = np.fft.ifft2(_kick(sigma, _kinetic_phase(s.grid, s.mass, dt / 2.0)))
    # enforce exact hermiticity against FFT rounding
    return GridDensityMatrix(s.grid, 0.5 * (rho + rho.conj().T), s.mass, s.lam)


def _march(s0: GridDensityMatrix, dt: float, n_steps: int, stride: int, record, audit_tol: float = 1e-6):
    """The grid's one step loop: n_steps Strang steps from s0, adjacent half-kicks merged.

    Between localizations the state goes to momentum space for one full kick.
    At each step of record_steps(n_steps, stride), record(step, s, sigma) gets
    the state s at that step with sigma None; at inner steps of a finite mass
    it gets the state before its closing half-kick and sigma = fft2(s.rho),
    which the loop kicks in place afterwards.  Returns the final state.
    """
    finite = math.isfinite(s0.mass)
    kernel = _localization_kernel(s0.grid, s0.lam, dt)
    phase = _kinetic_phase(s0.grid, s0.mass, dt) if finite else None
    at = set(record_steps(n_steps, stride)[1:-1])
    record(0, s0, None)
    s = kinetic_half_step(s0, dt) if finite else s0
    for step in range(1, n_steps + 1):
        drift = abs(s.trace() - 1.0)
        if drift > audit_tol:
            raise InvariantError(f"step {step}: trace drift {drift:.3e}")
        s = localization_step(s, dt, kernel)
        sigma = np.fft.fft2(s.rho) if finite and step < n_steps else None
        if step in at:
            record(step, s, sigma)
        if sigma is not None:
            s = copy.copy(s)  # unvalidated: the next localization validates what it returns
            s.rho = np.fft.ifft2(_kick(sigma, phase))
    if finite:
        s = kinetic_half_step(s, dt)
    record(n_steps, s, None)
    return s


OBSERVABLES = ("trace", "mean_x", "mean_p", "var_xx", "cov_xp", "var_pp",
               "coherence_length", "offdiag_peak", "purity")


def moments_of(s: GridDensityMatrix) -> GaussianMoments:
    """First and second moments of x and p computed spectrally from rho."""
    grid, rho, dx = s.grid, s.rho, s.grid.dx
    x = grid.x
    diag = np.real(np.diag(rho)) * dx
    mean_x = float(np.sum(x * diag))
    var_xx = float(np.sum((x - mean_x) ** 2 * diag))
    p = grid.p
    frho = np.fft.fft(rho, axis=0)
    prho = np.fft.ifft(p[:, None] * frho, axis=0)
    pprho = np.fft.ifft(p[:, None] ** 2 * frho, axis=0)
    mean_p = float(np.real(np.sum(np.diag(prho))) * dx)
    mean_pp = float(np.real(np.sum(np.diag(pprho))) * dx)
    mean_xp = float(np.real(np.sum(x * np.diag(prho))) * dx)
    return GaussianMoments(
        mean_x=mean_x,
        mean_p=mean_p,
        var_xx=var_xx,
        cov_xp=mean_xp - mean_x * mean_p,
        var_pp=mean_pp - mean_p**2,
    )


def coherence_length(s: GridDensityMatrix) -> CoherenceLength:
    """Half-width at 1/e of |rho(x0+u/2, x0-u/2)| around the diagonal maximum."""
    diag = np.real(np.diag(s.rho))
    if np.sum(diag) * s.grid.dx <= 0:
        raise ValueError("state has no trace")
    i0 = int(np.argmax(diag))
    n = s.grid.n_points
    kmax = min(i0, n - 1 - i0)
    k = np.arange(kmax + 1)
    profile = np.abs(s.rho[i0 + k, i0 - k])
    target = profile[0] / math.e
    below = np.nonzero(profile < target)[0]
    if len(below) == 0:
        return CoherenceLength(float("inf"), False)
    k1 = below[0]
    if k1 == 0:
        return CoherenceLength(0.0, True)
    # linear interpolation between samples k1-1 and k1; u = 2 k dx
    f0, f1 = profile[k1 - 1], profile[k1]
    frac = (f0 - target) / (f0 - f1)
    u = 2.0 * s.grid.dx * (k1 - 1 + frac)
    return CoherenceLength(float(u), u < 2.0 * s.grid.dx)


def _record(s: GridDensityMatrix, names) -> dict[str, float]:
    out: dict[str, float] = {}
    moment_keys = {"mean_x", "mean_p", "var_xx", "cov_xp", "var_pp"}
    if moment_keys & set(names):
        m = moments_of(s)
        for k in moment_keys & set(names):
            out[k] = getattr(m, k)
    if "trace" in names:
        out["trace"] = s.trace()
    if "coherence_length" in names:
        out["coherence_length"] = coherence_length(s).length
    if "offdiag_peak" in names:
        a = np.abs(s.rho)
        np.fill_diagonal(a, 0.0)
        out["offdiag_peak"] = float(a.max())
    if "purity" in names:
        out["purity"] = float(np.vdot(s.rho, s.rho).real) * s.grid.dx**2  # sum |rho_ij|^2 = tr(rho^2)
    return out


def evolve(
    s0: GridDensityMatrix,
    t_final: float,
    dt: float,
    recorder=("trace", "var_xx", "cov_xp", "var_pp", "offdiag_peak"),
    record_stride: int = 1,
    audit_tol: float = 1e-6,
) -> tuple[GridDensityMatrix, ObservableTrace]:
    """Strang-split evolution to t_final, recording observables along the way.

    Aborts with InvariantError if trace or hermiticity drifts beyond
    audit_tol mid-run.
    """
    n_steps = step_count(t_final, dt)
    trace = ObservableTrace()

    def record(step, s, sigma):
        trace.append(step * dt, _record(s if sigma is None else kinetic_half_step(s, dt, sigma), recorder))

    out = _march(s0, dt, n_steps, record_stride, record, audit_tol)
    herm = hermiticity_drift(out.rho)
    if not herm <= audit_tol:
        raise InvariantError(f"final state: hermiticity drift {herm:.3e}")
    return out, trace
