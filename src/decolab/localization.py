"""Position-localization master equation on a uniform 1-D grid.

d rho/dt = -i [p^2/2m, rho] - lam (x - x')^2 rho,  hbar = 1.

The state is one real N x N matrix M = A + B, where rho = A + iB with A
real symmetric and B real antisymmetric; A = (M + M^T)/2 and
B = (M - M^T)/2 give rho back.  Every state the solver makes is therefore
exactly hermitian, and holds half the memory of a complex rho.

The localization part has an exact entrywise flow exp(-lam (x-x')^2 dt), a
real symmetric positive-semidefinite kernel K, so it steps M -> M * K and
keeps trace and positivity.  K depends on x - x' only: it is a Toeplitz view
of 2N - 1 values.  The kinetic part multiplies fft2(rho) by
exp(i theta_pq), theta_pq = -(p^2 - q^2) tau/2m (periodic boundaries).  On
M^ = fft2(M) it reads M^ -> cos(theta) M^ + sin(theta) M^T, because fft2(A)
is symmetric and fft2(B) antisymmetric in (p, q) and theta_{-p,-q} = theta_pq.
M is real, so only rfft2's half spectrum R is kept; the kick reads the same half
of M^T from R, R[:h+1, :h+1]^T over p <= N/2 and conj(R[-q mod N, N-p]) above
it, with no copy.  The rotation carries irfft2's 1/N^2, so no pass rescales.
Time stepping is Strang splitting with adjacent kinetic half-kicks merged
into one full kick, in one loop for `evolve` and two-slit; the loop also
makes the closing half-kick, in its own buffers.

Validation: `GridDensityMatrix(grid, rho, mass, lam)` checks a caller's
complex rho in full (shape, hermiticity within 1e-10, trace, NaN and inf)
and keeps its hermitian part; a pure state given as psi is checked in O(N)
from its shape and norm.  The states the solver makes are hermitian by
construction; each step's state is checked once, after its localization,
for a finite sum of M and unit trace, a drift raising InvariantError.  No
step reads or restores hermiticity, and `audit` reports its drift as None.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

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


class GridDensityMatrix:
    """rho(x_i, x_j) with continuum normalization sum_i rho_ii dx = 1, stored as M = Re rho + Im rho.

    GridDensityMatrix(grid, rho, mass, lam) takes a complex rho; the solver passes
    rho None and `encoded=M` for the states it makes, or `psi=` for a pure state
    rho = psi psi^dag, checked from psi, whose M is built on first read.  mass may be
    math.inf (kinetic term skipped); lam >= 0 is the localization rate, 1/(length^2 time).
    """

    def __init__(self, grid: GridSpec, rho: np.ndarray | None, mass: float, lam: float, *,
                 encoded: np.ndarray | None = None, psi: np.ndarray | None = None):
        self.grid, self.mass, self.lam = grid, mass, lam
        self._m, self.psi = encoded, None if psi is None else np.array(psi, dtype=complex)  # a copy: the state owns psi
        self._rho = None if rho is None else np.asarray(rho, dtype=complex)
        self.__post_init__()

    def __post_init__(self):
        """Validation: a caller's rho in full, psi or an encoded state by its trace and a finite sum."""
        if not (self.mass > 0):
            raise ValueError("mass must be positive (math.inf allowed)")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        n = self.grid.n_points
        from_caller = self._m is None
        if self.psi is not None:
            if self.psi.shape != (n,) or self._rho is not None or not from_caller:
                raise ValueError("psi must match the grid and come without rho or M")
        elif from_caller:
            rho = self._rho
            if rho.shape != (n, n):
                raise ValueError("rho shape must match the grid")
            herm = hermiticity_drift(rho)
            if not herm <= 1e-10:  # written so that a NaN fails it
                raise ValueError(f"not hermitian: deviation {herm}")
            # the encoding of rho's hermitian part, (Re + Re^T)/2 + (Im - Im^T)/2
            self._m = rho.real + rho.imag
            self._m += (rho.real - rho.imag).T
            self._m *= 0.5
            self._rho = None
        elif self._m.shape != (n, n):
            raise ValueError("encoded state shape must match the grid")
        elif not np.isfinite(self._m.sum()):
            raise ValueError("state holds a NaN or inf")
        tr = self.trace()  # of a psi, sum |psi|^2 dx: a NaN or inf fails it
        if not abs(tr - 1.0) <= 1e-8:  # a caller's bad input, or a drift in a state the solver made
            raise (ValueError if from_caller else InvariantError)(f"trace {tr} != 1")

    @property
    def m(self) -> np.ndarray:
        """M; of a pure psi = a + ib, built on first read as [a + b, b - a] [a, b]^T."""
        if self._m is None:
            a, b = self.psi.real, self.psi.imag
            self._m = np.stack((a + b, b - a), axis=1) @ np.stack((a, b))
        return self._m

    @property
    def rho(self) -> np.ndarray:
        """The complex rho = A + iB, built from M on first access."""
        if self._rho is None:
            self._rho = _decode(self.m, self.m.T)
        return self._rho

    def trace(self) -> float:
        return float(np.vdot(self.psi, self.psi).real if self._m is None else np.trace(self._m)) * self.grid.dx

    def audit(self) -> dict[str, float | None]:
        # on a complex rho of its own, not cached in .rho: an audited run's final state keeps only M
        return audit(_decode(self.m, self.m.T), self.grid.dx, hermitian=True)


def _decode(m_ij, m_ji) -> np.ndarray:
    """rho_ij = (M_ij + M_ji)/2 + i (M_ij - M_ji)/2, elementwise over arrays or scalars."""
    rho = np.empty(np.shape(m_ij), dtype=complex)
    np.add(m_ij, m_ji, out=rho.real)
    np.subtract(m_ij, m_ji, out=rho.imag)
    rho *= 0.5
    return rho


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
    """A run's records: strictly increasing times and one float64 column per observable, a value per time."""

    times: np.ndarray
    records: dict[str, np.ndarray]

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.records = {k: np.asarray(v, dtype=float) for k, v in self.records.items()}
        if not np.all(np.diff(self.times) > 0):
            raise ValueError("times must be strictly increasing")
        if any(v.shape != self.times.shape for v in self.records.values()):
            raise ValueError("each record column needs one value per time")

    def as_arrays(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        return self.times, self.records


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
    return GridDensityMatrix(grid, None, mass, lam, psi=psi)


def _localization_kernel(grid: GridSpec, lam: float, dt: float) -> np.ndarray:
    """K_jk = exp(-lam dt (x_j - x_k)^2) as a read-only Toeplitz view of its 2N - 1 values, one per j - k."""
    n = grid.n_points
    v = np.exp(-lam * dt * (grid.dx * np.arange(1 - n, n)) ** 2)
    return as_strided(v[n - 1:], (n, n), (-v.strides[0], v.strides[0]), writeable=False)


def _state(s: GridDensityMatrix, m: np.ndarray) -> GridDensityMatrix:
    return GridDensityMatrix(s.grid, None, s.mass, s.lam, encoded=m)


def localization_step(s: GridDensityMatrix, dt: float, kernel: np.ndarray | None = None, *, out=None) -> GridDensityMatrix:
    """Exact localization flow over dt, written into out if given; `kernel` reuses a built one.
    With out=s.m, s is changed in place too: it drops its psi and cached rho, and holds the new M."""
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if kernel is None:
        kernel = _localization_kernel(s.grid, s.lam, dt)
    if out is s.m:
        s.psi = s._rho = None
    return _state(s, np.multiply(s.m, kernel, out=out))


def _rotation(grid: GridSpec, mass: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """(cos theta, sin theta) / N^2 over rfft2's half spectrum, theta_pq = a_p - a_q with a = -p^2 tau/2m,
    as two real products of [cos a, sin a]; irfft2's 1/N^2 rides on them, so `_kicked` runs it unscaled."""
    n = grid.n_points
    a = -grid.p**2 / (2.0 * mass) * tau
    rows = np.stack((np.cos(a), np.sin(a)), axis=1)
    cols = rows[:n // 2 + 1].T / n**2
    return rows @ cols, rows @ np.stack((-cols[1], cols[0]))


def _kicked(r: np.ndarray, rotation, out: np.ndarray, work=None) -> np.ndarray:
    """M after the kick of `rotation` from R = rfft2(M), into out; R is kicked in place, or into k of work (k, u).
    u takes sin theta times T, the same half of fft2(M)^T, read from R: row p of T is column p of fft2(M),
    R[:h+1, :h+1]^T for p <= h = N//2 and, by the conjugate symmetry of a real M's spectrum,
    conj(R[-q mod N, N-p]) above it, conjugated after the product, as sin theta is real."""
    n, h, sin = len(r), len(r) // 2, rotation[1]
    k, u = (r, np.empty_like(r)) if work is None else work
    np.multiply(r[:h + 1, :h + 1].T, sin[:h + 1], out=u[:h + 1])
    np.multiply(r[0, n - h - 1:0:-1], sin[h + 1:, 0], out=u[h + 1:, 0])  # q = 0
    np.multiply(r[:n - h - 1:-1, n - h - 1:0:-1].T, sin[h + 1:, 1:], out=u[h + 1:, 1:])  # rows N-q for q = 1..h
    np.conjugate(u[h + 1:], out=u[h + 1:])
    np.multiply(r, rotation[0], out=k)
    k += u
    np.fft.ifft(k, axis=0, norm="forward", out=k)  # irfft2 unscaled, its first pass in place
    return np.fft.irfft(k, len(out), axis=1, norm="forward", out=out)


def kinetic_half_step(s: GridDensityMatrix, dt: float) -> GridDensityMatrix:
    """Unitary free evolution over dt/2: rho -> U rho U^dag, U = F^-1 e^{-i p^2 dt/4m} F;
    a pure state stays pure, as U psi psi^dag U^dag = (U psi)(U psi)^dag."""
    finite = math.isfinite(s.mass)
    if s.psi is not None:
        psi = np.fft.ifft(np.exp(-1j * s.grid.p**2 / (4.0 * s.mass) * dt) * np.fft.fft(s.psi)) if finite else s.psi
        return GridDensityMatrix(s.grid, None, s.mass, s.lam, psi=psi)
    if not finite:
        return _state(s, s.m.copy())
    return _state(s, _kicked(np.fft.rfft2(s.m), _rotation(s.grid, s.mass, dt / 2.0), np.empty_like(s.m)))


def _march(s0: GridDensityMatrix, dt: float, n_steps: int, stride: int, record):
    """The grid's one step loop: n_steps Strang steps from s0, adjacent half-kicks merged.

    The opening half-kick's M, never s0's, is the one state buffer: each localization multiplies
    it in place by the Toeplitz kernel, validating the step once (K_ii = 1 keeps the kicked trace,
    and a NaN or inf survives the multiply by K >= 0), and each kick overwrites it from its
    spectrum R = rfft2(M), kicked in place beside one work buffer.  The last step kicks by half, in
    a half rotation built once the full one is freed, and the closing state is validated.  At each
    step of record_steps(n_steps, stride), record(step, s, spectrum) gets the state s at that step
    with spectrum None; at inner steps of a finite mass it gets the state before its closing
    half-kick and spectrum = rfft2(s.m), kicked in place afterwards: a view of the loop's buffer,
    valid during the call.
    """
    finite = math.isfinite(s0.mass)
    kernel = _localization_kernel(s0.grid, s0.lam, dt)
    if finite:
        rotation = _rotation(s0.grid, s0.mass, dt)
        buffers = np.empty((2, *rotation[0].shape), complex)  # R = rfft2(M) and the kick's sine product
    at = set(record_steps(n_steps, stride)[1:-1])
    record(0, s0, None)
    s = kinetic_half_step(s0, dt)  # for mass = inf a copy: the loop's own M
    m = s.m
    for step in range(1, n_steps + 1):
        s = localization_step(s, dt, kernel, out=m)
        if finite and step == n_steps:  # the closing half-kick
            del kernel, rotation
            rotation = _rotation(s0.grid, s0.mass, dt / 2.0)
        spectrum = np.fft.rfft2(m, out=buffers[0]) if finite else None
        if step in at:
            record(step, s, spectrum)
        if finite:
            _kicked(spectrum, rotation, out=m, work=buffers)
    if finite:
        s = _state(s, m)
    record(n_steps, s, None)
    return s


OBSERVABLES = ("trace", "mean_x", "mean_p", "var_xx", "cov_xp", "var_pp",
               "coherence_length", "offdiag_peak", "purity")


def _wrapped(a: np.ndarray) -> np.ndarray:
    """Read-only view w[j, k] = a[j, (j + k) % n] of an (n, n) array a; of a length-n vector, w[j, k] = a[(j + k) % n]."""
    b = np.concatenate((a, a), axis=-1)
    col = b.strides[-1]
    row = col if a.ndim == 1 else b.strides[0] + col
    return as_strided(b, (a.shape[-1],) * 2, (row, col), writeable=False)


def moments_of(s: GridDensityMatrix) -> GaussianMoments:
    """First and second moments of x and p, from the wrapped diagonals of rho in one length-N transform.

    With c_k = sum_j rho_{j,j+k} (indices mod N), the momentum distribution is
    w_n = sum_k c_k e^{2 pi i nk/N}, and <p^a> = dx/N sum_n p_n^a w_n.  On M,
    c(M) = c(A) + c(B) has even part c(A) and odd part c(B), while c(rho) = c(A) + i c(B);
    so w = Re fft(c(M)) + Im fft(c(M)).  Re<xp> = <xp + px>/2 reads the same way
    from (x_j + x_k) M_jk, the encoding of x rho + rho x.
    """
    grid, m, dx = s.grid, s.m, s.grid.dx
    n, x, p = grid.n_points, grid.x, grid.p
    diag = np.diag(m) * dx
    mean_x = float(np.sum(x * diag))
    var_xx = float(np.sum((x - mean_x) ** 2 * diag))
    v = _wrapped(m)
    c = np.stack([v.sum(axis=0), x @ v + np.einsum("jk,jk->k", _wrapped(x), v)])
    f = np.fft.fft(c)
    w = (f.real + f.imag) * (dx / n)
    mean_p = float(p @ w[0])
    return GaussianMoments(
        mean_x=mean_x,
        mean_p=mean_p,
        var_xx=var_xx,
        cov_xp=0.5 * float(p @ w[1]) - mean_x * mean_p,
        var_pp=float(p**2 @ w[0]) - mean_p**2,
    )


def coherence_length(s: GridDensityMatrix) -> CoherenceLength:
    """Half-width at 1/e of |rho(x0+u/2, x0-u/2)| around the diagonal maximum."""
    diag = np.diag(s.m)
    if np.sum(diag) * s.grid.dx <= 0:
        raise ValueError("state has no trace")
    i0 = int(np.argmax(diag))
    n = s.grid.n_points
    kmax = min(i0, n - 1 - i0)
    k = np.arange(kmax + 1)
    profile = np.abs(_decode(s.m[i0 + k, i0 - k], s.m[i0 - k, i0 + k]))
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
        sq = s.m**2
        sq = sq + sq.T  # 2 |rho_ij|^2
        np.fill_diagonal(sq, 0.0)
        out["offdiag_peak"] = math.sqrt(sq.max() / 2.0)
    if "purity" in names:
        out["purity"] = float(np.vdot(s.m, s.m)) * s.grid.dx**2  # sum M_ij^2 = sum |rho_ij|^2 = tr(rho^2)
    return out


def evolve(s0: GridDensityMatrix, t_final: float, dt: float,
           recorder=("trace", "var_xx", "cov_xp", "var_pp", "offdiag_peak"),
           record_stride: int = 1) -> tuple[GridDensityMatrix, ObservableTrace]:
    """Strang-split evolution to t_final, recording observables along the way.

    Every state is hermitian by construction; one whose trace drifts
    beyond 1e-8 stops the run with InvariantError.
    """
    n_steps = step_count(t_final, dt)
    rows, kick = [], None

    def record(step, s, spectrum):
        nonlocal kick
        if spectrum is not None:  # an inner state's closing half-kick, in a rotation and buffers made once
            kick = kick or (_rotation(s.grid, s.mass, dt / 2.0), np.empty_like(s.m),
                            np.empty((2, *spectrum.shape), complex))
            s = _state(s, _kicked(spectrum, kick[0], out=kick[1], work=kick[2]))
        rows.append(_record(s, recorder))

    final = _march(s0, dt, n_steps, record_stride, record)
    times = np.array(record_steps(n_steps, record_stride)) * dt
    return final, ObservableTrace(times, {k: [r[k] for r in rows] for k in rows[0]})
