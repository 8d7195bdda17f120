"""Independent checks of decolab's outputs.

Every expected value here is computed by the benchmark's own numpy/scipy
code from the inputs it generated: closed forms, `scipy.linalg.expm`,
eigenbasis propagation, products of overlaps.  Nothing imports decolab.
Each check raises `CheckFailed` naming the worst deviation it saw.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy.linalg import expm


class CheckFailed(Exception):
    """An output of the program disagrees with the benchmark's own computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(name: str, got, expected, tol: float) -> None:
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(expected)), initial=0.0))
    require(np.shape(got) == np.shape(expected), f"{name}: shape {np.shape(got)} != {np.shape(expected)}")
    require(err <= tol, f"{name}: max deviation {err:.3e} > {tol:.1e}")


# ---------------------------------------------------------------- files

def read_csv(path) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and columns of a trace CSV, parsed with the csv module."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    cols = np.array(body, dtype=float).reshape(len(body), len(header))
    return header, {name: cols[:, i] for i, name in enumerate(header)}


def check_last_time(times: np.ndarray, t_end: float) -> None:
    """The last row of a trace sits at the configured end (t_final, shells, runs)."""
    require(len(times) > 0, "trace has no rows")
    last = float(times[-1])
    require(abs(last - t_end) <= 1e-9 * max(1.0, abs(t_end)),
             f"last row at {last!r}, expected {t_end!r}")


def check_identical(first: bytes, second: bytes) -> None:
    require(first == second, f"rerun differs ({len(first)} vs {len(second)} bytes)")


# ---------------------------------------------------------------- grid

def grid_points(n: int, half_width: float) -> tuple[np.ndarray, float]:
    dx = 2.0 * half_width / n
    return -half_width + dx * np.arange(n), dx


def two_slit_psi(n: int, separation: float, width: float) -> tuple[np.ndarray, float, float, float]:
    """The two-slit initial wave function on [-2d, 2d), and its packet centres.

    Returns (psi, x_right, x_left, dx); packets sit on the grid points
    nearest +-d/2, as the scenario documents.
    """
    x, dx = grid_points(n, 2.0 * separation)
    x_r = x[np.argmin(np.abs(x - separation / 2.0))]
    x_l = x[np.argmin(np.abs(x + separation / 2.0))]
    psi = np.zeros(n, dtype=complex)
    for c in (x_r, x_l):
        g = np.exp(-((x - c) ** 2) / (4.0 * width**2))
        psi += g / (np.linalg.norm(g) * math.sqrt(dx))
    return psi / (np.linalg.norm(psi) * math.sqrt(dx)), float(x_r), float(x_l), dx


def grid_moments(rho: np.ndarray, x: np.ndarray, dx: float) -> np.ndarray:
    """(var_xx, cov_xp, var_pp) of a grid density matrix.

    Position moments from the diagonal, the momentum distribution from the
    diagonal of F rho F^dag, and <xp> from the diagonal of p rho.
    """
    w = np.real(np.diag(rho)) * dx
    mean_x = w @ x
    var_xx = w @ (x - mean_x) ** 2
    p = 2.0 * np.pi * np.fft.fftfreq(len(x), d=dx)
    prob_p = np.real(np.diag(np.fft.fft(np.fft.ifft(rho, axis=1), axis=0)))
    prob_p = prob_p / prob_p.sum()
    mean_p = prob_p @ p
    var_pp = prob_p @ (p - mean_p) ** 2
    p_rho = np.fft.ifft(p[:, None] * np.fft.fft(rho, axis=0), axis=0)
    mean_xp = float(np.real(x @ np.diag(p_rho))) * dx
    return np.array([var_xx, mean_xp - mean_x * mean_p, var_pp])


def strang_moments(m0: np.ndarray, mass: float, lam: float, t, dt: float) -> np.ndarray:
    """Second moments of the localization master equation at time(s) t.

    Closed form var_pp = var_pp0 + 2 lam t, cov = cov0 + (var_pp0 t + lam t^2)/m,
    var_xx = var_xx0 + 2 cov0 t/m + var_pp0 t^2/m^2 + 2 lam t^3/(3 m^2),
    less the one term Strang splitting changes exactly: the localization kicks
    sample (t - s)^2 by the midpoint rule, so var_xx loses lam t dt^2/(6 m^2).
    """
    var_xx0, cov0, var_pp0 = m0
    t = np.asarray(t, dtype=float)
    inv_m = 0.0 if math.isinf(mass) else 1.0 / mass
    var_xx = (var_xx0 + 2.0 * cov0 * t * inv_m + var_pp0 * t**2 * inv_m**2
              + 2.0 * lam * t**3 * inv_m**2 / 3.0 - lam * t * dt**2 * inv_m**2 / 6.0)
    cov = cov0 + (var_pp0 * t + lam * t**2) * inv_m
    var_pp = var_pp0 + 2.0 * lam * t
    return np.array([var_xx, cov, var_pp])


MOMENT_RTOL = 1e-8


def check_moments(got: np.ndarray, expected: np.ndarray) -> None:
    """got/expected are (3,) or (3, n_times) arrays of (var_xx, cov_xp, var_pp)."""
    got, expected = np.asarray(got), np.asarray(expected)
    scale = np.sqrt(expected[0] * expected[2])  # cov is compared on the sqrt(var_xx var_pp) scale
    for i, name in enumerate(("var_xx", "cov_xp", "var_pp")):
        ref = scale if i == 1 else np.abs(expected[i])
        rel = float(np.max(np.abs(got[i] - expected[i]) / ref))
        require(rel <= MOMENT_RTOL, f"{name}: relative deviation {rel:.3e} from the closed form")


def check_visibility(times: np.ndarray, visibility: np.ndarray, lam: float, x_r: float, x_l: float) -> None:
    """Infinite-mass two-slit: V(t) = exp(-lam (x_r - x_l)^2 t) at every recorded time."""
    expected = np.exp(-lam * (x_r - x_l) ** 2 * times)
    rel = float(np.max(np.abs(visibility / expected - 1.0)))
    require(rel <= 1e-9, f"visibility: relative deviation {rel:.3e} from exp(-lam D^2 t)")


def check_grid_state(rho: np.ndarray, dx: float, tol: float = 1e-9) -> None:
    """Trace one, hermitian, no eigenvalue below -tol, nothing at the periodic edge."""
    trace = float(np.real(np.trace(rho))) * dx
    require(abs(trace - 1.0) <= tol, f"trace {trace!r} != 1")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    require(herm <= tol, f"hermiticity deviation {herm:.3e}")
    low = float(np.linalg.eigvalsh(rho)[0]) * dx
    require(low >= -tol, f"minimum eigenvalue {low:.3e}")
    edge = float(max(rho[0, 0].real, rho[-1, -1].real)) * dx
    require(edge <= tol, f"density {edge:.3e} at the grid edge: the state wraps the periodic grid")


# ---------------------------------------------------------------- few-level

def chiral_oracle(omega: float, gamma: float, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_L(t) and 2|rho_LR(t)| from expm of the 4x4 Lindblad generator, rho(0) = |L><L|.

    H = (omega/2) sigma_x, coherences in the chirality basis damped at 2 gamma.
    """
    h = 0.5 * omega * np.array([[0.0, 1.0], [1.0, 0.0]])
    eye = np.eye(2)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))  # row-major vec(rho)
    gen += np.diag([0.0, -2.0 * gamma, -2.0 * gamma, 0.0])
    rho0 = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    states = np.array([expm(gen * t) @ rho0 for t in times])
    return states[:, 0].real, 2.0 * np.abs(states[:, 1])


def chiral_tolerance(omega: float, gamma: float, dt: float) -> float:
    """Scale of the Strang splitting error, omega*gamma*max(omega, gamma)*dt^2/4."""
    return 0.25 * omega * gamma * max(omega, gamma) * dt**2 + 1e-12


def check_chiral(times, p_left, coherence, omega: float, gamma: float, dt: float) -> None:
    p_ref, c_ref = chiral_oracle(omega, gamma, times)
    tol = chiral_tolerance(omega, gamma, dt)
    close("p_left vs expm", p_left, p_ref, tol)
    close("coherence vs expm", coherence, c_ref, tol)


def decay_hamiltonian(n_modes: int, spacing: float, coupling: float) -> np.ndarray:
    """Excited level (index 0) coupled with g to n modes at detunings (k - (n-1)/2) * spacing."""
    h = np.zeros((n_modes + 1, n_modes + 1))
    h[0, 1:] = h[1:, 0] = coupling
    h[np.arange(1, n_modes + 1), np.arange(1, n_modes + 1)] = (np.arange(n_modes) - (n_modes - 1) / 2.0) * spacing
    return h


def check_decay_unitary(times: np.ndarray, survival: np.ndarray, h: np.ndarray) -> None:
    """Survival |<0|expm(-iHt)|0>|^2, stepping one expm over the record spacing."""
    step = float(times[1] - times[0])
    close("record times", times, step * np.arange(len(times)), 1e-9 * max(1.0, float(times[-1])))
    u = expm(-1j * h * step)
    psi = np.zeros(len(h), dtype=complex)
    psi[0] = 1.0
    expected = np.empty(len(times))
    for k in range(len(times)):
        expected[k] = abs(psi[0]) ** 2
        psi = u @ psi
    close("survival vs expm(-iHt)", survival, expected, 1e-10)


def monitored_decay_oracle(h: np.ndarray, rate: float, dt: float, n_steps: int, stride: int):
    """Survival and final state of the monitored decay, propagated in H's eigenbasis.

    Each step is the exact unitary (an elementwise phase in the eigenbasis)
    followed by damping of the <0|.|k>, <k|.|0> coherences by f = exp(-rate dt),
    written as the rank-one update rho - (1-f)(P rho + rho P - 2 P rho P)
    with P = |0><0| = w w^dag.  Returns (record times, survival, final rho in
    the site basis).
    """
    evals, vecs = np.linalg.eigh(h)
    w = vecs[0, :].conj()
    phase = np.exp(-1j * np.subtract.outer(evals, evals) * dt)
    damp = 1.0 - math.exp(-rate * dt)
    rho = np.outer(w, w.conj()).astype(complex)
    times, survival = [0.0], [1.0]
    for step in range(1, n_steps + 1):
        rho *= phase
        left = w.conj() @ rho    # <0| rho in the eigenbasis
        right = rho @ w          # rho |0>
        c = left @ w             # <0| rho |0>
        rho -= damp * (np.outer(w, left) + np.outer(right, w.conj()) - 2.0 * c * np.outer(w, w.conj()))
        if step % stride == 0 or step == n_steps:
            times.append(step * dt)
            survival.append(float(c.real))  # the damping leaves <0|rho|0> unchanged
    return np.array(times), np.array(survival), vecs @ rho @ vecs.conj().T


def band_limited_golden_rule(n_modes: int, spacing: float, coupling: float, rate: float) -> float:
    """2 pi g^2/spacing times the share (2/pi) arctan(n spacing / 2 rate) of the
    dephasing Lorentzian that lies inside the band."""
    return 2.0 * math.pi * coupling**2 / spacing * (2.0 / math.pi) * math.atan(n_modes * spacing / (2.0 * rate))


def check_decay_monitored(times, survival, rho: np.ndarray, oracle) -> None:
    """Survival trace and final state against the eigenbasis propagation; the
    final state has trace one, is hermitian and has no negative eigenvalue."""
    ref_times, ref_survival, ref_rho = oracle
    close("record times", times, ref_times, 1e-9)
    close("survival vs eigenbasis propagation", survival, ref_survival, 1e-9)
    close("final state vs eigenbasis propagation", rho, ref_rho, 1e-9)
    trace = float(np.trace(rho).real)
    require(abs(trace - 1.0) <= 1e-10, f"final trace {trace!r} != 1")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    require(herm <= 1e-12, f"final state hermiticity deviation {herm:.3e}")
    low = float(np.linalg.eigvalsh(rho)[0])
    require(low >= -1e-10, f"final state minimum eigenvalue {low:.3e}")


def check_rate(fitted: float, predicted: float, rtol: float = 0.03) -> None:
    rel = abs(fitted / predicted - 1.0)
    require(rel <= rtol, f"fitted rate {fitted:.6g} vs predicted {predicted:.6g} ({rel:.2%} off)")


# ---------------------------------------------------------------- kinematics

def random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def gram(pointers: np.ndarray) -> np.ndarray:
    """G[m, n] = <eps^m|eps^n> for pointer states given as rows."""
    return pointers.conj() @ pointers.T


def reduced_oracle(amps: np.ndarray, pointer_sets: list[np.ndarray]) -> np.ndarray:
    """rho_mn = c_m c_n^* prod_j <eps_j^n|eps_j^m>."""
    rho = np.outer(amps, amps.conj())
    for pointers in pointer_sets:
        rho = rho * gram(pointers).T
    return rho


def check_reduced(reduced: np.ndarray, expected: np.ndarray) -> None:
    close("reduced state vs c_m c_n* prod overlaps", reduced, expected, 1e-12)


def check_decoherence_factors(factors: dict, pointer_sets: list[np.ndarray]) -> None:
    """decoherence_factor(m, n, k) = prod_{j<k} <eps_j^n|eps_j^m>."""
    for (m, n, k), got in factors.items():
        expected = np.prod([gram(p)[n, m] for p in pointer_sets[:k]])
        close(f"decoherence factor ({m},{n},{k})", got, expected, 1e-12)


def check_schmidt(probabilities: np.ndarray, entropy: float, expected_reduced: np.ndarray) -> None:
    """Schmidt weights are the reduced state's eigenvalues; entropy is -sum p ln p over them."""
    evals = np.sort(np.linalg.eigvalsh(expected_reduced))[::-1]
    evals = evals[evals > 1e-14]
    close("Schmidt probabilities vs eigenvalues", probabilities, evals, 1e-10)
    close("entropy vs -sum p ln p", entropy, -np.sum(evals * np.log(evals)), 1e-10)


def check_erased(amplitudes: np.ndarray, initial: np.ndarray) -> None:
    close("erased state vs initial product state", amplitudes, initial, 1e-12)


# ---------------------------------------------------------------- batch

def check_charge(shells: np.ndarray, offdiag: np.ndarray, n_charges: int, overlap: float) -> None:
    """Equal-weight charges: sum_{q != q'} |rho_qq'| = (q - 1) overlap^r."""
    expected = (n_charges - 1) * overlap ** shells
    rel = float(np.max(np.abs(offdiag - expected) / expected))
    require(rel <= 1e-9, f"off-diagonal sum: relative deviation {rel:.3e} from (q-1) overlap^r")


def born_probabilities(amplitude_seed: int, n_outcomes: int) -> np.ndarray:
    """|c_n|^2 under born-chain's amplitude rule: complex normal draws from
    Philox keyed on amplitude_seed, normalized."""
    rng = np.random.Generator(np.random.Philox(key=amplitude_seed))
    raw = rng.normal(size=n_outcomes) + 1j * rng.normal(size=n_outcomes)
    return np.abs(raw / np.linalg.norm(raw)) ** 2


# A 5-sigma bound: a 3-sigma bound per outcome fails about one correct seed in a hundred.
BORN_SIGMAS = 5.0


def check_born(frequencies: np.ndarray, probabilities: np.ndarray, runs: int) -> None:
    sigma = np.sqrt(probabilities * (1.0 - probabilities) / runs)
    z = float(np.max(np.abs(frequencies - probabilities) / sigma))
    require(z <= BORN_SIGMAS, f"frequencies {z:.2f} sigma from |c_n|^2")


def check_exponent(reported: float, expected: float) -> None:
    """summarize prints the exponent to 6 significant digits."""
    require(abs(reported / expected - 1.0) <= 1e-5, f"exponent {reported!r} vs {expected!r}")
