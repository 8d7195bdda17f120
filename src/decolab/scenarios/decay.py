"""Decay of an excited level into a discretized bath of field modes.

Uniformly spaced modes with uniform coupling (a cavity-like bath): the
unitary survival probability is near-exponential at the golden-rule rate
until the finite mode spacing causes a coherent revival at 2*pi/spacing.
Monitoring dephases the excited/decayed coherences each step, which
suppresses the revival and leaves an almost exactly exponential decay.

Runs use the chiral symmetry of H: level 0 sits at the centre of a bath
whose detunings are symmetric about it, and every mode couples with the
same g, so S = (mirror of mode k onto mode n-1-k) x (-1 on level 0)
anticommutes with H.  This holds because no field moves level 0 off the
bath's centre; a level detuning would break it.  In S's eigenbasis
{W-, W+}, H = [[0, B^T], [B, 0]] with the half-size block B = U sigma V^T,
so H's eigenvalues are +-sigma (and one 0 for even n), and in the real
basis {W- V, i W+ U} exp(iHt)|0> = (cos(sigma t) y, sin(sigma t) y) with
y = V^T e0.  A monitored run holds the state in a rotating frame, where it
is real and each step's dephasing is a rank-two update.  A block of BLOCK
steps takes one product for its mat-vecs and one (the flush) for its
rank-two terms: the compact-WY form of blocked Householder updates
(Schreiber & Van Loan 1989).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import PreconditionError
from ..localization import ObservableTrace, record_steps, step_count
from ..params import Declared, param

BLOCK = 32  # monitored steps per flush of the rotating-frame state


@dataclass
class DecayConfig(Declared):
    n_modes: int = param(161, at_least=1)
    mode_spacing: float = param(0.5, above=0)
    coupling: float = param(0.5641895835477563, above=0)  # golden-rule rate 4.0
    monitored: bool = False
    monitor_rate: float = param(80.0, at_least=0)  # read only when monitored
    t_final: float = param(16.0, above=0)
    dt: float = param(0.005, above=0)
    record_stride: int = 10


def golden_rule_rate(cfg: DecayConfig) -> float:
    """Fermi golden rule for a flat band: 2 pi g^2 / mode spacing."""
    return 2.0 * math.pi * cfg.coupling**2 / cfg.mode_spacing


def band_limited_rate(cfg: DecayConfig) -> float:
    """Monitored decay rate: the golden rule times the share (2/pi) arctan(n spacing / 2 monitor_rate)
    of the dephasing Lorentzian that lies inside the band."""
    return golden_rule_rate(cfg) * (2.0 / math.pi) * math.atan(
        cfg.n_modes * cfg.mode_spacing / (2.0 * cfg.monitor_rate))


def _chiral_block(cfg: DecayConfig) -> np.ndarray:
    """B: columns level 0 and the odd pairs (e_k - e_{n-1-k})/sqrt 2, k < n//2; rows the middle mode (odd n)
    and the even pairs (e_k + e_{n-1-k})/sqrt 2 for k from n//2 - 1 down: each pair sits at its modes' sites."""
    n, m = cfg.n_modes, cfg.n_modes // 2
    b = np.zeros((n - m, m + 1))
    k = np.arange(m)
    b[n - m - 1 - k, 0] = math.sqrt(2.0) * cfg.coupling
    b[n - m - 1 - k, 1 + k] = (k - (n - 1) / 2.0) * cfg.mode_spacing  # detunings of modes k < m
    if n % 2:
        b[0, 0] = cfg.coupling  # the middle mode, at zero detuning
    return b


def _check_span(cfg: DecayConfig):
    span = cfg.n_modes * cfg.mode_spacing
    if cfg.n_modes > 1 and span < 4.0 * golden_rule_rate(cfg):
        raise PreconditionError(
            f"bath span {span:.3g} does not cover the linewidth {golden_rule_rate(cfg):.3g}"
        )


def decay_run(cfg: DecayConfig) -> tuple[ObservableTrace, np.ndarray | None]:
    """Survival probability P(t) of the excited level, and the final site-basis density matrix (monitored only).

    Both work from the SVD of H's chiral block (module docstring).  Unmonitored:
    P(t) = (sum_k y_k^2 cos(sigma_k t))^2.  Monitored: each step is the exact
    unitary followed by dephasing exp(-monitor_rate*dt) of the excited/decayed
    coherences.  In the rotating frame that meets the lab frame at t_final,
    step k dephases along the real v_k = exp(iH(k dt - t_final))|0>.  In a
    block, one product gives rho v_k from the state at the block's start, each
    step corrects its column by the block's earlier rank-two terms, and a
    second product flushes those terms into the state.  At t_final V and U
    take the state to S's eigenbasis, where its real part is block diagonal,
    and each pair of modes unfolds to the site basis.
    """
    n_steps = step_count(cfg.t_final, cfg.dt)
    _check_span(cfg)
    steps = record_steps(n_steps, cfg.record_stride)
    u, sigma, vt = np.linalg.svd(_chiral_block(cfg))
    p, q = len(sigma), len(vt)  # ceil(n/2) pairs +-sigma, floor(n/2)+1 coordinates on S = -1
    freqs = np.append(sigma, np.zeros(q - p))  # the zero mode of even n last
    y = vt[:, 0]  # level 0 in the basis V
    times = steps * cfg.dt
    if not cfg.monitored:
        return ObservableTrace(times, {"survival": (np.cos(np.outer(times, freqs)) @ y**2) ** 2}), None
    # v_k is (Re, Im[:p]) of exp(i sigma (k dt - t_final)) y: direct phases, not running products, which drift
    within = np.exp(1j * np.outer(np.arange(1, BLOCK + 1) * cfg.dt, freqs)) * y  # a block's steps after its start
    # With P = v v^T, damping the coherences by f is rho - (1-f)(P rho + rho P - 2 P rho P).
    # For symmetric rho, with r = rho v and c = v^T r, that is rho - (v a^T + a v^T)
    # where a = (1-f)(r - c v), and c = <0|rho|0> is the survival, which the damping keeps.
    # Within a block, rows 2j, 2j+1 of `left` hold v_j, a_j and of `right` a_j, v_j,
    # so that the block's updates so far are left[:2j].T @ right[:2j].
    loss = 1.0 - math.exp(-cfg.monitor_rate * cfg.dt)
    left = np.empty((2 * BLOCK, p + q))
    right = np.empty_like(left)
    z0 = np.exp(-1j * (n_steps * cfg.dt) * freqs) * y
    v0 = np.append(z0.real, z0.imag[:p])
    rho = np.outer(v0, v0)
    survival = np.empty(n_steps + 1)  # at every step; the records are read from it
    survival[0] = 1.0
    for start in range(0, n_steps, BLOCK):
        b = min(BLOCK, n_steps - start)
        z = within[:b] * np.exp(1j * ((start - n_steps) * cfg.dt) * freqs)
        v = left[0:2 * b:2]
        v[:, :q], v[:, q:] = z.real, z.imag[:, :p]
        right[1:2 * b:2] = v
        rv = v @ rho.T  # row j is rho v_j at the block's start
        for j in range(b):
            vj, a = v[j], rv[j]
            if j:
                a -= left[:2 * j].T @ (right[:2 * j] @ vj)  # now rho v_j after the block's earlier steps
            c = vj @ a
            survival[start + 1 + j] = c
            a -= c * vj
            a *= loss
            left[2 * j + 1] = a
            right[2 * j] = a
        rho -= left[:2 * b].T @ right[:2 * b]
    del left, right, v, rv
    # rho = [[X, Y], [Y^T, Z]]: real part diag(V X V^T, U Z U^T), imaginary part K = U Y^T V^T below it
    out = np.zeros((p + q, p + q), dtype=complex)
    out.real[:q, :q] = vt.T @ rho[:q, :q] @ vt
    out.real[q:, q:] = u @ rho[q:, q:] @ u.T
    out.imag[q:, :q] = u @ rho[:q, q:].T @ vt
    del rho
    n, m = cfg.n_modes, cfg.n_modes // 2
    for side in (out, out.T):  # rows, then columns: each pair's two combinations unfold to modes k and n-1-k
        odd, even = side[1:m + 1], side[n:n - m:-1]  # at sites 1 + k and n - k
        odd[...], even[...] = (odd + even) * math.sqrt(0.5), (even - odd) * math.sqrt(0.5)
    out.real += out.real.T  # exactly hermitian, through transposed copies of one part at a time
    out.real *= 0.5
    out.imag -= out.imag.T  # adds the block -K^T above the diagonal
    return ObservableTrace(times, {"survival": survival[steps]}), out


def revival_time(cfg: DecayConfig) -> float:
    """Recurrence time 2 pi / mode spacing of the uniformly spaced bath."""
    return 2.0 * math.pi / cfg.mode_spacing


def survival_peak(trace: ObservableTrace, t_min: float) -> tuple[float, float]:
    """Location and height of the survival maximum after t_min.

    Raises ValueError when the trace ends before t_min.
    """
    t, rec = trace.as_arrays()
    p = rec["survival"]
    mask = t >= t_min
    if not mask.any():
        raise ValueError(f"trace ends at t = {t[-1]:.6g}, before t_min = {t_min:.6g}")
    i = int(np.argmax(p[mask]))
    return float(t[mask][i]), float(p[mask][i])
