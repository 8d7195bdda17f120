"""Relations between runs that hold whatever the implementation, checked through `runner.execute`."""
import numpy as np
import pytest

from decolab.runner import execute, parse_config, read_trace_csv

OMEGA = 1.3

# Chiral tunnelling (omega/2) sigma_x at gamma = 0, and decay of level 0 into one resonant mode with
# coupling omega/2, are the same two-level system: each starts in a basis state and returns with cos^2(omega t / 2).
RABI = {
    "chiral-ph3-like": ("p_left", f"omega = {OMEGA!r}\ngamma = 0\n"),
    "decay-cavity": ("survival", f"n_modes = 1\ncoupling = {OMEGA / 2!r}\n"),
}


@pytest.mark.parametrize("scenario", sorted(RABI))
def test_two_level_scenarios_oscillate_as_cos_squared(scenario, tmp_path):
    column, lines = RABI[scenario]
    text = f"[{scenario}]\n{lines}t_final = 20\ndt = 0.005\nrecord_stride = 10\noutput = {tmp_path / 'rabi.csv'}\n"
    header, rows = read_trace_csv(execute(parse_config(text)[0]).trace_path)
    t = rows[:, 0]
    assert np.array_equal(t, np.arange(0, 4001, 10) * 0.005)
    assert np.max(np.abs(rows[:, header.index(column)] - np.cos(OMEGA * t / 2) ** 2)) < 1e-12


def _chiral_rows(path, **params) -> np.ndarray:
    """The (p_left, coherence) rows of a chiral run through runner.execute."""
    text = "[chiral-sugar]\n" + "".join(f"{k} = {v!r}\n" for k, v in params.items())
    header, rows = read_trace_csv(execute(parse_config(f"{text}record_stride = 10\noutput = {path}\n")[0]).trace_path)
    return rows[:, [header.index("p_left"), header.index("coherence")]]


@pytest.mark.parametrize("gamma", [0.7, 5.0])  # under- and overdamped
@pytest.mark.parametrize("s", [4.0, 0.25])
def test_chiral_rows_are_invariant_under_rescaling_time(s, gamma, tmp_path):
    # (omega, gamma, dt, t_final) -> (s omega, s gamma, dt/s, t_final/s) leaves every record's P_L and coherence
    base = {"omega": OMEGA, "gamma": gamma, "dt": 0.01, "t_final": 8.0}
    ref = _chiral_rows(tmp_path / "base.csv", **base)
    scaled = _chiral_rows(tmp_path / "scaled.csv", omega=s * OMEGA, gamma=s * gamma, dt=0.01 / s, t_final=8.0 / s)
    assert scaled.shape == ref.shape
    assert np.max(np.abs(scaled - ref)) <= 1e-12
    control = _chiral_rows(tmp_path / "control.csv", **base | {"omega": s * OMEGA})  # omega alone: not a symmetry
    assert np.max(np.abs(control - ref)) > 1e-3
