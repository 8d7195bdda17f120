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
