"""The config -> run contract: the checked-in sweeps, and every preset over its declared parameter space."""
import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from decolab.cli import main
from decolab.runner import parse_config, read_trace_csv
from decolab.scenarios.registry import SCENARIOS

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))


def test_configs_are_checked_in():
    assert [p.name for p in CONFIGS] == [
        "chiral-regimes.cfg", "decay-revival.cfg", "two-slit-sweep.cfg", "zeno-crossover.cfg",
    ]


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_checked_in_config_parses(path):
    for cfg in parse_config(path.read_text()):
        cfg.spec.configure(cfg.parameters, cfg.stride)


def test_two_slit_sweep_fits_lambda_d_squared(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    path = next(p for p in CONFIGS if p.name == "two-slit-sweep.cfg")
    assert main(["run", str(path)]) == 0
    runs = parse_config(path.read_text())
    assert [cfg.parameters["slit_separation"] for cfg in runs] == [0.5, 1.0, 1.5, 2.0]
    for cfg in runs:
        report = json.loads((tmp_path / f"{cfg.output_path}.report.json").read_text())
        expected = cfg.parameters["lambda"] * cfg.parameters["slit_separation"] ** 2
        assert report["summary"]["decay_exponent"] == pytest.approx(expected, rel=1e-9)


# Sizes the test caps so that a run stays small; every other value is drawn from its declaration.
SIZES = {"n_points": 40, "n_modes": 12, "shells": 60, "runs": 300, "n_outcomes": 6, "n_charges": 6}
MAX_STEPS = 30
END = {"time": "t_final", "shell": "shells", "runs": "runs"}  # time column -> parameter it must end at


def _value(draw, key, ps):
    if isinstance(ps.default, int):
        high = min(SIZES[key], ps.high or SIZES[key]) if key in SIZES else ps.high
        return draw(st.integers(min_value=ps.low, max_value=high))
    near_low = ps.low + 4 if ps.high is None else ps.high  # values a run is likely to resolve, as well as extremes
    return draw(st.floats(min_value=ps.low, max_value=ps.high, exclude_min=ps.open_low,
                          allow_nan=False, allow_infinity=ps.infinite)
                | st.floats(min_value=ps.low, max_value=near_low, exclude_min=ps.open_low))


@st.composite
def runs_in_declared_space(draw):
    name = draw(st.sampled_from(sorted(SCENARIOS)))
    params = {key: _value(draw, key, ps) for key, ps in SCENARIOS[name].params.items()}
    if "t_final" in params:
        params["t_final"] = draw(st.integers(1, MAX_STEPS)) * params["dt"]
    stride = draw(st.none() | st.integers(1, 12))
    return name, params, stride


@settings(max_examples=80, deadline=None)
@given(runs_in_declared_space())
def test_every_declared_run_ends_in_a_documented_exit(run):
    name, params, stride = run
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "run.csv"
        lines = [f"[{name}]", f"output = {csv}", *(f"{k} = {v!r}" for k, v in params.items())]
        if stride is not None:
            lines.append(f"record_stride = {stride}")
        cfg = Path(tmp) / "run.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(cfg)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            _, data = read_trace_csv(str(csv))
            end = params[END[SCENARIOS[name].time_column]]
            assert data[-1, 0] == pytest.approx(end, rel=1e-9, abs=1e-300)
