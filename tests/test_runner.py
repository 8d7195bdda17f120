"""Tests for config parsing, batch execution, CSV output and the CLI."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import decolab
from decolab.cli import main
from decolab.errors import ConfigError
from decolab.runner import (
    RunConfig, parse_config, emit_config, execute,
    read_trace_csv, write_trace_csv, summarize, format_summary_table, fit_exponent,
)
from decolab.localization import ObservableTrace

CHARGE_CFG = """\
# quick superselection sweep
[charge-shells]
seed = 7
shells = 200
overlap = 0.95
"""


# ---------------------------------------------------------------- parsing

def test_parse_minimal_config():
    runs = parse_config(CHARGE_CFG)
    assert len(runs) == 1
    cfg = runs[0]
    assert cfg.scenario == "charge-shells"
    assert cfg.seed == 7
    assert cfg.parameters["shells"] == 200
    assert cfg.parameters["overlap"] == 0.95
    assert cfg.parameters["n_charges"] == 2  # default filled in


def test_parse_multiple_sections():
    runs = parse_config("[charge-shells]\nshells = 10\n[born-chain]\nruns = 100\n")
    assert [r.scenario for r in runs] == ["charge-shells", "born-chain"]


def test_parse_error_messages_name_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("[no-such-scenario]\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[charge-shells]\nnonsense\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("shells = 10\n")
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[charge-shells]\nwrong_name = 3\n")
    with pytest.raises(ConfigError):
        parse_config("")


def test_parse_rejects_out_of_bounds_values():
    with pytest.raises(ConfigError, match="out of bounds"):
        parse_config("[charge-shells]\noverlap = 1.5\n")
    with pytest.raises(ConfigError, match="out of bounds"):
        parse_config("[two-slit]\nlambda = -1.0\n")
    with pytest.raises(ConfigError, match="cannot parse"):
        parse_config("[charge-shells]\nshells = many\n")


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig("no-such", {})
    with pytest.raises(ConfigError):
        RunConfig("charge-shells", {"bogus": 1})
    with pytest.raises(ConfigError):
        RunConfig("charge-shells", {}, seed=-1)
    with pytest.raises(ConfigError):
        RunConfig("charge-shells", {}, record_stride=0)


def test_emit_parse_roundtrip_including_inf():
    cfg = RunConfig("two-slit", {"mass": math.inf, "lambda": 0.5}, seed=3,
                    record_stride=5)
    text = emit_config(cfg)
    back = parse_config(text)[0]
    assert back.scenario == cfg.scenario
    assert back.seed == 3 and back.record_stride == 5
    assert back.parameters == cfg.parameters


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**64 - 1),
       shells=st.integers(0, 10_000),
       overlap=st.floats(0.0, 1.0),
       stride=st.integers(1, 500))
def test_roundtrip_property(seed, shells, overlap, stride):
    cfg = RunConfig("charge-shells", {"shells": shells, "overlap": overlap},
                    seed=seed, record_stride=stride)
    back = parse_config(emit_config(cfg))[0]
    assert back.seed == cfg.seed
    assert back.record_stride == cfg.record_stride
    assert back.parameters == cfg.parameters


# ---------------------------------------------------------------- CSV I/O

def _toy_trace():
    tr = ObservableTrace()
    for i in range(5):
        tr.append(0.1 * i if i else 0.0, {"y": math.exp(-0.1 * i), "z": float(i)})
    return tr


def test_csv_roundtrip(tmp_path):
    path = str(tmp_path / "trace.csv")
    write_trace_csv(path, "time", _toy_trace())
    header, data = read_trace_csv(path)
    assert header == ["time", "y", "z"]
    assert data.shape == (5, 3)
    assert data[3, 1] == pytest.approx(math.exp(-0.3), abs=1e-16)


def test_fit_exponent_recovers_rate():
    t = np.linspace(0.0, 2.0, 50)
    k, amplitude, resid = fit_exponent(t, np.exp(-1.7 * t))
    assert k == pytest.approx(1.7, abs=1e-10)
    assert amplitude == pytest.approx(1.0, abs=1e-10)
    assert resid < 1e-12
    with pytest.raises(ValueError):
        fit_exponent(t, np.exp(-t), window=(5.0, 6.0))


def test_summarize_and_schema_mismatch(tmp_path):
    p1 = str(tmp_path / "a.csv")
    p2 = str(tmp_path / "b.csv")
    write_trace_csv(p1, "time", _toy_trace())
    write_trace_csv(p2, "time", _toy_trace())
    rows = summarize([p1, p2], column="y")
    assert len(rows) == 2
    assert rows[0].exponent == pytest.approx(1.0, abs=1e-10)
    table = format_summary_table(rows)
    assert "ratio_vs_first" in table and "1" in table
    assert format_summary_table([]) == "no traces\n"

    other = ObservableTrace()
    other.append(0.0, {"different": 1.0})
    other.append(1.0, {"different": 0.5})
    p3 = str(tmp_path / "c.csv")
    write_trace_csv(p3, "time", other)
    with pytest.raises(ValueError, match="schema mismatch"):
        summarize([p1, p3])


# ---------------------------------------------------------------- execution

def test_execute_writes_trace_and_report(tmp_path, monkeypatch):
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    cfg = parse_config(CHARGE_CFG)[0]
    report = execute(cfg, index=0)
    assert report.audit["trace_drift"] < 1e-12
    header, data = read_trace_csv(report.trace_path)
    assert header[0] == "shell"
    with open(report.trace_path + ".report.json") as fh:
        on_disk = json.load(fh)
    assert on_disk["scenario"] == "charge-shells"
    assert on_disk["seed"] == 7


def test_execute_is_bytewise_deterministic(tmp_path, monkeypatch):
    cfg = parse_config("[born-chain]\nseed = 11\nruns = 20000\n")[0]
    blobs = []
    for sub in ("one", "two"):
        outdir = tmp_path / sub
        outdir.mkdir()
        monkeypatch.setenv("DECOLAB_OUTDIR", str(outdir))
        report = execute(cfg, index=0)
        with open(report.trace_path, "rb") as fh:
            blobs.append(fh.read())
    assert blobs[0] == blobs[1]


def test_execute_seed_override_changes_samples(tmp_path, monkeypatch):
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    cfg = parse_config("[born-chain]\nseed = 11\nruns = 20000\n")[0]
    r1 = execute(cfg, index=0)
    r2 = execute(cfg, index=1, seed_override=12)
    assert r2.config.seed == 12
    assert r1.summary["max_abs_deviation"] != r2.summary["max_abs_deviation"]


# ---------------------------------------------------------------- CLI

def test_cli_import_loads_no_scipy():
    """decolab needs numpy only; a `decolab` command must not pay scipy's import."""
    src = str(Path(decolab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, decolab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_cli_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "two-slit" in out and "born-chain" in out


def test_cli_run_success(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CHARGE_CFG)
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "charge-shells" in out


def test_cli_run_missing_file_is_config_error(capsys):
    assert main(["run", "/no/such/file.cfg"]) == 2


def test_cli_run_bad_config_is_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[charge-shells]\noverlap = 2.0\n")
    assert main(["run", str(cfg)]) == 2
    assert "out of bounds" in capsys.readouterr().err


def test_cli_run_precondition_failure_is_exit_3(tmp_path, monkeypatch, capsys):
    # a bath too narrow for its own linewidth must refuse to run
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text("[decay-cavity]\nn_modes = 9\ncoupling = 1.0\n")
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert "precondition" in err
    assert "config echo" in err  # failing run is echoed for reproduction


@pytest.mark.parametrize("text", [
    "[two-slit]\nt_final = 1.0\ndt = 0.3\n",
    "[chiral-sugar]\nt_final = 1.0\ndt = 0.0003\n",
    "[decay-cavity]\nt_final = 1.0\ndt = 0.003\n",
    "[decay-monitored]\nt_final = 1.0\ndt = 0.003\n",
])
def test_cli_run_incommensurate_dt_is_exit_3(text, tmp_path, monkeypatch, capsys):
    # a run that cannot land on t_final refuses to start instead of ending short
    cfg = tmp_path / "short.cfg"
    cfg.write_text(text)
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 3
    assert "does not divide t_final" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("text, key, value", [
    ("[decay-cavity]\nt_final = 64\n", "fitted_rate", "not resolved"),
    ("[decay-monitored]\nt_final = 6\n", "late_peak_time", "no revival in window"),
])
def test_cli_run_decay_reports_unresolved_fits(text, key, value, tmp_path, monkeypatch):
    cfg = tmp_path / "decay.cfg"
    cfg.write_text(f"{text}output = decay.csv\n")
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((tmp_path / "decay.csv.report.json").read_text())
    assert report["summary"][key] == value
    header, data = read_trace_csv(str(tmp_path / "decay.csv"))
    assert data[-1, 0] == pytest.approx(report["parameters"]["t_final"])


def test_cli_summarize(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "two.cfg"
    cfg.write_text(
        "[two-slit]\nn_points = 64\nt_final = 0.2\npacket_width = 0.1\n"
        "slit_separation = 0.5\nlambda = 1.0\n"
        "[two-slit]\nn_points = 64\nt_final = 0.2\npacket_width = 0.1\n"
        "slit_separation = 0.5\nlambda = 2.0\n"
    )
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 0
    traces = sorted(str(p) for p in tmp_path.glob("two-slit-*.csv"))
    assert len(traces) == 2
    assert main(["summarize", "--column", "visibility", *traces]) == 0
    out = capsys.readouterr().out
    assert "ratio_vs_first" in out
    # doubling lambda doubles the fitted exponent
    ratio = float(out.strip().splitlines()[-1].split()[-1])
    assert ratio == pytest.approx(2.0, abs=0.05)


def test_cli_summarize_no_traces(capsys):
    assert main(["summarize"]) == 0
    assert capsys.readouterr().out == "no traces\n"


@pytest.mark.parametrize("text, code, message", [
    ("[two-slit]\nn_points = 300\n", 0, None),  # any grid size from 16 up
    ("[two-slit]\nlambda = 1e6\n", 0, None),  # visibility 0 after one step: the exponent is not resolved
    ("[two-slit]\nslit_separation = 0.05\n", 2, "slit_separation = 0.05 must exceed 2 * packet_width = 0.1"),
    ("[decay-cavity]\nmonitor_rate = 80\n", 2, "unknown key 'monitor_rate'"),  # the unitary run reads no rate
    ("[two-slit]\nt_final = inf\n", 2, "t_final must be finite"),
    ("[charge-shells]\noverlap = nan\n", 2, "out of bounds"),
    (f"[born-chain]\namplitude_seed = {2**128}\n", 2, "amplitude_seed must be below 2**128"),
    ("[decay-cavity]\ncoupling = 1e200\n", 3, "precondition failure"),  # the golden-rule rate overflows
    # |E| dt ~ 1e17: phases exp(-i (E_j - E_k) dt) lost unitarity to rounding (min eigenvalue -0.085, exit 4)
    ("[decay-monitored]\nn_modes = 8\nmode_spacing = 6.5e16\ncoupling = 1.6e16\nmonitor_rate = 1.6e16\n"
     "t_final = 2.00001\ndt = 2.00001\nrecord_stride = 2\n", 0, None),
])
def test_cli_run_exit_codes(text, code, message, tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{text}output = run.csv\n")
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == code
    if message is not None:
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.csv").exists()
    else:
        report = json.loads((tmp_path / "run.csv.report.json").read_text())
        _, data = read_trace_csv(str(tmp_path / "run.csv"))
        assert data[-1, 0] == pytest.approx(report["parameters"]["t_final"])


def test_cli_run_resolves_no_relaxation_rate_while_p_left_oscillates(tmp_path, monkeypatch, capsys):
    # the first section of configs/chiral-regimes.cfg: gamma/omega = 0.01, the unitary regime
    cfg = tmp_path / "chiral.cfg"
    cfg.write_text("[chiral-ph3-like]\noutput = chiral.csv\ngamma = 0.01\nt_final = 20\ndt = 0.001\n"
                   "record_stride = 50\n")
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 0
    assert "relaxation_rate = not resolved" in capsys.readouterr().out
    report = json.loads((tmp_path / "chiral.csv.report.json").read_text())
    assert report["summary"] == {"regime": "unitary", "relaxation_rate": "not resolved"}


def test_cli_run_reports_unmeasured_audit_fields_as_null(tmp_path, monkeypatch):
    # the unitary decay run keeps no density matrix: only its trace drift is measured
    cfg = tmp_path / "cavity.cfg"
    cfg.write_text("[decay-cavity]\nt_final = 1.0\noutput = cavity.csv\n")
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 0
    text = (tmp_path / "cavity.csv.report.json").read_text()
    assert '"hermiticity_drift": null' in text and '"min_eigenvalue": null' in text
    audit = json.loads(text)["audit"]
    assert audit["hermiticity_drift"] is None and audit["min_eigenvalue"] is None
    assert audit["trace_drift"] < 1e-12


def test_chiral_audit_reports_the_records_trace_drift(tmp_path):
    report = execute(parse_config(f"[chiral-sugar]\noutput = {tmp_path / 'sugar.csv'}\n")[0])
    header, rows = read_trace_csv(report.trace_path)
    drift = np.max(np.abs(rows[:, header.index("trace")] - 1.0))
    assert report.audit["trace_drift"] == drift > 0.0


def test_cli_run_refuses_a_bad_section_before_running_any(tmp_path, monkeypatch):
    cfg = tmp_path / "two.cfg"
    cfg.write_text("[charge-shells]\nshells = 10\n[two-slit]\nslit_separation = 0.05\n")
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    assert main(["run", str(cfg)]) == 2
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("runs, rows", [(2500, [1000, 2000, 2500]), (999, [999]), (4000, [1000, 2000, 3000, 4000])])
def test_born_chain_records_up_to_the_last_run(runs, rows, tmp_path, monkeypatch):
    monkeypatch.setenv("DECOLAB_OUTDIR", str(tmp_path))
    report = execute(parse_config(f"[born-chain]\nruns = {runs}\n")[0])
    header, data = read_trace_csv(report.trace_path)
    assert list(data[:, 0]) == rows
    assert np.allclose(data[:, 1:].sum(axis=1), 1.0)


@pytest.mark.parametrize("text", ["runs,f_0,f_1\n", "time\n0\n1\n", "time\n"])
def test_cli_summarize_refuses_a_trace_without_rows_or_observables(text, tmp_path, capsys):
    path = tmp_path / "t.csv"
    path.write_text(text)
    assert main(["summarize", str(path)]) == 2
    assert "trace schema" in capsys.readouterr().err
