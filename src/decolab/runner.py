"""Batch execution: config parsing, dispatch, CSV emission, summaries.

Config files are line-oriented `key = value` pairs under one `[scenario]`
section per run.  A run returns its trace once, as an ObservableTrace of
float64 columns; `write_trace_csv` writes it in one pass, a header row
`time,<observable...>` (the time column may be renamed per scenario, e.g.
`shell` or `runs`, and the observables are sorted by name) and then every
value as %.17g.  CSVs are byte-identical for identical (config, seed) pairs.
"""
from __future__ import annotations

import json
import math
import os
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .localization import fit_exponent
from .scenarios.registry import SCENARIOS, ScenarioDef

OUTPUT_DIR_ENV = "DECOLAB_OUTDIR"
RESERVED_KEYS = ("seed", "output", "record_stride")


@dataclass
class RunConfig:
    scenario: str
    parameters: dict
    seed: int = 0
    output_path: str | None = None
    record_stride: int | None = None

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; known: {', '.join(sorted(SCENARIOS))}")
        spec = SCENARIOS[self.scenario]
        for key in self.parameters:
            if key not in spec.params:
                raise ConfigError(f"unknown parameter {key!r} for scenario {self.scenario!r}")
        full = {}
        for name, ps in spec.params.items():
            value = self.parameters.get(name, ps.default)
            ps.check(name, value)
            full[name] = value
        self.parameters = full
        if not (0 <= int(self.seed) < 2**64):
            raise ConfigError("seed must fit in 64 unsigned bits")
        self.seed = int(self.seed)
        if self.record_stride is not None and self.record_stride < 1:
            raise ConfigError("record_stride must be >= 1")

    @property
    def spec(self) -> ScenarioDef:
        return SCENARIOS[self.scenario]

    @property
    def stride(self) -> int:
        return self.record_stride if self.record_stride is not None else self.spec.default_stride


@dataclass
class RunReport:
    config: RunConfig
    wall_time: float
    audit: dict
    summary: dict
    trace_path: str

    def as_dict(self) -> dict:
        return {
            "scenario": self.config.scenario,
            "parameters": {k: _fmt_value(v) for k, v in self.config.parameters.items()},
            "seed": self.config.seed,
            "record_stride": self.config.stride,
            "wall_time_s": self.wall_time,
            "audit": self.audit,
            "summary": self.summary,
            "trace_path": self.trace_path,
        }


def _fmt_value(v):
    if isinstance(v, float):
        return float(v) if np.isfinite(v) else repr(v)
    return v


def parse_config(text: str) -> list[RunConfig]:
    """Parse `[scenario]` sections of `key = value` lines into RunConfigs.

    Unknown keys, malformed lines and out-of-bounds values raise
    ConfigError naming the offending line (for a value, its section's line).
    """
    runs: list[RunConfig] = []
    section: str | None = None
    collected: dict = {}
    reserved: dict = {}
    sec_line = 0

    def finish():
        if section is None:
            return
        try:
            runs.append(RunConfig(section, collected,
                                  seed=reserved.get("seed", 0),
                                  output_path=reserved.get("output"),
                                  record_stride=reserved.get("record_stride")))
        except ConfigError as exc:
            raise ConfigError(f"line {sec_line}: [{section}]: {exc}") from exc

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            finish()
            section = line[1:-1].strip()
            collected, reserved, sec_line = {}, {}, lineno
            if section not in SCENARIOS:
                raise ConfigError(f"line {lineno}: unknown scenario {section!r}")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [scenario] section")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        spec = SCENARIOS[section]
        if key == "seed":
            reserved["seed"] = _parse_int(value, lineno, "seed")
        elif key == "output":
            reserved["output"] = value
        elif key == "record_stride":
            reserved["record_stride"] = _parse_int(value, lineno, "record_stride")
        elif key in spec.params:
            try:
                collected[key] = spec.params[key].coerce(value)
            except ConfigError as exc:
                raise ConfigError(f"line {lineno}: {key}: {exc}") from exc
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r} for scenario {section!r}")
    finish()
    if not runs:
        raise ConfigError("config contains no [scenario] section")
    return runs


def _parse_int(value: str, lineno: int, key: str) -> int:
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {key}: cannot parse {value!r} as int") from exc


def emit_config(cfg: RunConfig) -> str:
    """Serialize a RunConfig so that parse_config reproduces it exactly."""
    lines = [f"[{cfg.scenario}]", f"seed = {cfg.seed}"]
    if cfg.output_path:
        lines.append(f"output = {cfg.output_path}")
    if cfg.record_stride is not None:
        lines.append(f"record_stride = {cfg.record_stride}")
    for key, value in cfg.parameters.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, str) else f"{key} = {value}")
    return "\n".join(lines) + "\n"


def _default_output(cfg: RunConfig, index: int) -> str:
    outdir = os.environ.get(OUTPUT_DIR_ENV, ".")
    return str(Path(outdir) / f"{cfg.scenario}-{index}-seed{cfg.seed}.csv")


def write_trace_csv(path: str, time_column: str, trace) -> None:
    """The trace as a header and one row per time, columns sorted by name, every value as %.17g, in one pass."""
    times, records = trace.as_arrays()
    columns = sorted(records)
    table = np.column_stack([times] + [records[c] for c in columns])
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([time_column] + columns) + "\n")
        fh.write((line * len(table)) % tuple(table.ravel().tolist()))


def execute(cfg: RunConfig, index: int = 0, seed_override: int | None = None) -> RunReport:
    """Run one scenario, writing its CSV trace and returning the report.

    The report is also written next to the CSV as `<trace>.report.json`.
    """
    if seed_override is not None:
        cfg = RunConfig(cfg.scenario, dict(cfg.parameters), seed=seed_override,
                        output_path=cfg.output_path, record_stride=cfg.record_stride)
    out_path = cfg.output_path or _default_output(cfg, index)
    outdir = os.environ.get(OUTPUT_DIR_ENV)
    if outdir and cfg.output_path and not os.path.isabs(cfg.output_path):
        out_path = str(Path(outdir) / cfg.output_path)
    t0 = _time.perf_counter()
    with np.errstate(over="raise", invalid="raise", divide="raise"):  # FloatingPointError, not inf or nan
        result = cfg.spec.run(cfg.parameters, cfg.seed, cfg.stride)
    wall = _time.perf_counter() - t0
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    write_trace_csv(out_path, cfg.spec.time_column, result.trace)
    report = RunReport(cfg, wall, result.audit, result.summary, out_path)
    with open(out_path + ".report.json", "w") as fh:
        json.dump(report.as_dict(), fh, indent=2, default=str)
        fh.write("\n")
    return report


@dataclass
class TraceSummary:
    path: str
    columns: list[str]
    n_rows: int
    exponent: float | None
    residual: float | None


def read_trace_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header and rows of a trace CSV; ValueError unless it has an observable column and rows that fit the header."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = fh.read().splitlines()
    if len(header) < 2 or not lines:
        raise ValueError(f"trace schema: {path} needs a time column, an observable column and a row")
    data = np.loadtxt(lines, delimiter=",", ndmin=2)
    if data.shape[1] != len(header):
        raise ValueError(f"trace schema: {path} has rows of {data.shape[1]} values under {len(header)} columns")
    return header, data


def summarize(paths: list[str], column: str | None = None,
              window: tuple[float, float] | None = None) -> list[TraceSummary]:
    """Fitted decay exponents of |column| for a list of schema-compatible trace files.

    The residual is the largest relative deviation from the fitted exponential.
    All traces must share the same header; a mismatch names the conflicting
    column.  An empty input list yields an empty table.
    """
    rows: list[TraceSummary] = []
    ref_header: list[str] | None = None
    for path in paths:
        header, data = read_trace_csv(path)
        if ref_header is None:
            ref_header = header
        elif header != ref_header:
            extra = set(header) ^ set(ref_header)
            name = sorted(extra)[0] if extra else header[0]
            raise ValueError(f"trace schema mismatch at column {name!r} in {path}")
        col = column or header[1]
        if col not in header:
            raise ValueError(f"trace schema mismatch at column {col!r} in {path}")
        t = data[:, 0]
        y = data[:, header.index(col)]
        try:
            k, _, resid = fit_exponent(t, np.abs(y), window or (-math.inf, math.inf), floor=1e-300)
        except ValueError:
            k, resid = None, None
        rows.append(TraceSummary(path, header, data.shape[0], k, resid))
    return rows


def format_summary_table(rows: list[TraceSummary]) -> str:
    if not rows:
        return "no traces\n"
    lines = [f"{'trace':40s} {'rows':>6s} {'exponent':>14s} {'residual':>10s} {'ratio_vs_first':>14s}"]
    base = next((r.exponent for r in rows if r.exponent), None)
    for r in rows:
        exp = f"{r.exponent:.6g}" if r.exponent is not None else "n/a"
        res = f"{r.residual:.2g}" if r.residual is not None else "n/a"
        ratio = f"{r.exponent / base:.4g}" if (r.exponent is not None and base) else "n/a"
        lines.append(f"{Path(r.path).name:40s} {r.n_rows:6d} {exp:>14s} {res:>10s} {ratio:>14s}")
    return "\n".join(lines) + "\n"
