"""Spans around calls into decolab's public functions, and the per-layer
metrics derived from them.

This is the one module that rebinds decolab functions.  `Patches` replaces
a function in the module namespace where callers look it up and puts the
original back.  On it, `Capture` keeps what the scenario functions behind
`runner.execute` return, for the checks, and `Tracer` records a span
(name, start, end, parent, op) plus a few attributes such as the grid size
around each call.  Spans are kept in memory and written out once, when the
run ends.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

from decolab import cli, hilbert, localization, premeasure, runner
from decolab.scenarios import registry
from workloads import Kinematics


class Patches:
    """Replaces functions and puts the originals back, last replaced first."""

    def __init__(self):
        self._undo: list = []

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace `owner.attr` by `wrap(original)`; in a registry dict, wrap the entry's `run`."""
        if isinstance(owner, dict):
            orig = owner[attr]
            owner[attr] = dataclasses.replace(orig, run=wrap(orig.run))
        else:
            orig = getattr(owner, attr)
            setattr(owner, attr, wrap(orig))
        self._undo.append((owner, attr, orig))

    def restore(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)


class Capture(Patches):
    """Keeps what `two_slit_run` and `decay_run` return.

    `runner.execute` writes a CSV and a report but returns no final state;
    keeping the registry's calls' results lets the checks see the final
    density matrices.  `results` is emptied before each operation.
    """

    def __init__(self):
        super().__init__()
        self.results: list = []

    def install(self) -> None:
        for name in ("two_slit_run", "decay_run"):
            self.patch(registry, name, self._keep)

    def _keep(self, fn):
        @functools.wraps(fn)
        def kept(cfg):
            out = fn(cfg)
            self.results.append((cfg, out))
            return out
        return kept


class Tracer(Patches):
    def __init__(self):
        super().__init__()
        self.spans: list[dict] = []
        self.op: str | None = None
        self._open: list[int] = []

    def trace(self, owner, attr: str, name: str, attrs=None) -> None:
        """Record a span named `name` around each call of `owner.attr`.

        `attrs(args, kwargs)` returns extra span fields; it runs only after a call that returned.
        """
        self.patch(owner, attr, lambda fn: self._wrap(name, fn, attrs))

    def _wrap(self, name: str, fn, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"name": name, "op": self.op, "parent": self._open[-1] if self._open else None}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            error = None
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                error = exc
                raise
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
                span["error"] = error is not None
                if attrs is not None and error is None:
                    span.update(attrs(args, kwargs))
        return traced

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans) + "\n")


def _steps(args, _):
    cfg = args[0]
    return {"n": getattr(cfg, "n_points", None), "steps": round(cfg.t_final / cfg.dt),
            "monitored": getattr(cfg, "monitored", None)}


def _grid(args, _):
    return {"n": args[0].grid.n_points}


def _dim(args, _):
    return {"dim": args[0].split.dim}


def _evolve(args, kwargs):
    s0, t_final, dt = args[:3]
    recorder = kwargs.get("recorder", args[3] if len(args) > 3 else True)  # evolve records by default
    return {"n": s0.grid.n_points, "steps": round(t_final / dt), "recorded": bool(recorder)}


def _csv(args, _):
    path, _column, trace = args
    return {"rows": len(trace.times) + 1, "bytes": os.path.getsize(path)}


def install(tracer: Tracer) -> None:
    """Trace the public functions each layer offers, where callers look them up."""
    loc = localization
    for attr in ("kinetic_half_step", "localization_step", "moments_of", "coherence_length"):
        tracer.trace(loc, attr, f"localization.{attr}", _grid)
    tracer.trace(loc, "evolve", "localization.evolve", _evolve)
    tracer.trace(loc.GridDensityMatrix, "__post_init__", "localization.GridDensityMatrix", _grid)
    tracer.trace(loc.GridDensityMatrix, "audit", "localization.audit", _grid)

    tracer.trace(registry, "two_slit_run", "scenarios.two_slit_run", _steps)
    tracer.trace(registry, "chiral_run", "scenarios.chiral_run", _steps)
    tracer.trace(registry, "decay_run", "scenarios.decay_run", _steps)
    tracer.trace(registry, "run_chain", "scenarios.run_chain")
    tracer.trace(registry, "charge_reduced_density", "scenarios.charge_reduced_density")
    for name in list(registry.SCENARIOS):
        tracer.trace(registry.SCENARIOS, name, f"scenarios.run.{name}")

    tracer.trace(hilbert.DensityMatrix, "__post_init__", "hilbert.DensityMatrix", _dim)
    for attr in ("density_of", "partial_trace", "schmidt", "entanglement_entropy"):
        tracer.trace(hilbert, attr, f"hilbert.{attr}", _dim)
    for attr in ("ideal_premeasure", "erase", "decoherence_factor"):
        tracer.trace(premeasure, attr, f"premeasure.{attr}")

    # cli imported these by name, so its namespace is patched as well as runner's
    for owner in (runner, cli):
        tracer.trace(owner, "execute", "runner.execute")
        tracer.trace(owner, "parse_config", "runner.parse_config")
    tracer.trace(runner, "write_trace_csv", "runner.write_trace_csv", _csv)
    tracer.trace(cli, "summarize", "runner.summarize")
    tracer.trace(cli, "main", "cli.main")
# name -> unit; README.md gives the end-to-end metric and workload each one should move
LAYER_METRICS = {
    "localization.kinetic_half_step_ms": "ms",
    "localization.localization_step_ms": "ms",
    "localization.GridDensityMatrix_ms": "ms",
    "localization.audit_ms": "ms",
    "localization.evolve_step_ms": "ms/step",
    "localization.evolve_recorded_step_ms": "ms/step",
    "localization.moments_of_ms": "ms",
    "localization.coherence_length_ms": "ms",
    "scenarios.two_slit_run_s": "s",
    "scenarios.chiral_run_us_per_step": "us/step",
    "scenarios.decay_run_ms_per_step": "ms/step",
    **{f"scenarios.run.{name}_s": "s" for name in ("two-slit", "chiral-sugar", "chiral-ph3-like", "decay-cavity",
                                                 "decay-monitored", "charge-shells", "born-chain")},
    "scenarios.run_chain_ms": "ms",
    "scenarios.charge_reduced_density_us": "us",
    "hilbert.DensityMatrix_ms": "ms",
    "hilbert.DensityMatrix_small_us": "us",
    "hilbert.density_of_ms": "ms",
    "hilbert.partial_trace_ms": "ms",
    "hilbert.schmidt_ms": "ms",
    "hilbert.entanglement_entropy_ms": "ms",
    "premeasure.ideal_premeasure_ms": "ms",
    "premeasure.erase_ms": "ms",
    "premeasure.decoherence_factor_us": "us",
    "cli.import_s": "s",
    "runner.parse_config_ms": "ms",
    "runner.execute_overhead_ms": "ms",
    "runner.write_trace_csv_ms": "ms",
    "runner.summarize_ms": "ms",
    "localization.steps": "count",
    "scenarios.steps": "count",
    "runner.csv_rows": "count",
    "runner.csv_bytes": "count",
    **{f"tracing_overhead_pct.{w}": "%" for w in ("grid", "few-level", "kinematics", "batch-io")},
}


def _dur(span) -> float:
    return span["end"] - span["start"]


def _median(durations, scale: float) -> float | None:
    durations = list(durations)
    return statistics.median(durations) * scale if durations else None


def _sum(values, scale: float = 1) -> float | None:
    values = list(values)
    return sum(values) * scale if values else None


def layer_metrics(spans: list[dict], import_s: float, overhead_pct: dict, headline_ops: set) -> dict:
    """Per-layer metrics from the spans of one traced round of every workload.

    Per-call times are medians over the calls; `_s` totals and counts are
    sums over the round; step counts come from the configs passed in, not
    from counting step spans.  A call that raised (a known fault) carries
    no attributes and adds to no per-step figure or count.  A metric whose
    spans do not occur, say because the program no longer makes that call,
    is left out of the result and named on stderr.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def sel(name, **match):
        return [s for s in by_name.get(name, []) if all(s.get(k) == v for k, v in match.items())]

    def med(name, scale, **match):
        return _median(map(_dur, sel(name, **match)), scale)

    def per_step(name, scale, **match):
        chosen = sel(name, error=False, **match)
        return sum(map(_dur, chosen)) / sum(s["steps"] for s in chosen) * scale if chosen else None

    def head(name, scale):
        return _median((_dur(s) for s in by_name.get(name, []) if s["op"] in headline_ops), scale)

    def batch(name):
        return [s for s in by_name.get(name, []) if (s["op"] or "").startswith("batch-io/")]

    # `evolve` as the grid workload calls it, not as a scenario might inside its own span
    direct_evolve = [s for s in sel("localization.evolve", error=False) if s["parent"] is None]
    runs = {s["parent"]: _dur(s) for s in spans if s["name"].startswith("scenarios.run.")}
    overheads = [_dur(s) - runs.get(i, 0.0) for i, s in enumerate(spans)
                 if s["name"] == "runner.execute" and (s["op"] or "").startswith("batch-io/")]
    csv = sel("runner.write_trace_csv", error=False)

    values = {
        "localization.kinetic_half_step_ms": med("localization.kinetic_half_step", 1e3, n=512),
        "localization.localization_step_ms": med("localization.localization_step", 1e3, n=512),
        "localization.GridDensityMatrix_ms": med("localization.GridDensityMatrix", 1e3, n=512),
        "localization.audit_ms": med("localization.audit", 1e3, n=512),
        "localization.evolve_step_ms": per_step("localization.evolve", 1e3, parent=None, recorded=False),
        "localization.evolve_recorded_step_ms": per_step("localization.evolve", 1e3, parent=None, recorded=True),
        "localization.moments_of_ms": med("localization.moments_of", 1e3),
        "localization.coherence_length_ms": med("localization.coherence_length", 1e3),
        "scenarios.two_slit_run_s": _sum(map(_dur, sel("scenarios.two_slit_run", n=512))),
        "scenarios.chiral_run_us_per_step": per_step("scenarios.chiral_run", 1e6),
        "scenarios.decay_run_ms_per_step": per_step("scenarios.decay_run", 1e3, monitored=True),
        "scenarios.run_chain_ms": _sum(map(_dur, sel("scenarios.run_chain")), 1e3),
        "scenarios.charge_reduced_density_us": med("scenarios.charge_reduced_density", 1e6),
        "hilbert.DensityMatrix_ms": med("hilbert.DensityMatrix", 1e3, dim=Kinematics.HEADLINE_DIM),
        "hilbert.DensityMatrix_small_us": _median(
            (_dur(s) for s in sel("hilbert.DensityMatrix") if 2 <= s.get("dim", 0) <= 8), 1e6),
        "hilbert.density_of_ms": head("hilbert.density_of", 1e3),
        "hilbert.partial_trace_ms": head("hilbert.partial_trace", 1e3),
        "hilbert.schmidt_ms": head("hilbert.schmidt", 1e3),
        "hilbert.entanglement_entropy_ms": head("hilbert.entanglement_entropy", 1e3),
        "premeasure.ideal_premeasure_ms": med("premeasure.ideal_premeasure", 1e3),
        "premeasure.erase_ms": med("premeasure.erase", 1e3),
        "premeasure.decoherence_factor_us": med("premeasure.decoherence_factor", 1e6),
        "cli.import_s": import_s,
        "runner.parse_config_ms": med("runner.parse_config", 1e3),
        "runner.execute_overhead_ms": _median(overheads, 1e3),
        "runner.write_trace_csv_ms": _sum(map(_dur, batch("runner.write_trace_csv")), 1e3),
        "runner.summarize_ms": _sum(map(_dur, batch("runner.summarize")), 1e3),
        "localization.steps": _sum(s["steps"] for s in sel("scenarios.two_slit_run", error=False) + direct_evolve),
        "scenarios.steps": _sum(s["steps"] for name in ("scenarios.chiral_run", "scenarios.decay_run")
                                for s in sel(name, error=False)),
        "runner.csv_rows": _sum(s["rows"] for s in csv),
        "runner.csv_bytes": _sum(s["bytes"] for s in csv),
    }
    for name in registry.SCENARIOS:
        values[f"scenarios.run.{name}_s"] = _sum(map(_dur, sel(f"scenarios.run.{name}")))
    for w, pct in overhead_pct.items():
        values[f"tracing_overhead_pct.{w}"] = pct
    missing = [name for name in LAYER_METRICS if values.get(name) is None]
    if missing:
        print(f"no spans for: {', '.join(missing)}", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()
            if values.get(name) is not None}
