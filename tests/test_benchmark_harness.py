"""The benchmark harness patches decolab functions by name.

`benchmarks/spans.py` rebinds public functions (`kinetic_half_step`,
`GridDensityMatrix.__post_init__`, `registry.decay_run`, ...) to capture
results and record spans.  A refactor that renames or deletes one of them,
or stops calling it where the per-layer metrics look for it, should fail
here, not abort the benchmark or leave it without those metrics.
"""
import sys
from pathlib import Path

import pytest

from decolab import localization, runner
from decolab.scenarios import registry

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
HARNESS_MODULES = ("spans", "workloads", "checks")


@pytest.fixture
def harness(monkeypatch):
    """The benchmark's `spans` and `workloads` modules, imported afresh and dropped afterwards."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in HARNESS_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans
    import workloads

    yield spans, workloads
    for name in HARNESS_MODULES:
        sys.modules.pop(name, None)


def test_harness_patches_install_and_restore(harness):
    spans, _ = harness
    originals = {"decay_run": registry.decay_run, "post_init": localization.GridDensityMatrix.__post_init__}
    capture, tracer = spans.Capture(), spans.Tracer()
    try:
        capture.install()
        spans.install(tracer)
        assert registry.decay_run is not originals["decay_run"]
        assert localization.GridDensityMatrix.__post_init__ is not originals["post_init"]
    finally:
        tracer.restore()
        capture.restore()
    assert registry.decay_run is originals["decay_run"]
    assert localization.GridDensityMatrix.__post_init__ is originals["post_init"]


def _failed_ops(workload, capture, outdir: Path, tracer=None) -> dict:
    """Run the workload's operations once, in order, checking each; returns {name: error} of those that failed."""
    outdir.mkdir(parents=True)
    failed = {}
    for op in workload.ops():
        capture.results = []
        if tracer is not None:
            tracer.op = f"{workload.name}/{op.name}"
        try:
            op.check(op.run(outdir), capture.results)
        except Exception as exc:  # a raising operation or a failed check, as the benchmark counts them
            failed[op.name] = f"{type(exc).__name__}: {exc}"
    return failed


def test_one_round_of_every_workload_fails_only_known_faults(harness, tmp_path, monkeypatch):
    """A traced round fails only the known faults and yields every per-layer metric the round can measure."""
    spans, workloads = harness
    monkeypatch.setenv(runner.OUTPUT_DIR_ENV, str(tmp_path))  # batch-io sets it per round; restored here
    capture, tracer = spans.Capture(), spans.Tracer()
    capture.install()
    spans.install(tracer)
    failed, headline_ops = {}, set()
    try:
        for name, cls in workloads.WORKLOADS.items():
            tracer.op = None
            workload = cls(1, tmp_path / name / "inputs")
            headline_ops.add(f"{name}/{workload.headline}")
            failed[name] = _failed_ops(workload, capture, tmp_path / name / "round", tracer)
    finally:
        tracer.restore()
        capture.restore()
    known = {f"run-{name}" for name in workloads.KNOWN_FAULTS}
    assert {name: {op: err for op, err in ops.items() if op not in known} for name, ops in failed.items()} == \
        {name: {} for name in workloads.WORKLOADS}
    assert "run-F6-charge-underflow" not in failed["batch-io"]
    # tracing overhead needs an untraced twin of each operation, which only the benchmark runs
    metrics = spans.layer_metrics(tracer.spans, 0.0, {}, headline_ops)
    wanted = [name for name in spans.LAYER_METRICS if not name.startswith("tracing_overhead_pct.")]
    assert [name for name in wanted if name not in metrics] == []
