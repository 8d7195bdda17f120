"""The benchmark harness patches decolab functions by name.

`benchmarks/spans.py` rebinds public functions (`kinetic_half_step`,
`GridDensityMatrix.__post_init__`, `registry.decay_run`, ...) to capture
results and record spans.  A refactor that renames or deletes one of them
should fail here, not abort the benchmark before it prints its result.
"""
import sys
from pathlib import Path

from decolab import localization
from decolab.scenarios import registry

BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"
HARNESS_MODULES = ("spans", "workloads", "checks")


def test_harness_patches_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    for name in HARNESS_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    import spans

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
        for name in HARNESS_MODULES:
            sys.modules.pop(name, None)
    assert registry.decay_run is originals["decay_run"]
    assert localization.GridDensityMatrix.__post_init__ is originals["post_init"]
