"""Regenerate the golden traces: one small CSV per scenario preset.

    PYTHONPATH=src python tests/golden/regenerate.py

Each golden is one preset run through `runner.execute` at a cheap config
(well under 0.5 s).  `tests/test_golden.py` re-runs the same configs and
compares header, row count and values.  Regenerate only when a change
moves a value beyond that test's tolerance, and say why in CHANGES.md.
"""
from __future__ import annotations

from pathlib import Path

from decolab import runner

GOLDEN_DIR = Path(__file__).resolve().parent

# name -> config section; the name is also the golden's file stem
CONFIGS = {
    "two-slit": "[two-slit]\n",
    # finite mass on an odd grid, records between kicks (stride 3) and at a partial last stride
    "two-slit-finite-mass": "[two-slit]\nmass = 5\npacket_width = 0.1\nn_points = 129\n"
                            "t_final = 0.2\ndt = 0.01\nrecord_stride = 3\n",
    "chiral-sugar": "[chiral-sugar]\nrecord_stride = 1000\n",
    "chiral-ph3-like": "[chiral-ph3-like]\nrecord_stride = 200\n",
    "charge-shells": "[charge-shells]\n",
    "decay-cavity": "[decay-cavity]\n",
    "decay-monitored": "[decay-monitored]\nn_modes = 41\nt_final = 4\n",
    "born-chain": "[born-chain]\nseed = 7\n",
}


def run(name: str, outdir: Path) -> Path:
    """Run golden `name` through runner.execute into outdir; returns the CSV's path."""
    path = Path(outdir) / f"{name}.csv"
    runner.execute(runner.parse_config(CONFIGS[name] + f"output = {path}\n")[0])
    path.with_name(path.name + ".report.json").unlink()
    return path


if __name__ == "__main__":
    for name in CONFIGS:
        print(run(name, GOLDEN_DIR))
