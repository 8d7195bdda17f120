"""Regenerate the golden traces: one small CSV per scenario preset.

    PYTHONPATH=src python tests/golden/regenerate.py [--check] [NAME ...]

With no NAME every golden is regenerated; otherwise only the named ones
(the keys of CONFIGS, which are the CSV stems).  Each golden is one
preset run through `runner.execute` at a cheap config (well under 0.5 s).  `tests/test_golden.py` re-runs the same configs and
compares header, row count and values.  Regenerate only when a change
moves a value beyond that test's tolerance, and say why in CHANGES.md.

--check writes nothing: it reruns the goldens into a temporary directory,
prints each one whose bytes differ from the golden with its first differing
line, and exits 1 if any differ.  A CSV that changes bytes for the same
config and seed needs a CHANGES.md note; this says whether one does.
"""
from __future__ import annotations

import sys
import tempfile
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


def check(names) -> int:
    """Rerun the named goldens into a temporary directory; print each that differs in its bytes; 1 if any does."""
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            golden, fresh = (GOLDEN_DIR / f"{name}.csv").read_bytes(), run(name, Path(tmp)).read_bytes()
            if fresh != golden:
                old, new = golden.decode().splitlines(True) + [""], fresh.decode().splitlines(True) + [""]
                i = next(i for i, (a, b) in enumerate(zip(old, new)) if a != b)  # '' past the shorter's end
                print(f"{name}: line {i + 1} differs: golden {old[i]!r}, rerun {new[i]!r}")
                status = 1
    return status


def main(argv: list[str]) -> int:
    checking = "--check" in argv
    names = [a for a in argv if a != "--check"] or list(CONFIGS)
    unknown = sorted(set(names) - set(CONFIGS))
    if unknown:
        print(f"unknown golden {', '.join(unknown)}; known: {', '.join(CONFIGS)}", file=sys.stderr)
        return 1
    if checking:
        return check(names)
    for name in names:
        print(run(name, GOLDEN_DIR))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
