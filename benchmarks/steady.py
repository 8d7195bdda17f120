"""Steadiness of the benchmark: repeat each workload over seeds, report spreads.

    python3 benchmarks/steady.py --runs 10 [--workloads grid,batch-io] [--out FILE] [--baseline FILE]

Runs `run.py --trace 0` once per (workload, seed) in a fresh process,
then prints each end-to-end metric's median, quartiles
(`statistics.quantiles`, n=4) and spread = (q3 - q1) / median beside the
bound in BENCHMARK.json, and the share of failed operations, which must
be the same in every run.  A metric whose spread is not below a third of
its bound is marked UNSTEADY.  With --baseline, the --out file of an
earlier set, each median is also compared with that set's: a median
worse by more than the bound, or a changed failed share, is marked
DRIFT.  Exits 1 on any mark.  The JSON written to --out also records the
machine: nproc, thread settings and the Python, numpy, scipy and BLAS
versions.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import bootstrap

SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(bootstrap.BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=bootstrap.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(q2) if q2 else float("inf"), "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--out", type=Path, default=None)
    ap.add_argument("--baseline", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    base = json.loads(args.baseline.read_text())["workloads"] if args.baseline else {}
    report = {"machine": bootstrap.machine_info(), "runs": args.runs, "seed0": args.seed0,
              "seconds": args.seconds, "workloads": {}}
    print(json.dumps(report["machine"]))
    print(f"{'workload':12s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} {'bound':>6s}"
          f" {'vs base':>8s}")
    ok = True
    for workload in args.workloads.split(","):
        results = [run_once(workload, args.seed0 + i, args.seconds) for i in range(args.runs)]
        shares = sorted({str(Fraction(r["failed"], r["attempted"])) for r in results})
        entry = {"failed_share": shares, "correct": all(r["correct"] for r in results), "metrics": {}}
        before = base.get(workload)
        for name, bound in bounds.items():
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["metrics"][name] = stats
            marks = [] if stats["spread"] < bound / 3.0 else ["UNSTEADY"]
            change = ""
            if before is not None:
                ratio = stats["median"] / before["metrics"][name]["median"] - 1.0
                change = f"{ratio:+.3f}"
                marks += ["DRIFT"] if ratio > bound else []
            ok = ok and not marks
            print(f"{workload:12s} {name:12s} {stats['median']:10.5g} {stats['q1']:10.5g} {stats['q3']:10.5g} "
                  f"{stats['spread']:7.4f} {bound:6} {change:>8s}  {' '.join(marks)}")
        drift = before is not None and before["failed_share"] != shares
        print(f"{workload:12s} failed share {' '.join(shares)}  correct {entry['correct']}"
              f"{'  DRIFT' if drift else ''}")
        ok = ok and len(shares) == 1 and entry["correct"] and not drift
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
