"""decolab benchmark: one workload per process, one client, closed loop.

    python3 benchmarks/run.py --workload grid --seed 1 --seconds 16 --trace 0

With --trace 0 the workload's fixed list of operations runs in rounds
until --seconds have passed (always whole rounds), every output is
checked, and the last line of stdout is a JSON object with the
end-to-end metrics (medians over the rounds, each time scaled to the
host's nominal speed; see pace.py and README.md).  With --trace 1 every
operation of every workload runs twice, whatever --workload names,
untraced and with spans around each call into decolab's public
functions; the per-layer metrics and the tracing overhead come from
those pairs, and the spans are written to benchmarks/_traces/.  See
README.md.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import bootstrap  # first: pins BLAS threads before numpy loads
import pace

SETUP_PROBES = 5
WORK_DIR = bootstrap.BENCH_DIR / "_work"
TRACE_DIR = bootstrap.BENCH_DIR / "_traces"


@dataclass
class OpRecord:
    workload: str
    op: object
    seconds: float
    result: object
    captured: list
    error: str | None


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="required with --trace 0; --trace 1 runs every workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload is None and not args.trace:
        ap.error("--workload is required with --trace 0")
    return args


def time_op(workload, op, capture, outdir: Path, tracer=None) -> OpRecord:
    """Run one operation; a raising operation is a failed one."""
    capture.results = []
    if tracer is not None:
        tracer.op = f"{workload.name}/{op.name}"
    t0 = time.perf_counter()
    try:
        result, error = op.run(outdir), None
    except Exception as exc:
        result, error = None, f"raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.op = None
    return OpRecord(workload.name, op, seconds, result, capture.results, error)


def run_round(workload, capture, outdir: Path) -> tuple[list[OpRecord], list[float]]:
    """Run the workload's operations once, in order, timing the host's
    reference computation before each and after the last; returns the
    records and the reference's times."""
    outdir.mkdir(parents=True)
    gc.collect()  # the previous round's garbage is not this round's work
    refs, records = [pace.reference()], []
    for op in workload.ops():
        records.append(time_op(workload, op, capture, outdir))
        refs.append(pace.reference())
    return records, refs


def check_round(records: list[OpRecord], outdir: Path) -> None:
    """Check every operation that did not raise; a failed check marks it failed."""
    for rec in records:
        if rec.error is None:
            try:
                rec.op.check(rec.result, rec.captured)
            except Exception as exc:  # CheckFailed, or outputs too malformed to check
                rec.error = f"{type(exc).__name__}: {exc}"
    shutil.rmtree(outdir)


def tally(records: list[OpRecord], reported: set) -> tuple[int, int, bool]:
    """(attempted, failed, correct); correct means every failure is a known fault."""
    failed = [r for r in records if r.error is not None]
    for r in failed:
        key = (r.workload, r.op.name, r.error)
        if key not in reported:
            reported.add(key)
            print(f"FAIL {r.workload}/{r.op.name}: {r.error}", file=sys.stderr)
    return len(records), len(failed), all(r.op.known_fault for r in failed)


def setup_probe_seconds(args) -> tuple[float, list[float]]:
    """Fresh interpreter to first timed operation: spawn one that sets up and says 'ready'.

    Returns the time and the reference's times just before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    before = pace.reference()
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up probe failed (exit {code})")
    return elapsed, [before, pace.reference()]


def timed_run(args, workloads, spans, workdir: Path) -> dict:
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir / "inputs")
    capture = spans.Capture()
    capture.install()
    setup, rounds = [], []  # raw seconds with the reference's times around them
    attempted = failed = 0
    correct, reported = True, set()
    measured = 0.0  # rounds and their checks; the set-up probes do not count
    while not rounds or measured < args.seconds:
        # one probe before each round, so that the probes meet the machine's
        # speed at different moments of the run, not in one burst
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe_seconds(args))
        start = time.perf_counter()
        outdir = workdir / f"round-{len(rounds)}"
        records, refs = run_round(workload, capture, outdir)
        rounds.append(([r.seconds for r in records], refs,
                       next(i for i, r in enumerate(records) if r.op.name == workload.headline)))
        check_round(records, outdir)
        a, f, ok = tally(records, reported)
        attempted, failed, correct = attempted + a, failed + f, correct and ok
        measured += time.perf_counter() - start
    capture.restore()
    setup += [setup_probe_seconds(args) for _ in range(SETUP_PROBES - len(setup))]
    # every time in seconds at the reference's nominal speed (pace.py), median over the run
    walls, headline = [], []
    for seconds, refs, head in rounds:
        ops = pace.scaled(seconds, refs)
        walls.append(sum(ops))
        headline.append(ops[head])
    metrics = {
        "setup_s": (statistics.median(pace.scaled([s], refs)[0] for s, refs in setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "headline_s": (statistics.median(headline), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(json.dumps({"rounds": [{"ops": o, "refs": r} for o, r, _ in rounds],
                      "setup": [{"s": s, "refs": r} for s, r in setup], "machine": bootstrap.machine_info()}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def traced_run(args, workloads, spans, workdir: Path, import_s: float) -> dict:
    tracer = spans.Tracer()
    capture = spans.Capture()
    capture.install()
    overhead, headline_ops = {}, set()
    attempted = failed = 0
    correct, reported = True, set()
    for name, cls in workloads.WORKLOADS.items():
        spans.install(tracer)
        tracer.op = f"{name}/setup"
        workload = cls(args.seed, workdir / name / "inputs")
        tracer.op = None
        tracer.restore()
        headline_ops.add(f"{name}/{workload.headline}")

        # each operation runs untraced and traced back to back, in alternating
        # order, so that the machine's slow drift cancels out of the overhead
        plain_dir, traced_dir = workdir / name / "plain", workdir / name / "traced"
        plain_dir.mkdir(parents=True)
        traced_dir.mkdir(parents=True)
        plain, traced = [], []

        def run_plain(op):
            plain.append(time_op(workload, op, capture, plain_dir))

        def run_traced(op):
            spans.install(tracer)
            try:
                traced.append(time_op(workload, op, capture, traced_dir, tracer))
            finally:
                tracer.restore()

        for i, op in enumerate(workload.ops()):
            for run in ((run_plain, run_traced) if i % 2 == 0 else (run_traced, run_plain)):
                run(op)
        check_round(plain, plain_dir)
        check_round(traced, traced_dir)
        overhead[name] = 100.0 * (sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0)
        a, f, ok = tally(plain + traced, reported)
        attempted, failed, correct = attempted + a, failed + f, correct and ok
    capture.restore()
    tracer.dump(TRACE_DIR / f"spans-seed{args.seed}.json")
    print(json.dumps({"machine": bootstrap.machine_info()}))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": spans.layer_metrics(tracer.spans, import_s, overhead, headline_ops)}


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    try:
        bootstrap.require_decolab()
        import decolab.cli  # noqa: F401  (the import a `decolab` command pays)
    except (bootstrap.MissingProgram, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    import spans
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK_DIR / f"{args.workload if not args.trace else 'trace'}-{os.getpid()}"
    try:
        if args.setup_probe:
            workloads.WORKLOADS[args.workload](args.seed, workdir / "inputs")
            print("ready", flush=True)
            return 0
        if args.trace:
            result = traced_run(args, workloads, spans, workdir, import_s)
        else:
            result = timed_run(args, workloads, spans, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
