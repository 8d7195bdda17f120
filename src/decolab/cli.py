"""Command-line entry point.

Exit codes: 0 success, 2 config error, 3 scenario precondition failure
(including a run whose arithmetic leaves the floating-point range),
4 invariant failure, in a run or in `runner.execute`'s final audit.  Each
ends the command, naming on stderr the sections it skips.
"""
from __future__ import annotations

import argparse
import functools
import sys

from .errors import ConfigError, InvariantError, PreconditionError
from .runner import emit_config, execute, format_summary_table, parse_config, summarize
from .scenarios.registry import SCENARIOS


def _cmd_run(args) -> int:
    try:
        with open(args.config) as fh:
            runs = parse_config(fh.read())
        for cfg in runs:  # rules across fields, checked before any run starts
            cfg.spec.configure(cfg.parameters, cfg.stride)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for index, cfg in enumerate(runs):
        try:
            report = execute(cfg, index=index, seed_override=args.seed)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return _skip(runs, index, 2)
        except (PreconditionError, ArithmeticError) as exc:  # or out of float range
            print(f"precondition failure in [{cfg.scenario}]: {exc}", file=sys.stderr)
            print(f"config echo:\n{emit_config(cfg)}", file=sys.stderr)
            return _skip(runs, index, 3)
        except InvariantError as exc:
            print(f"invariant violation in [{cfg.scenario}]: {exc}", file=sys.stderr)
            print(f"config echo:\n{emit_config(cfg)}", file=sys.stderr)
            return _skip(runs, index, 4)
        print(f"[{cfg.scenario}] seed={report.config.seed} -> {report.trace_path} ({report.wall_time:.2f}s)")
        for key, value in report.summary.items():
            print(f"  {key} = {value}")
    return 0


def _skip(runs, index: int, code: int) -> int:
    """Name on stderr each section after runs[index], whose exit `code` ends the run; returns code."""
    for number, cfg in enumerate(runs[index + 1:], start=index + 2):
        print(f"skipped section {number} [{cfg.scenario}]: not run after exit {code}", file=sys.stderr)
    return code


def _cmd_list(_args) -> int:
    for name in sorted(SCENARIOS):
        spec = SCENARIOS[name]
        print(f"{name}: {spec.description}")
        for pname, ps in spec.params.items():
            print(f"    {pname} (default {ps.default}{', ' + ps.constraint if ps.constraint else ''})")
    return 0


def _cmd_summarize(args) -> int:
    window = tuple(args.window) if args.window else None
    try:
        rows = summarize(args.trace, column=args.column, window=window)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(format_summary_table(rows), end="")
    return 0


@functools.cache  # one shared parser per process: parse_args leaves it as it was; callers must not change it
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="decolab", description="Decoherence scenario runner")
    sub = ap.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute every run in a config file")
    p_run.add_argument("config", help="path to the key = value config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.set_defaults(fn=_cmd_run)

    p_list = sub.add_parser("list-scenarios", help="show registered scenarios and parameters")
    p_list.set_defaults(fn=_cmd_list)

    p_sum = sub.add_parser("summarize", help="tabulate fitted exponents across trace files")
    p_sum.add_argument("trace", nargs="*", help="CSV trace files")
    p_sum.add_argument("--column", default=None, help="observable column to fit (default: first)")
    p_sum.add_argument("--window", nargs=2, type=float, default=None, metavar=("T0", "T1"))
    p_sum.set_defaults(fn=_cmd_summarize)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
