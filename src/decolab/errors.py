"""Shared exception types (mapped to CLI exit codes in cli.py)."""


class ConfigError(ValueError):
    """Bad run configuration: unknown key, missing key, out-of-bounds value."""


class PreconditionError(ValueError):
    """A scenario precondition (grid margin, packet spread, dt dividing t_final, mode span) is violated."""


class InvariantError(RuntimeError):
    """A kinematic invariant (trace, hermiticity, positivity) drifted mid-run."""
