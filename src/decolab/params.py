"""Declared, bounded run parameters on config dataclasses.

A config dataclass derived from `Declared` declares each run parameter
once, as a field made by `param`: its default, its bounds and, where it
differs from the field name, the key a config file uses for it.
Constructing the dataclass refuses an out-of-bound or non-finite value
with ConfigError, and the scenario registry builds its presets from the
same declarations (`declared`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError


@dataclass(frozen=True)
class Param:
    default: float | int
    low: float | int
    high: float | int | None = None  # inclusive
    open_low: bool = False           # low itself is out of bounds
    key: str = ""                    # config key
    infinite: bool = False           # inf is a valid value (otherwise values are finite)

    @property
    def constraint(self) -> str:
        if self.high is None:
            return f"{self.key} {'>' if self.open_low else '>='} {self.low}"
        return f"{self.low} {'<' if self.open_low else '<='} {self.key} <= {self.high}"

    def coerce(self, raw: str):
        try:
            return type(self.default)(raw)
        except ValueError as exc:
            raise ConfigError(f"cannot parse {raw!r} as {type(self.default).__name__}") from exc

    def check(self, name: str, value) -> None:
        above_low = self.low < value if self.open_low else self.low <= value  # False for nan
        if not (above_low and (self.high is None or value <= self.high)):
            raise ConfigError(f"out of bounds: {self.constraint}")
        if isinstance(value, float) and not (self.infinite or math.isfinite(value)):
            raise ConfigError(f"{name} must be finite")


def param(default, *, above=None, at_least=None, at_most=None, key: str = "", infinite: bool = False):
    """A dataclass field declaring a run parameter: `above` is an open lower bound, `at_least` a closed one."""
    low = above if above is not None else at_least
    return field(default=default,
                 metadata={"param": Param(default, low, at_most, above is not None, key, infinite)})


@functools.cache
def declared(config: type) -> dict[str, Param]:
    """Field name -> declaration of each declared parameter of a config dataclass, in field order."""
    return {f.name: replace(f.metadata["param"], key=f.metadata["param"].key or f.name)
            for f in fields(config) if "param" in f.metadata}


class Declared:
    """Base of a config dataclass with `param` fields: constructing one checks every declared bound."""

    def __post_init__(self):
        for name, p in declared(type(self)).items():
            p.check(p.key, getattr(self, name))
