"""Exception taxonomy shared across the package, and its one range rule.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError and CheckpointError -> 3.  Every scalar range check of a config
key or public numeric argument is one `check_number` call: a bad config key
raises ConfigError, a bad data-level argument DataError.

Each config key is declared once, on its dataclass field (`config_field`):
default, interval and help.  `check_fields` checks a config against them.
"""

import dataclasses
import numbers
import operator


class GbsrError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(GbsrError):
    """Invalid or inconsistent configuration."""


class DataError(GbsrError):
    """Missing, malformed, or degenerate input data."""


class ParseError(DataError):
    """A line in an edge file failed to parse."""

    def __init__(self, path, lineno, detail):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {detail}")


class NumericError(GbsrError):
    """Non-finite values encountered during training or evaluation."""


class CheckpointError(GbsrError):
    """Checkpoint file is corrupt or has an unsupported layout."""


def check_number(name, value, interval, *, integer=False, error=ConfigError):
    """`value` as a Python int or float when it is a number in `interval`,
    written as the message prints it ("[0, 1)", "(0, inf)"); otherwise
    raises `error` naming `name`, the interval and the value.  A bool is no
    number, NaN lies in no interval, and `integer` asks for a
    `numbers.Integral`, Python's or numpy's."""
    lo, hi = (float(end) for end in interval[1:-1].split(","))
    if (isinstance(value, numbers.Integral if integer else numbers.Real)
            and not isinstance(value, bool)
            and (lo < value if interval[0] == "(" else lo <= value)
            and (value < hi if interval[-1] == ")" else value <= hi)):
        return operator.index(value) if isinstance(value, numbers.Integral) else float(value)
    kind = "an integer" if integer else "a number"
    raise error(f"{name} must be {kind} in {interval}, got {value!r}")


def config_field(default, interval=None, help=None):
    """A dataclass field declaring a config key: its default, the interval
    `check_number` holds it to (or None), and its flag help (or None)."""
    return dataclasses.field(default=default, metadata={"interval": interval, "help": help})


def check_fields(config) -> None:
    """Check each field of a config dataclass against its declaration and
    keep the Python number `check_number` returns: an `int` field with an
    interval takes an integer, and a `bool` field takes a bool."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.metadata.get("interval") is not None:
            value = check_number(f.name, value, f.metadata["interval"],
                                 integer=f.type in ("int", int))
        elif f.type in ("bool", bool) and not isinstance(value, bool):
            raise ConfigError(f"{f.name} must be a bool, got {value!r}")
        object.__setattr__(config, f.name, value)
