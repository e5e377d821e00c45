"""Exception taxonomy shared across the package, and its one range rule.

The CLI maps these onto exit codes: ConfigError -> 1, DataError -> 2,
NumericError and CheckpointError -> 3.  Every scalar range check of a config
key or public numeric argument is one `check_number` call: a bad config key
raises ConfigError, a bad data-level argument DataError.
"""

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
