"""Exception types shared across the package.

The CLI maps these onto exit codes: usage/config problems exit 1, data
ingestion problems exit 2, numeric failures (NaN loss, tolerance breach)
exit 3.
"""


class StopSnnError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(StopSnnError, ValueError):
    """Tensor shapes do not satisfy an operation's contract."""


class EncodingError(StopSnnError, ValueError):
    """Raw input values cannot be encoded into spike frames."""


class TargetError(StopSnnError, ValueError):
    """Desired output vector is not a valid one-hot target."""


class ParseError(StopSnnError, ValueError):
    """Architecture string is malformed; carries the offending token."""

    def __init__(self, message, token=None, position=None):
        if token is not None:
            message = f"{message} (token {token!r} at position {position})"
        super().__init__(message)
        self.token = token
        self.position = position


class DataError(StopSnnError, ValueError):
    """Dataset file is missing, truncated, or malformed."""


class ConfigError(StopSnnError, ValueError):
    """Training configuration is inconsistent or unusable."""


class NumericError(StopSnnError, RuntimeError):
    """A numeric invariant failed at runtime (NaN loss, tolerance breach)."""


class SizeGuardError(StopSnnError, ValueError):
    """Reference-oracle size guard exceeded; the network is too large to enumerate."""


class UnsupportedModeError(StopSnnError, ValueError):
    """Operation does not support the requested spike mode."""
