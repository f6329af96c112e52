"""Exception types shared across the package: one class per decision a
caller makes. The four with an exit code of their own are mapped in
cli.EXIT_CODES; ranking.rank_report catches DegenerateError and
InsufficientDataError; FormatError, ShapeError and ConfigError say which
kind of input is at fault."""


class VocalRestoreError(Exception):
    """Base class for all package errors."""


class MissingInputError(VocalRestoreError):
    """An input file does not exist (exit 2)."""


class SampleRateError(VocalRestoreError):
    """Two sample rates that must agree differ (exit 3)."""


class LengthMismatchError(VocalRestoreError):
    """Two signals that must be the same length are not (exit 4)."""


class ConnectivityError(VocalRestoreError):
    """The comparison graph falls apart into components (exit 5)."""

    def __init__(self, components):
        self.components = components
        listing = "; ".join(",".join(sorted(c)) for c in components)
        super().__init__(f"comparison graph is disconnected: [{listing}]")


class DegenerateError(VocalRestoreError):
    """Too few systems, or a system that always wins or loses, to fit."""


class InsufficientDataError(VocalRestoreError):
    """Too few comparisons for the goodness-of-fit metrics."""


class FormatError(VocalRestoreError):
    """Bytes or text read from a file are malformed."""


class ShapeError(VocalRestoreError):
    """Array sizes or structure do not match what the operation needs."""


class ConfigError(VocalRestoreError):
    """A parameter value is out of range or cannot be parsed."""
