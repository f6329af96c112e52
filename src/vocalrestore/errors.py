"""Exception types shared across the package."""


class VocalRestoreError(Exception):
    """Base class for all package errors."""


class IoError(VocalRestoreError):
    pass


class MissingInputError(IoError):
    pass


class ChannelError(VocalRestoreError):
    pass


class FormatError(VocalRestoreError):
    pass


class CorruptFileError(VocalRestoreError):
    pass


class EmptyInputError(VocalRestoreError):
    pass


class NonInvertibleError(VocalRestoreError):
    pass


class LayoutError(VocalRestoreError):
    pass


class ShapeError(VocalRestoreError):
    pass


class ConfigError(VocalRestoreError):
    pass


class ManifestError(VocalRestoreError):
    pass


class SampleRateError(VocalRestoreError):
    pass


class LengthMismatchError(VocalRestoreError):
    pass


class BranchCountError(VocalRestoreError):
    pass


class StructureError(VocalRestoreError):
    pass


class InputTooShortError(VocalRestoreError):
    pass


class SilentInputError(VocalRestoreError):
    pass


class ConnectivityError(VocalRestoreError):
    def __init__(self, components):
        self.components = components
        listing = "; ".join(",".join(sorted(c)) for c in components)
        super().__init__(f"comparison graph is disconnected: [{listing}]")


class DegenerateError(VocalRestoreError):
    pass


class InsufficientDataError(VocalRestoreError):
    pass
