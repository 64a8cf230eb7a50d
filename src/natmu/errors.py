"""Exception hierarchy.

ValidationError subclasses signal bad inputs (CLI exit code 1); everything
else under NatmuError is a runtime failure (exit code 2).
"""


class NatmuError(Exception):
    pass


class ValidationError(NatmuError):
    pass


class ShapeMismatchError(ValidationError):
    pass


class DatasetFormatError(ValidationError):
    pass


class BadMagicError(DatasetFormatError):
    pass


class TruncatedPayloadError(DatasetFormatError):
    pass


class LabelRangeError(DatasetFormatError):
    pass


class PixelRangeError(DatasetFormatError):
    pass


class CheckpointFormatError(ValidationError):
    pass


class MissingTraceError(ValidationError):
    pass


class EmptyClassError(ValidationError):
    pass


class MetricSetMismatchError(ValidationError):
    pass


class ConfigError(ValidationError):
    pass


class CategoryExhaustedError(NatmuError):
    pass


class DivergenceError(NatmuError):
    pass


class RetrainIsolationError(NatmuError):
    pass


class WorkerDiedError(NatmuError):
    pass
