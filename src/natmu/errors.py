"""Exception hierarchy, and `check_least`, the one bound check of every
parameter rule.

ValidationError subclasses signal bad inputs (CLI exit code 1); everything
else under NatmuError is a runtime failure (exit code 2).
"""

import math


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


def check_least(what: str, least: dict, where: str = "", error=ValidationError) -> None:
    """Refuse the first of `least`'s {name: (value, bound)} whose value is not
    a finite number >= its bound, with `error` naming `what` and the field.
    The comparison is written so that it holds: NaN fails it."""
    for name, (value, bound) in least.items():
        if not bound <= value < math.inf:
            raise error(f"{what} {name} must be >= {bound}, got {value}{where}".lstrip())
