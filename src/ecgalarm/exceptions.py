"""Exception types raised across the package."""

import numpy as np


class EcgAlarmError(Exception):
    """Base class for all package errors."""


class ParseError(EcgAlarmError):
    """Malformed WFDB header text."""

    def __init__(self, line_no, reason):
        super().__init__(f"header line {line_no}: {reason}")


class UnsupportedFormat(EcgAlarmError):
    """Signal storage format other than 16-bit two's complement."""


class TruncatedSignal(EcgAlarmError):
    """Signal file shorter than the header promises."""


class LabelError(EcgAlarmError, ValueError):
    """A malformed labels file, or a label other than true/false."""


class MissingLabel(EcgAlarmError):
    """Record has no entry in the labels table."""


class EmptySignal(EcgAlarmError):
    """Operation requires a non-empty sample sequence."""


class NonFiniteSignal(EcgAlarmError):
    """A signal holds a NaN or infinite sample, or a feature matrix a NaN or
    infinite entry."""


def check_finite(X):
    """Raise NonFiniteSignal naming the row and column of the 2-D X's first
    NaN or infinite entry: a split search or a Lloyd pass would carry it on
    silently."""
    if not np.isfinite(X).all():
        row, col = np.argwhere(~np.isfinite(X))[0]
        raise NonFiniteSignal(f"row {row}, column {col} is {X[row, col]}")


class EmptyInput(EcgAlarmError):
    """Operation requires a non-empty input set."""


class DimensionError(EcgAlarmError):
    """Vector or matrix dimensions do not match."""


class SingleClassError(EcgAlarmError):
    """Training labels contain only one class."""


class SignalTooShort(EcgAlarmError):
    """Signal too short for the requested decomposition depth."""


class EmptyBand(EcgAlarmError):
    """Statistics requested for an empty coefficient band."""


class NoWeakLearner(EcgAlarmError):
    """The first boosting round's tree is no better than chance (weighted
    error >= 0.5), so boosting has no tree to keep. An ensemble without trees
    would score 0 everywhere and call every alarm true."""


class UndefinedAuc(EcgAlarmError):
    """ROC analysis needs both classes present."""


class ConfigError(EcgAlarmError):
    """Invalid experiment or pipeline configuration."""


class MissingInput(EcgAlarmError):
    """A required upstream artifact (manifest, feature CSV) is absent, stale,
    or holds a non-finite feature."""


class EmptyDataset(EcgAlarmError):
    """No usable records: none ingested, or none featurized."""
