"""Exception types shared across the package."""


class CemError(Exception):
    """Base class for all cemlab errors."""


class NonPositiveDefinite(CemError):
    """A covariance is not positive definite: a diagonal entry is not finite,
    is negative, or is zero with no ridge to lift it."""


class DegenerateData(CemError):
    """Input data cannot support the requested fit (e.g. fewer distinct
    points than mixture components)."""


class ShapeMismatch(CemError):
    """Array dimensions do not line up with the declared contract."""


class StaleTape(CemError):
    """A backward pass was attempted on a tape that was already consumed
    or does not belong to the module."""


class NonFinite(CemError):
    """A parameter or loss became NaN/Inf."""


class LabelOutOfRange(CemError):
    """A class label falls outside [0, n_classes)."""


class MissingArtifact(CemError):
    """A run manifest references an artifact that does not exist."""


class ParseError(CemError):
    """A checkpoint, config, or CSV file could not be parsed."""
