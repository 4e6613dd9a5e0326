"""Exception types shared across the package."""


class CemError(Exception):
    """Base class for all cemlab errors.

    A check over a stack of runs (arrays with a leading run axis) raises the
    error of its first failing run; ``runs`` then maps every failing run's
    index to the error that run raises on its own.
    """

    runs: "dict[int, CemError] | None" = None


def raise_for_runs(errors: "dict[int, CemError]") -> None:
    """Raise the lowest-indexed run's error from ``errors`` (run index ->
    error), carrying all of them in its ``runs``; do nothing if empty."""
    if errors:
        first = errors[min(errors)]
        first.runs = errors
        raise first


class NonPositiveDefinite(CemError):
    """Covariance factorization failed even after ridge regularization."""


class DegenerateData(CemError):
    """Input data cannot support the requested fit (e.g. fewer distinct
    points than mixture components)."""


class ShapeMismatch(CemError):
    """Array dimensions do not line up with the declared contract."""


class StaleTape(CemError):
    """A backward pass was attempted on a tape that was already consumed
    or does not belong to the module."""


class StaleState(CemError):
    """A gradient was requested against mixture state that was not updated
    for the batch in question."""


class NonFinite(CemError):
    """A parameter or loss became NaN/Inf."""


class LabelOutOfRange(CemError):
    """A class label falls outside [0, n_classes)."""


class MissingArtifact(CemError):
    """A run manifest references an artifact that does not exist."""


class ParseError(CemError):
    """A checkpoint, config, or CSV file could not be parsed."""
