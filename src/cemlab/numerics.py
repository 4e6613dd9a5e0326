"""Positive-definite covariance handling, seed derivation, and the
Monte-Carlo entropy oracle.

All entropies are in nats. Every routine takes an explicit seed where
randomness is involved; nothing touches numpy's global generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .errors import NonPositiveDefinite, ShapeMismatch

LOG_2PI = float(np.log(2.0 * np.pi))

DEFAULT_RIDGE = 1e-6


def seeded_rng(seed: int, *tags: int) -> np.random.Generator:
    """The generator for one named random stream: ``seed`` (masked to 63
    bits) followed by integer ``tags`` forms the entropy of its
    :class:`~numpy.random.SeedSequence`."""
    return np.random.default_rng(np.random.SeedSequence([seed & (2**63 - 1), *tags]))


def derived_seed(seed: int, *tags: int) -> int:
    """A child seed in [0, 2**62), drawn from :func:`seeded_rng`."""
    return int(seeded_rng(seed, *tags).integers(2**62))


def check_diagonal(entries: np.ndarray, ridge) -> None:
    """Raise :class:`NonPositiveDefinite` unless every diagonal entry is
    finite, nonnegative, and positive once ridged.

    ``entries`` may hold one diagonal or a (k, d) stack of them; ``ridge``
    broadcasts against it. These are the checks behind
    :meth:`Covariance.diagonal`, shared with the array-form mixture step.
    """
    if not np.isfinite(entries).all():
        raise NonPositiveDefinite("diagonal entries must be finite")
    if (entries < 0).any():
        raise NonPositiveDefinite("diagonal entries must be nonnegative")
    if (entries + ridge <= 0).any():
        raise NonPositiveDefinite("zero diagonal entries require a positive ridge")


@dataclass
class Covariance:
    """A symmetric PSD covariance with a diagonal or full representation.

    ``ridge`` is added to the diagonal before any factorization or
    log-determinant, so a constructed instance always has a finite logdet.
    ``trace`` reports the raw diagonal sum, ridge excluded.
    """

    dim: int
    entries: np.ndarray | None = None      # (d,) for the diagonal repr
    matrix: np.ndarray | None = None       # (d, d) for the full repr
    ridge: float = DEFAULT_RIDGE
    _chol: np.ndarray | None = field(default=None, repr=False)

    @staticmethod
    def diagonal(entries, ridge: float = DEFAULT_RIDGE) -> "Covariance":
        e = np.asarray(entries, dtype=np.float64).reshape(-1)
        check_diagonal(e, ridge)
        return Covariance(dim=e.size, entries=e, ridge=ridge)

    @staticmethod
    def full(matrix, ridge: float = DEFAULT_RIDGE) -> "Covariance":
        m = np.asarray(matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ShapeMismatch(f"full covariance must be square, got {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NonPositiveDefinite("covariance entries must be finite")
        if not np.allclose(m, m.T, atol=1e-10, rtol=1e-10):
            raise NonPositiveDefinite("full covariance must be symmetric")
        d = m.shape[0]
        ridged = 0.5 * (m + m.T) + ridge * np.eye(d)
        try:
            chol = np.linalg.cholesky(ridged)
        except np.linalg.LinAlgError as exc:
            raise NonPositiveDefinite(
                f"Cholesky failed even with ridge {ridge:g}"
            ) from exc
        return Covariance(dim=d, matrix=m, ridge=ridge, _chol=chol)

    @property
    def is_diagonal(self) -> bool:
        return self.entries is not None

    def chol(self) -> np.ndarray:
        """Lower Cholesky factor of the ridged matrix (full repr only)."""
        if self._chol is None:
            raise ShapeMismatch("not a full covariance")
        return self._chol


def logdet(c: Covariance) -> float:
    """Log-determinant of the ridged covariance, in nats."""
    if c.is_diagonal:
        return float(np.sum(np.log(c.entries + c.ridge)))
    return float(2.0 * np.sum(np.log(np.diag(c.chol()))))


def trace(c: Covariance) -> float:
    """Sum of the raw diagonal entries (ridge excluded)."""
    if c.is_diagonal:
        return float(np.sum(c.entries))
    return float(np.trace(c.matrix))


@dataclass
class McEstimate:
    """A Monte-Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    n_samples: int
    seed: int


def mc_entropy(mix, noise, n_samples: int, seed: int) -> McEstimate:
    """Monte-Carlo estimate of the differential entropy of the noisy
    feature distribution.

    Samples z from the mixture with each component covariance widened by
    the noise variance, then averages -log p(z). The estimate is exact in
    expectation and carries a 1/sqrt(n) standard error; results are
    deterministic for a fixed seed. Intended sample sizes are >= 1e4.
    """
    rng = seeded_rng(seed)
    weights = np.array([comp.weight for comp in mix.components])
    means = np.stack([comp.mean for comp in mix.components])
    noise_var = noise.std**2
    k, d = means.shape

    # Raw (unridged) per-component variances: the oracle stays pure math.
    variances = np.stack(
        [np.asarray(comp.cov.entries, dtype=np.float64) for comp in mix.components]
    ) + noise_var

    choices = rng.choice(k, size=n_samples, p=weights / weights.sum())
    draws = means[choices] + rng.standard_normal((n_samples, d)) * np.sqrt(
        variances[choices]
    )

    # log p(z) under the mixture, via logsumexp over components.
    log_terms = np.empty((n_samples, k))
    for i in range(k):
        dev = draws - means[i]
        log_terms[:, i] = np.log(weights[i]) - 0.5 * (
            d * LOG_2PI
            + np.sum(np.log(variances[i]))
            + np.sum(dev * dev / variances[i], axis=1)
        )
    neg_logp = -logsumexp(log_terms, axis=1)
    value = float(np.mean(neg_logp))
    std_error = float(np.std(neg_logp, ddof=1) / np.sqrt(n_samples))
    return McEstimate(value=value, std_error=std_error, n_samples=n_samples, seed=seed)
