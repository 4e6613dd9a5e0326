"""Closed-form information quantities: the mixture-entropy upper bound,
the mutual-information bound used as the training loss, and the
reconstruction-MSE floor. The jointly-Gaussian reference the floor is
checked against, the exact posterior and its minimal MSE, lives with the
tests (``tests/helpers.py``).

The MI bound for a noisy mixture z with components (pi_i, mu_i, S_i) and
isotropic corruption of variance v is

    sum_i pi_i * ( -log pi_i + 0.5 * (logdet(S_i + v*I) - logdet(v*I)) ).

Log-determinant ratios are always computed as differences of logs, never
as determinant quotients.

Mixtures are diagonal. The bound and its gradient are array kernels over
all components at once: :func:`mi_upper_bound` and
:func:`mixture_entropy_upper` run them on a
:class:`~cemlab.mixture.MixtureState` (or what
:meth:`~cemlab.mixture.MixtureState.of` reads), and :func:`cem_step`
fuses them with the mixture's per-batch weight and variance blend into the
training loop's single step, for one run or a stack of them. At the
training shapes every array holds a few dozen numbers, so the step's cost
is the number of NumPy calls: it gathers per-component values by each
row's flat bin, computes in place on arrays of its own, and checks the
blended and widened variances in one pass of three reductions, with the
same bits and errors as the public chain.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import NonFinite, NonPositiveDefinite
from .mixture import (
    BatchAssignment,
    MixtureState,
    _blend,
    _per_row,
    blend_coefficients,
    update_covariance,
)
from .numerics import LOG_2PI, check_diagonal, check_width

LOG_2PIE = LOG_2PI + 1.0
# A noise std below this has a finite variance std**2.
_STD_LIMIT = float(np.sqrt(np.finfo(np.float64).max))


@dataclass
class NoiseModel:
    """Isotropic Gaussian corruption z = zhat + eps, eps ~ N(0, std^2 * I)."""

    std: float
    dim: int

    def __post_init__(self):
        # Written so that NaN fails too.
        if not 0 <= self.std < _STD_LIMIT:
            raise ValueError(
                "noise std must be finite and nonnegative, with a finite square"
            )

    def logdet(self) -> float:
        """Log-determinant of the corruption covariance std^2 * I, which is
        positive definite only for std > 0."""
        if self.std <= 0:
            raise NonPositiveDefinite("noise covariance is PD only for std > 0")
        entries = np.full(self.dim, self.std**2)
        check_diagonal(entries, 0.0)
        return float(np.sum(np.log(entries)))


@dataclass
class BoundsReport:
    mi_bound: float
    rel_cond_entropy: float
    mse_floor: float
    h_x_offset: float
    cem_loss: float

    def to_dict(self) -> dict:
        return asdict(self)


def _widened_ridged(var: np.ndarray, ridge, noise_var) -> np.ndarray:
    """Ridged diagonals of the components widened by the noise variance,
    checked as :meth:`Covariance.diagonal` checks them."""
    widened = var + noise_var
    check_diagonal(widened, ridge)
    return widened + ridge


def _penalty(weights: np.ndarray, denom: np.ndarray, ld_ref):
    """sum_i pi_i * (-log pi_i + 0.5 * (logdet_i - ld_ref)) from the weights
    and the ridged widened diagonals ``denom``. With the noise
    log-determinant as ``ld_ref`` this is the MI bound. Components are added
    in order, as a running sum from 0.0. For a stack of runs ``ld_ref`` is
    (R, 1) and the result an (R,) array."""
    # Each term as pi_i * (0.5 * (logdet_i - ld_ref) - log pi_i): IEEE
    # a - b is a + (-b), and addition and multiplication commute, so these
    # are the formula's bits.
    terms = np.add.reduce(np.log(denom), axis=-1)
    terms -= ld_ref
    terms *= 0.5
    terms -= np.log(weights)
    terms *= weights
    # np.cumsum's accumulation adds the terms in order from the first one;
    # adding 0.0 then gives a running sum's start from 0.0, which only
    # turns a total of -0.0 into +0.0.
    total = np.add.accumulate(terms, axis=-1)[..., -1] + 0.0
    return total if total.ndim else float(total)


def _penalty_grad(
    weights: np.ndarray,
    coef: np.ndarray,
    dev: np.ndarray,
    counts: np.ndarray,
    denom: np.ndarray,
    bins: np.ndarray,
) -> np.ndarray:
    """Per-row gradient (pi_j * c_j) * dev / (n_j * denom_j) of the bound,
    for rows assigned to component j; ``bins`` are the rows'
    :func:`~cemlab.mixture._bins`."""
    grad = _per_row(weights * coef, bins)[..., None] * dev
    grad /= _per_row(counts[..., None] * denom, bins)
    return grad


def _mixture_bound(mix, noise: NoiseModel, ld_ref: float) -> float:
    state = MixtureState.of(mix)
    check_width(state.var.shape[1], noise.dim)
    denom = _widened_ridged(state.var, state.ridge, noise.std**2)
    return _penalty(state.weights, denom, ld_ref)


def mi_upper_bound(mix: MixtureState, noise: NoiseModel) -> float:
    """Upper bound on the information the noisy feature carries about the
    clean feature; equals :func:`mixture_entropy_upper` minus the noise
    entropy. Nonnegative for PSD component covariances."""
    return _mixture_bound(mix, noise, noise.logdet())


def mixture_entropy_upper(mix: MixtureState, noise: NoiseModel) -> float:
    """Closed-form upper bound on the entropy of the noisy mixture:
    sum_i pi_i * (-log pi_i + entropy of the widened component).

    A widened component's entropy 0.5 * (d * log(2*pi*e) + logdet) is the
    MI bound's term with -d * log(2*pi*e) in place of the noise
    log-determinant."""
    return _mixture_bound(mix, noise, -noise.dim * LOG_2PIE)


def cond_entropy_lower(h_x: float, mi: float) -> float:
    """Lower bound on the input's conditional entropy given the feature."""
    return h_x - mi


def mse_floor(h_cond: float, d: int) -> float:
    """Reconstruction-MSE floor per input dimension implied by the
    conditional entropy: exp(2 * h_cond / d) / (2*pi*e). Raises
    :class:`NonFinite`, without a NumPy warning, where that is not finite,
    so that no report carries it."""
    if d < 1:
        raise ValueError("d must be >= 1")
    with np.errstate(over="ignore"):
        floor = float(np.exp(2.0 * h_cond / d - LOG_2PIE))
    if not np.isfinite(floor):
        raise NonFinite(
            f"the MSE floor at conditional entropy {h_cond!r} over {d} "
            f"dimensions is {floor!r}"
        )
    return floor


def cem_loss(mix: MixtureState, noise: NoiseModel) -> float:
    """The conditional-entropy training penalty; by construction identical
    to :func:`mi_upper_bound`, kept as a named alias so the trainer's loss
    ledger refers to the penalty by its role."""
    return mi_upper_bound(mix, noise)


def cem_loss_grad(
    batch: np.ndarray,
    assign: BatchAssignment,
    mid: MixtureState,
    noise: NoiseModel,
) -> np.ndarray:
    """Gradient of ``cem_loss(update_covariance(mid, assign, z), noise)``
    with respect to each feature vector ``z`` of the batch, at ``batch``.
    ``mid`` is the mixture :func:`~cemlab.mixture.update_weights` returns
    for this batch, before its covariance update, which runs here.

    Assignments, weights, and means are held constant (straight-through);
    the chain runs batch covariance -> blended covariance -> log-determinant
    term.
    """
    z = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    state = update_covariance(mid, assign, z)
    coef = blend_coefficients(state.weights, assign.counts, state.dataset_size)
    denom = _widened_ridged(state.var, state.ridge, noise.std**2)
    dev = z - _per_row(state.means, assign.bins)
    return _penalty_grad(state.weights, coef, dev, assign.counts, denom, assign.bins)


def cem_step(
    state: MixtureState,
    assign: BatchAssignment,
    batch: np.ndarray,
    noise_var,
    noise_logdet,
) -> tuple[MixtureState, float, np.ndarray]:
    """One training batch on the array-form mixture: the weight and
    covariance updates, the penalty on the updated mixture, and the
    penalty's gradient with respect to each row of ``batch``.
    ``noise_var`` and ``noise_logdet`` are the noise model's ``std**2`` and
    ``logdet()``.

    Gives the same bits as :func:`~cemlab.mixture.update_weights`, then
    :func:`~cemlab.mixture.update_covariance` and :func:`cem_loss`, and
    :func:`cem_loss_grad` on the weight-updated mixture. Raises
    :class:`~cemlab.errors.NonPositiveDefinite` where those would, with the
    same message: first for the blended variances, then for the widened
    ones. The returned state's weights and variances, and the gradient,
    are new arrays; neither ``state`` nor ``batch`` is written to.

    On a stack of runs, ``noise_var`` is (R, 1, 1), ``noise_logdet`` (R, 1)
    and the penalty an (R,) array, each run with the bits it gets alone.
    """
    blended, coef, dev = _blend(state, assign, batch)
    var, ridge = blended.var, blended.ridge
    denom = var + noise_var
    denom += ridge
    # The blended variances must pass check_diagonal(var, ridge) and the
    # widened ones check_diagonal(var + noise_var, ridge). With
    # noise_var = std**2 >= 0, three reductions imply both (NaN fails every
    # comparison, and inf + -inf is NaN): var >= 0; denom < inf, so
    # var + noise_var is finite, and so is var <= var + noise_var; and
    # var + ridge > 0, so denom >= var + ridge > 0, as rounding is
    # monotone. On failure the two checks run in their old order, for
    # their exception and message.
    if not (var.min() >= 0 and denom.max() < np.inf and (var + ridge).min() > 0):
        check_diagonal(var, ridge)
        check_diagonal(var + noise_var, ridge)
    penalty = _penalty(blended.weights, denom, noise_logdet)
    grad = _penalty_grad(blended.weights, coef, dev, assign.counts, denom, assign.bins)
    return blended, penalty, grad


def bounds_report(
    mix: MixtureState,
    noise: NoiseModel,
    h_x_offset: float,
    input_dim: int,
) -> BoundsReport:
    """Assemble the standard report: MI bound, relative conditional entropy,
    and the MSE floor at the stated entropy offset."""
    mi = mi_upper_bound(mix, noise)
    return BoundsReport(
        mi_bound=mi,
        rel_cond_entropy=-mi,
        mse_floor=mse_floor(cond_entropy_lower(h_x_offset, mi), input_dim),
        h_x_offset=h_x_offset,
        cem_loss=mi,
    )
