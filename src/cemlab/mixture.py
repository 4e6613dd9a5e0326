"""k-component diagonal Gaussian mixture over noisy features: initial
k-means++ fit, per-batch streaming weight/covariance updates, and
checkpoints.

The streaming updates blend batch statistics into the running mixture:

    weight:      pi_j <- (pi_j * (N - N_batch) + n_j) / N
    covariance:  S_j  <- (1 - c_j) * S_j + c_j * dS_j,   c_j = n_j / (pi_j * N)

with c_j clamped to [0, 1] and dS_j the diagonal covariance of the newly
assigned samples about the stored mean. Means are refreshed only by the
full refit, never inside the batch loop.

A mixture is a :class:`MixtureState` of plain arrays: the refit returns
one, the training step updates one, and checkpoints hold one. A
:class:`GaussianMixture` is only a way to write a mixture by hand,
component by component; :meth:`MixtureState.of` reads it into arrays.

The arithmetic lives in array kernels over the whole mixture
(:func:`blend_weights`, :func:`blend_coefficients`, and the variance
blend). :func:`~cemlab.bounds.cem_step` runs them in one go for training;
:func:`update_weights` and :func:`update_covariance` run them one update
at a time. Per-component sums repeat NumPy's own order of addition, so
both give the same bits as a ``np.mean`` per component. The kernels
compute in place on arrays they create and never write to their inputs.

The kernels, :func:`assign_nearest` and the refit (:func:`fit_init_many`)
also run on a stack of R same-shaped runs: a :class:`MixtureState` whose
arrays carry a leading run axis, with (R, N, d) batches. Component ``j`` of
run ``r`` is bin ``r * k + j`` of the per-component sums, which keeps each
run's row order, so every run gets the bits it would get alone.

Nearest-mean search (:func:`assign_nearest`, and the refit's Lloyd rounds)
always returns the explicit kernel's answer: the argmin of the rounded
``sum((x - m_j)**2)``, ties to the lowest index. A training batch runs that
kernel directly. The refit's larger searches rank the means by the Gram
form ``|m_j|^2 - 2 x.m_j`` from one stacked matrix product, and recompute
with the explicit kernel only the rows whose margin is within a proven
rounding bound (see :func:`_nearest`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateData, ParseError, ShapeMismatch
from .files import write_atomic
from .numerics import Covariance, _row_starts, check_diagonal, seeded_rng

WEIGHT_FLOOR = 1e-8

# Largest (rows, k, d) difference block _nearest builds, in bytes. Larger
# temporaries are served by fresh pages from the OS and fault in on every
# call, so larger searches take the Gram form instead.
_NEAREST_BLOCK_BYTES = 64 * 1024


@dataclass
class GaussianComponent:
    weight: float
    mean: np.ndarray
    cov: Covariance


@dataclass
class GaussianMixture:
    """A mixture written by hand, component by component;
    :meth:`MixtureState.of` reads it into arrays."""

    components: list[GaussianComponent]
    dim: int
    dataset_size: int


@dataclass
class BatchAssignment:
    indices: np.ndarray   # (N_batch,) cluster id per sample; (R, N_batch) stacked
    counts: np.ndarray    # (k,) samples per cluster; (R, k) stacked
    batch_size: int
    # The rows' _bins, computed from indices and counts if not given.
    bins: np.ndarray | None = None

    def __post_init__(self):
        if self.bins is None:
            self.bins = _bins(self.indices, self.counts.shape[-1])


@dataclass(frozen=True)
class MixtureState:
    """A diagonal mixture as plain arrays: the form the training step runs on.

    ``var`` holds the raw diagonal variances; ``ridge`` is added to them
    before any logarithm or division, as :class:`Covariance` does. A stack
    of runs puts a leading run axis on every array; ``dataset_size`` is
    shared.
    """

    weights: np.ndarray   # (k,)
    means: np.ndarray     # (k, d)
    var: np.ndarray       # (k, d)
    ridge: np.ndarray     # (k, 1)
    dataset_size: int

    def take(self, run: int) -> "MixtureState":
        """One run of a stacked state."""
        return replace(
            self, weights=self.weights[run], means=self.means[run],
            var=self.var[run], ridge=self.ridge[run],
        )

    @staticmethod
    def of(mix: "MixtureState | GaussianMixture") -> "MixtureState":
        """``mix`` itself if it is a state, else the arrays of a hand-written
        mixture; raises :class:`ShapeMismatch` if any component holds a full
        covariance."""
        if isinstance(mix, MixtureState):
            return mix
        comps = mix.components
        if not all(c.cov.is_diagonal for c in comps):
            raise ShapeMismatch("mixtures support diagonal covariances only")
        return MixtureState(
            weights=np.array([c.weight for c in comps]),
            means=np.stack([c.mean for c in comps]),
            var=np.stack([c.cov.entries for c in comps]),
            ridge=np.array([[c.cov.ridge] for c in comps]),
            dataset_size=mix.dataset_size,
        )


def _floor_and_renormalize(weights: np.ndarray) -> np.ndarray:
    """Floor and renormalize ``weights``, a fresh array, in place."""
    np.maximum(weights, WEIGHT_FLOOR, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def _few_distinct(x: np.ndarray, k: int) -> bool:
    """Whether any run of an (R, n, d) stack has fewer than ``k`` distinct
    rows.

    A column with ``k`` distinct values settles a run; only the others pay
    for ``np.unique`` over whole rows. Columns holding a NaN settle nothing,
    because ``np.unique`` may count equal NaNs once.
    """
    s = np.sort(x, axis=1)
    distinct = 1 + (s[:, 1:] != s[:, :-1]).sum(axis=1)
    settled = ((distinct >= k) & ~np.isnan(s[:, -1])).any(axis=1)
    return any(
        np.unique(x[r], axis=0).shape[0] < k for r in np.flatnonzero(~settled)
    )


def _kmeanspp_seeds(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: first center uniform, then D^2-weighted."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            # All remaining mass sits on already-chosen points.
            centers[j] = x[rng.integers(n)]
            continue
        centers[j] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[j]) ** 2, axis=1))
    return centers


def _nearest_block(x: np.ndarray, means: np.ndarray) -> np.ndarray:
    # Explicit difference form keeps exact ties symmetric; argmin breaks
    # ties toward the lowest index. Squared distances order the means as
    # distances do, without two distinct sums rounding to one square root.
    diff = x[..., :, None, :] - means[..., None, :, :]
    np.multiply(diff, diff, out=diff)
    return np.add.reduce(diff, axis=-1).argmin(axis=-1)


def _row_norms(x: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of ``x``, for :func:`_nearest`."""
    return np.sqrt(np.einsum("...i,...i->...", x, x))


# Rows whose (|x| + max_j |m_j|)^2 exceeds this may overflow a distance or
# a Gram entry; _nearest sends them to the explicit kernel.
_GRAM_LIMIT = 2.0**1020


def _nearest(
    x: np.ndarray, means: np.ndarray, norms: np.ndarray | None = None
) -> np.ndarray:
    """Index of each row's nearest mean: rows (n, d) against means (k, d),
    or a stack, (R, n, d) against (R, k, d). The answer is the explicit
    kernel's: the argmin of the rounded squared distances
    ``sum((x - m_j)**2)``, with exact ties to the lowest index.

    Inputs whose (rows, k, d) difference fits in ``_NEAREST_BLOCK_BYTES``
    (every training batch) run the explicit kernel directly. Larger ones
    (the refit's Lloyd rounds) take one stacked product for the Gram form
    ``g_j = |m_j|^2 - 2 x.m_j``, which is the squared distance less
    ``|x|^2`` and so has the same argmin, and run the explicit kernel only
    on rows the product cannot settle, within ``_NEAREST_BLOCK_BYTES`` of
    temporaries. ``norms``, if given, are :func:`_row_norms` of ``x``;
    a caller that searches the same rows repeatedly computes them once.

    **Which rows are settled.** With ``u = 2**-53``, ``eta = 2**-1074`` (the
    smallest subnormal) and ``gamma_n = n*u / (1 - n*u)``, take a row ``x``,
    ``r = |x| + max_j |m_j|``, and ``D_j``, ``g_j`` as computed. Every
    product may also underflow by ``eta / 2``; sums and differences that
    land below the normal range are exact.

    - ``D_j`` takes d differences, d squares and d - 1 additions in any
      order: ``|D_j - |x - m_j|^2| <= gamma_{d+2} r^2 + d eta``.
    - ``g_j`` takes ``|m_j|^2`` (d products), ``x.(-2 m_j)`` (``-2 m_j``
      is exact; d products or fused multiply-adds in any order, as BLAS
      may use) and one
      addition: ``|g_j - (|m_j|^2 - 2 x.m_j)| <= gamma_{d+1} r^2 + d eta``.

    So ``D_j - D_b >= g_j - g_b - 2S`` with
    ``S = (gamma_{d+2} + gamma_{d+1}) r^2 + 2d eta``, and a row whose
    smallest ``g_b`` is the only ``g_j <= g_b + 2s``, for a computed
    ``s >= S``, has ``D_j > D_b`` for every other ``j``: its Gram argmin
    is the explicit kernel's answer. The row is settled with

        s = (2d + 6) u r^2 + (2d + 4) eta.

    ``S <= (2d + 3)(1 + 2(d + 2)u) u r^2 + 2d eta``; the rounding of
    ``g_b + 2s`` costs at most ``u r^2``, so ``2d + 4`` units of ``u r^2``
    would do, and the two spare units of each term cover the rounding of
    the computed ``r`` and ``s``. (Where squares of tiny row entries
    underflow, ``r`` can come out low, but then ``u r^2`` is far below
    ``eta``.) Every other
    row is recomputed with the explicit kernel: near and exact ties,
    duplicate means, NaN (which settles no row), and rows with
    ``r^2 > _GRAM_LIMIT`` or not finite, where the bounds above could
    overflow. Summation order inside BLAS therefore decides only which
    rows are recomputed, never an answer.
    """
    if x.ndim == 2:
        return _nearest(
            x[None], means[None], None if norms is None else norms[None]
        )[0]
    n_runs, n, d = x.shape
    k = means.shape[1]
    if n_runs * n * k * d * 8 <= _NEAREST_BLOCK_BYTES:
        return _nearest_block(x, means)
    if norms is None:
        norms = _row_norms(x)
    msq = np.einsum("rkd,rkd->rk", means, means)
    g = np.matmul(-2.0 * means, x.transpose(0, 2, 1))   # (R, k, n)
    g += msq[:, :, None]
    r2 = norms + np.sqrt(msq.max(axis=1))[:, None]
    r2 *= r2
    # g_b + 2s, with s as above.
    thr = (2 * d + 6) * 2.0**-52 * r2 + (2 * d + 4) * 2.0**-1073 + g.min(axis=1)
    # The 0/1 mask overwrites g: one (R, k, n) temporary instead of two,
    # which at a sweep's six runs keeps the heap from returning the pages
    # (and faulting them in again) on every call.
    near = np.less_equal(g, thr[:, None, :], out=g)
    # One product counts each row's near components and sums their
    # indices: a settled row has one, and the sum is its nearest mean.
    count, best = np.matmul([np.ones(k), np.arange(k)], near).transpose(1, 0, 2)
    best = best.astype(np.intp)
    runs, rows = np.nonzero((count != 1) | ~(r2 <= _GRAM_LIMIT))
    # Each rechecked row holds two (k, d) temporaries: its gathered means
    # and its difference.
    step = max(1, _NEAREST_BLOCK_BYTES // (16 * k * d))
    for start in range(0, runs.size, step):
        rr, cc = runs[start:start + step], rows[start:start + step]
        best[rr, cc] = _nearest_block(x[rr, cc][:, None, :], means[rr])[:, 0]
    return best


def _bins(indices: np.ndarray, k: int) -> np.ndarray:
    """Each row's bin among the components of all runs: the (n,) indices
    themselves, or ``run * k + j`` for the (R, n) indices of a stack.
    Bin ``b`` is row ``b`` of the per-component arrays of all runs
    reshaped to (R * k, ...)."""
    if indices.ndim == 1:
        return indices
    return _row_starts((indices.shape[0], 1, k)) + indices


def _per_row(values: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Each row's entry of the per-component ``values``, (k, ...) or
    (R, k, ...) for a stack, gathered by the rows' :func:`_bins`."""
    return values.reshape((-1,) + values.shape[bins.ndim:]).take(bins, axis=0)


def _counts(bins: np.ndarray, k: int) -> np.ndarray:
    """Rows per component, (k,) or (R, k) for a stack, from the rows'
    :func:`_bins`."""
    if bins.ndim == 1:
        return np.bincount(bins, minlength=k)
    n_runs = bins.shape[0]
    return np.bincount(bins.ravel(), minlength=n_runs * k).reshape(n_runs, k)


def _component_sums(rows: np.ndarray, bins: np.ndarray, k: int) -> np.ndarray:
    """(k, d) per-component sums of the (n, d) ``rows`` with the bits of
    ``rows[indices == j].sum(axis=0)``, so ``sums[j] / n_j`` is that
    component's ``mean(axis=0)``; (R, k, d) for the (R, n, d) rows of a
    stack. ``bins`` are the rows' :func:`_bins`.

    NumPy sums the rows of a (n, d >= 2) array one after another, which
    ``bincount`` reproduces for all components (of all runs) at once; a
    single column it sums pairwise, so ``d == 1`` goes component by
    component.
    """
    lead, d = rows.shape[:-2], rows.shape[-1]
    n_bins = k * (lead[0] if lead else 1)
    if d == 1:
        flat_rows, flat_bins = rows.ravel(), bins.ravel()
        sums = np.array([flat_rows[flat_bins == b].sum() for b in range(n_bins)])
    else:
        flat = (bins[..., None] * d + np.arange(d)).ravel()
        sums = np.bincount(flat, weights=rows.ravel(), minlength=n_bins * d)
    return sums.reshape(lead + (k, d))


def _component_means(rows, bins, counts, fallback):
    """Per-component means of ``rows``, with ``bins`` their :func:`_bins`;
    ``fallback`` rows where a component has no members."""
    means = _component_sums(rows, bins, counts.shape[-1])
    means /= np.maximum(counts, 1)[..., None]
    np.copyto(means, fallback, where=(counts == 0)[..., None])
    return means


def fit_init(
    features: np.ndarray,
    k: int,
    seed: int,
    iters: int = 10,
    *,
    init_means: np.ndarray | None = None,
    ridge: float = 1e-6,
) -> MixtureState:
    """Fit a k-component diagonal mixture by k-means++ plus hard Lloyd rounds.

    Weights are cluster frequencies (floored and renormalized), covariances
    are within-cluster diagonal covariances about the final means. Pass
    ``init_means`` to warm-start the Lloyd rounds from a previous fit
    instead of reseeding.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeMismatch(f"features must be 2-D, got shape {x.shape}")
    if init_means is not None:
        init_means = np.asarray(init_means, dtype=np.float64)
        if init_means.shape != (k, x.shape[1]):
            raise ShapeMismatch(
                f"init_means shape {init_means.shape} != ({k}, {x.shape[1]})"
            )
        init_means = init_means[None]
    state = fit_init_many(
        x[None], k, [seed], [iters], init_means=init_means, ridges=[ridge]
    )
    return state.take(0)


def fit_init_many(
    features: np.ndarray,
    k: int,
    seeds,
    iters,
    *,
    init_means: np.ndarray | None = None,
    ridges,
) -> MixtureState:
    """:func:`fit_init` for a stack of runs, as a stacked
    :class:`MixtureState`: ``features`` is (R, n, d), and ``seeds``,
    ``iters`` and ``ridges`` hold one value per run (``init_means``, if
    given, is (R, k, d), and ``seeds`` is then unused).

    The Lloyd rounds run on all runs at once; a run leaves the stack when
    its assignment stops changing or its rounds are spent, so each run sees
    exactly the rounds it would see alone. Raises
    :class:`~cemlab.errors.DegenerateData` if any run has fewer than ``k``
    distinct rows.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeMismatch(f"stacked features must be 3-D, got shape {x.shape}")
    n_runs, n, d = x.shape
    iters = np.broadcast_to(np.asarray(iters, dtype=np.int64), (n_runs,))
    ridges = np.broadcast_to(np.asarray(ridges, dtype=np.float64), (n_runs,))
    if n < k:
        raise DegenerateData(f"need at least k={k} samples, got {n}")
    if _few_distinct(x, k):
        raise DegenerateData(f"fewer than k={k} distinct feature vectors")

    if init_means is not None:
        means = np.array(init_means, dtype=np.float64)
        if means.shape != (n_runs, k, d):
            raise ShapeMismatch(
                f"init_means shape {means.shape} != ({n_runs}, {k}, {d})"
            )
    else:
        means = np.stack([
            _kmeanspp_seeds(x[r], k, seeded_rng(seed, 0x6D))
            for r, seed in enumerate(seeds)
        ])

    # The rows do not change across rounds; their norms are computed once.
    norms = _row_norms(x)
    assign = _nearest(x, means, norms)
    live = np.arange(n_runs)
    for rnd in range(int(iters.max(initial=0))):
        live = live[iters[live] > rnd]
        if live.size == 0:
            break
        # While every run is live, views stand in for gathered copies.
        sel = slice(None) if live.size == n_runs else live
        rows, old = x[sel], assign[sel]
        # One set of bins serves the counts and the sums.
        bins = _bins(old, k)
        means[sel] = _component_means(rows, bins, _counts(bins, k), means[sel])
        new_assign = _nearest(rows, means[sel], norms[sel])
        moved = (new_assign != old).any(axis=1)
        assign[sel] = new_assign
        live = live[moved]

    bins = _bins(assign, k)
    counts = _counts(bins, k)
    weights = _floor_and_renormalize(counts.astype(np.float64) / n)
    dev = x - _per_row(means, bins)
    var = _component_means(dev * dev, bins, counts, 0.0)
    ridge = np.repeat(ridges[:, None, None], k, axis=1)
    check_diagonal(var, ridge)
    return MixtureState(
        weights=weights, means=means, var=var, ridge=ridge, dataset_size=n,
    )


def assign_nearest(batch: np.ndarray, means: np.ndarray) -> BatchAssignment:
    """Map each sample to the component with the nearest of the (k, d)
    ``means`` (Euclidean, ties to the lowest index); for a stack of runs,
    ``batch`` is (R, N, d) and ``means`` (R, k, d). The assignment carries
    the rows' :func:`_bins`, which the batch's update and penalty reuse."""
    z = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if z.shape[-1] != means.shape[-1]:
        raise ShapeMismatch(
            f"batch dim {z.shape[-1]} != mixture dim {means.shape[-1]}"
        )
    idx = _nearest(z, means)
    k = means.shape[-2]
    bins = _bins(idx, k)
    return BatchAssignment(
        indices=idx, counts=_counts(bins, k), batch_size=z.shape[-2], bins=bins
    )


# -- array kernels --------------------------------------------------------

def blend_weights(
    weights: np.ndarray, counts: np.ndarray, batch_size: int, dataset_size: int
) -> np.ndarray:
    """Blend batch cluster frequencies into the weights, floored and
    renormalized."""
    if batch_size > dataset_size:
        raise ShapeMismatch(
            f"batch size {batch_size} exceeds dataset size {dataset_size}"
        )
    raw = weights * (dataset_size - batch_size)
    raw += counts
    raw /= dataset_size
    return _floor_and_renormalize(raw)


def blend_coefficients(
    weights: np.ndarray, counts: np.ndarray, dataset_size: int
) -> np.ndarray:
    """The covariance blend coefficients n_j / (pi_j * N), clamped to [0, 1].
    Floored weights are positive, so a component with no samples gets 0.

    The clamp keeps the blend convex when a rare component receives a
    disproportionately large batch share.
    """
    coef = counts / (weights * dataset_size)
    return np.minimum(coef, 1.0, out=coef)


def _blend_variances(
    var: np.ndarray,
    dev: np.ndarray,
    bins: np.ndarray,
    counts: np.ndarray,
    coef: np.ndarray,
) -> np.ndarray:
    """(1 - c_j) * var_j + c_j * mean of the squared deviations ``dev``
    (batch rows minus their component's mean) over component j's rows,
    given by the rows' :func:`_bins`. Components with no samples keep their
    variances."""
    blended = _component_sums(dev * dev, bins, counts.shape[-1])
    blended /= np.maximum(counts, 1)[..., None]
    c = coef[..., None]
    blended *= c
    blended += (1.0 - c) * var
    np.copyto(blended, var, where=(counts == 0)[..., None])
    return blended


def _blend(state: MixtureState, assign: BatchAssignment, batch: np.ndarray):
    """One batch of streaming updates, unchecked: weights, then variances
    with coefficients from the new weights. Returns the new state (sharing
    ``means`` and ``ridge``), the coefficients and each row's deviation
    from its component mean, all new arrays; nothing is written to."""
    n_total = state.dataset_size
    bins = assign.bins
    weights = blend_weights(state.weights, assign.counts, assign.batch_size, n_total)
    coef = blend_coefficients(weights, assign.counts, n_total)
    dev = batch - _per_row(state.means, bins)
    var = _blend_variances(state.var, dev, bins, assign.counts, coef)
    blended = MixtureState(
        weights=weights, means=state.means, var=var, ridge=state.ridge,
        dataset_size=n_total,
    )
    return blended, coef, dev


# -- one update at a time ------------------------------------------------

def update_weights(state: MixtureState, assign: BatchAssignment) -> MixtureState:
    """Blend batch cluster frequencies into the mixture weights."""
    return replace(state, weights=blend_weights(
        state.weights, assign.counts, assign.batch_size, state.dataset_size
    ))


def update_covariance(
    state: MixtureState, assign: BatchAssignment, batch: np.ndarray
) -> MixtureState:
    """Blend the batch's within-cluster diagonal covariances into the mixture.

    Must run after :func:`update_weights` for the same batch; the blend
    coefficient uses the post-update weights. Components that received no
    samples keep their variances.
    """
    z = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if z.shape[-2] != assign.batch_size:
        raise ShapeMismatch("batch does not match assignment")
    coef = blend_coefficients(state.weights, assign.counts, state.dataset_size)
    dev = z - _per_row(state.means, assign.bins)
    var = _blend_variances(state.var, dev, assign.bins, assign.counts, coef)
    check_diagonal(var, state.ridge)
    return replace(state, var=var)


def save_mixture(state: MixtureState, path) -> None:
    """Write the mixture checkpoint (JSON)."""
    doc = {
        "dim": state.means.shape[1],
        "dataset_size": state.dataset_size,
        "components": [
            {
                "weight": float(w),
                "mean": [float(v) for v in mean],
                "cov_diag": [float(v) for v in var],
            }
            for w, mean, var in zip(state.weights, state.means, state.var)
        ],
    }
    write_atomic(path, json.dumps(doc, indent=1) + "\n")


# A loaded mixture's ridge, which the checkpoint does not carry.
_LOAD_RIDGE = 1e-12
_NUMBER = (int, float)


def load_mixture(path) -> MixtureState:
    """Read a mixture checkpoint written by :func:`save_mixture`.

    Reloaded variances get a tiny ridge, so bound values stay faithful to
    the stored entries, and are checked by
    :func:`~cemlab.numerics.check_diagonal`. What training cannot write
    raises :class:`ParseError`: a ``dim`` or ``dataset_size`` not a JSON
    integer, a weight, mean or variance entry not a JSON number, no
    components, a mean or variances without exactly ``dim`` entries, a
    weight not finite and positive, weights whose sum is off 1 by more
    than ``k * 2**-52`` (renormalized weights stay within half that), a
    mean not finite, or a ``dataset_size`` below ``k``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        dim, size, comps = doc["dim"], doc["dataset_size"], doc["components"]
        # A JSON true is a bool, which type() tells from an int.
        if type(dim) is not int or type(size) is not int:
            raise ValueError("dim and dataset_size must be JSON integers")
        if not all(type(c["weight"]) in _NUMBER and all(
            type(v) in _NUMBER for key in ("mean", "cov_diag") for v in c[key]
        ) for c in comps):
            raise ValueError("weights, means and variances must be JSON numbers")
        state = MixtureState(
            weights=np.array([c["weight"] for c in comps], dtype=np.float64),
            means=np.array([c["mean"] for c in comps], dtype=np.float64),
            var=np.array([c["cov_diag"] for c in comps], dtype=np.float64),
            ridge=np.full((len(comps), 1), _LOAD_RIDGE),
            dataset_size=size,
        )
        k = len(comps)
        if k == 0 or not state.means.shape == state.var.shape == (k, dim):
            raise ValueError(f"need components whose means and variances have {dim} entries")
        # A NaN weight fails the comparison, an infinite one the sum's.
        if not (np.all(state.weights > 0) and abs(state.weights.sum() - 1.0) <= k * 2.0**-52):
            raise ValueError("weights must be positive and sum to 1")
        if not np.isfinite(state.means).all():
            raise ValueError("means must be finite")
        if state.dataset_size < k:
            raise ValueError(f"dataset_size {state.dataset_size} below k={k}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"invalid mixture checkpoint {path}: {exc}") from exc
    check_diagonal(state.var, state.ridge)
    return state
