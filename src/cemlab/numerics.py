"""The diagonal covariance of a hand-written mixture component and its
checks, seed derivation, a row-wise log-sum-exp, and the Monte-Carlo
entropy oracle.

The oracle samples a diagonal mixture: a
:class:`~cemlab.mixture.MixtureState`, or what
:meth:`~cemlab.mixture.MixtureState.of` reads.

All entropies are in nats. Every routine takes an explicit seed where
randomness is involved; nothing touches numpy's global generator.
"""

from __future__ import annotations

import contextvars
import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveDefinite, ShapeMismatch

LOG_2PI = float(np.log(2.0 * np.pi))

DEFAULT_RIDGE = 1e-6

# Rows per block of the Monte-Carlo oracle. Its working memory is two sets
# of (block, d) and (k, block) buffers, one per pipeline stage, whatever the
# sample count. On 2 vCPUs, 10^6 samples ran about 17% slower at 2**12, and
# no faster at 2**14 or 2**15, whose peak RSS was 0.1 and 0.6 MB higher.
_MC_BLOCK = 2**13


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

    ``entries`` may hold one diagonal, a (k, d) stack of them, or an
    (R, k, d) stack of runs; ``ridge`` broadcasts against it. These are the
    checks behind :meth:`Covariance.diagonal`, shared with the array-form
    mixture step.
    """
    # Accepts only what the three checks accept, in three reductions: a NaN
    # fails the first comparison and an infinite entry the last.
    if entries.size == 0:
        return
    ridged = entries + ridge
    if ridged.min() > 0 and entries.min() >= 0 and ridged.max() < np.inf:
        return
    if not np.isfinite(entries).all():
        raise NonPositiveDefinite("diagonal entries must be finite")
    if (entries < 0).any():
        raise NonPositiveDefinite("diagonal entries must be nonnegative")
    if (ridged <= 0).any():
        raise NonPositiveDefinite("zero diagonal entries require a positive ridge")


def check_width(width: int, noise_dim: int) -> None:
    """Raise :class:`ShapeMismatch` unless a mixture's width is the noise's
    dimension."""
    if width != noise_dim:
        raise ShapeMismatch(f"a mixture of width {width} beside noise of dim {noise_dim}")


@dataclass
class Covariance:
    """A diagonal covariance: its (d,) ``entries`` and the ``ridge`` added
    to them before any logarithm or division, so a constructed instance is
    positive definite. A hand-written mixture component holds one."""

    dim: int
    entries: np.ndarray
    ridge: float = DEFAULT_RIDGE

    @staticmethod
    def diagonal(entries, ridge: float = DEFAULT_RIDGE) -> "Covariance":
        e = np.asarray(entries, dtype=np.float64).reshape(-1)
        check_diagonal(e, ridge)
        return Covariance(dim=e.size, entries=e, ridge=ridge)


@functools.lru_cache(maxsize=16)
def _row_starts(shape: tuple[int, ...]) -> np.ndarray:
    """The flat index of each row's first entry in a C-ordered array of
    ``shape``, as an array of ``shape[:-1]``, built once per shape and
    read-only: the offsets of a softmax's picks or of a stack's bins."""
    starts = np.arange(0, int(np.prod(shape)), shape[-1]).reshape(shape[:-1])
    starts.flags.writeable = False
    return starts


def _row_sums(t: np.ndarray) -> np.ndarray:
    """Sums over the last axis of ``t``, each row added in the order
    NumPy's pairwise sum adds a contiguous row, whatever the memory layout:
    below 8 entries one by one, up to 128 in eight lanes whose totals are
    paired and the rest then added one by one, and above 128 as two parts
    split at a multiple of 8. (NumPy also starts from +0.0, which only
    turns a sum of -0.0 into +0.0; the terms summed here have no -0.0.)
    The work runs along the rows, so a layout whose rows are the fast axis
    sums fastest.
    """
    n = t.shape[-1]
    if n < 8:
        return np.add.reduce(t, axis=-1)
    if n > 128:
        half = n // 2 - (n // 2) % 8
        out = _row_sums(t[..., :half])
        out += _row_sums(t[..., half:])
        return out
    # Lane j adds entries j, j + 8, j + 16, ... in turn. Slices and ufunc
    # outputs keep the layout, so the rows stay the fast axis throughout.
    stop = n - n % 8
    lanes = t[..., :8]
    if stop > 8:
        lanes = lanes + t[..., 8:16]
        for i in range(16, stop, 8):
            lanes += t[..., i:i + 8]
    pairs = lanes[..., 0::2] + lanes[..., 1::2]
    quads = pairs[..., 0::2] + pairs[..., 1::2]
    out = quads[..., 0] + quads[..., 1]
    for i in range(stop, n):
        out += t[..., i]
    return out


def logsumexp_rows(z: np.ndarray) -> np.ndarray:
    """Log-sum-exp over the last axis of a float64 array of rows (2-D, or
    stacked with leading axes), bit-identical row by row to
    ``scipy.special.logsumexp(np.ascontiguousarray(z), axis=-1)`` (scipy
    1.17) without its array-API dispatch, in any memory layout: the row
    maxima are split out of the sum, and rows whose result is not finite
    fall back to ``log(sum(exp(z)))``.

    Every reduction runs over the last axis, so the work follows the
    layout: a component-major input, whose rows are the fast axis (the
    ``.T`` of a (k, n) buffer), reduces across whole rows at once and is
    the fastest.
    """
    # Ufunc reductions, without the ndarray methods' Python wrappers.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        top = np.maximum.reduce(z, axis=-1, keepdims=True)
        is_top = z == top
        m = np.add.reduce(is_top, axis=-1, dtype=np.float64)
        terms = z - top
        np.exp(terms, out=terms)
        # Drops the maxima from the sum: in a row with a finite maximum they
        # are exp(0) = 1 and become +0.0, and every other row ends non-finite
        # and is recomputed below.
        terms *= ~is_top
        # Where the sum is 0 and the result finite, m >= 1 and 0 / m is 0.
        out = _row_sums(terms)
        out /= m
        np.log1p(out, out=out)
        out += np.log(m)
        out += top[..., 0]
        finite = np.isfinite(out)
        if not np.logical_and.reduce(finite, axis=None):
            bad = ~finite
            out[bad] = np.log(np.exp(z[bad]).sum(axis=-1))
    return out


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
    deterministic for a fixed seed. Intended sample sizes are >= 1e4;
    fewer than 2 samples raise :class:`ValueError`, because the standard
    error is undefined. So do weights that are negative or NaN, or whose
    sum is not positive and finite. A mixture whose width is not
    ``noise.dim`` raises :class:`ShapeMismatch` with the closed-form
    bounds' text. Every refusal comes before any draw and any NumPy
    warning.

    The stream is that of ``rng = seeded_rng(seed)`` drawing
    ``rng.choice(k, size=n_samples, p=p)``, with ``p`` the weights over
    their sum, and then one (n_samples, d) ``rng.standard_normal`` draw. ``choice`` takes one 64-bit output per
    uniform ``u``, so the normals start ``n_samples`` outputs on: a second
    generator, given ``rng``'s state and advanced past the uniforms, draws
    them. Both are drawn block by block of ``_MC_BLOCK`` rows. A sample's
    component is the number of edges ``cdf[j] <= u`` among the first k-1
    of ``cdf``, the normalized cumulative weights, which is ``choice``'s
    ``searchsorted(u, "right")``: ``u < 1 = cdf[-1]`` and the cdf never
    decreases. A sample from component c is ``m_c + s_c * z`` with
    ``s_c**2 = v_c``, so its quadratic form under component i is the
    grouped form

        (z*z) . (v_c / v_i) + z . (2 s_c (m_c - m_i) / v_i)
            + sum((m_c - m_i)**2 / v_i),

    whose coefficients are built once per call. Each block orders its rows
    by component and scores every group with one plain ``einsum`` product,
    never a BLAS call (``matmul``, ``@``, ``dot`` or
    ``einsum(optimize=...)``): a BLAS product's last bits can depend on the
    group's row count, so only the plain product keeps the result's bits
    independent of the block size. The features [z*z, z] are stored
    feature-major, (2d, rows), so each product's inner loop runs along the
    rows, and the products fill a component-major (k, rows) buffer, whose
    transpose :func:`logsumexp_rows` reduces along whole rows at once. A
    one-component mixture keeps row-major (rows, 2d) features: there
    ``einsum`` drops the component axis and would sum the feature-major
    product in another order, so its last bits would leave those of the
    grouped form's row-major reference.

    The blocks run through two stages over two alternating buffer sets.
    The calling thread draws a block's normals, then finishes the block
    before it: log-sum-exp and the scatter into -log p(z). One helper
    thread, started per call in a copy of the caller's context (so under
    its ``np.errstate``), draws each block's uniforms, counts its choices,
    and orders and scores it (:func:`_score_block`) meanwhile; most of
    both stages runs in NumPy loops that release the GIL. Each block is
    scored from its own uniforms and normals into its own rows, and each
    generator is drawn by one thread in block order, so thread timing
    cannot move a bit. The helper allocates nothing block-sized but the
    sort's index array: what a thread frees stays in its own malloc
    arena, so a helper that made the log-sum-exp's temporaries would add a
    second set of them to the peak RSS. An error in either stage reaches
    the caller, and the helper has ended when this returns or raises.
    Memory beyond the (n_samples,) -log p(z) stays fixed.
    """
    if n_samples < 2:
        raise ValueError(f"mc_entropy needs n_samples >= 2, got {n_samples}")
    # Imported here: the mixture module imports this one.
    from .mixture import MixtureState

    state = MixtureState.of(mix)
    check_width(state.var.shape[1], noise.dim)
    weights, means = state.weights, state.means
    # Written so that NaN fails too; a negative weight fails first, so the
    # sum adds no infinities of both signs, and a sum that overflows fails
    # the last comparison without a warning.
    with np.errstate(over="ignore"):
        usable = weights.min() >= 0 and 0 < weights.sum() < np.inf
    if not usable:
        raise ValueError(
            f"mc_entropy needs nonnegative weights with a positive finite sum, "
            f"got {weights}"
        )
    rng = seeded_rng(seed)
    # Raw (unridged) per-component variances: the oracle stays pure math.
    variances = state.var + noise.std**2
    k, d = means.shape

    # gap[c, i] = m_c - m_i; coef[c] stacks the (d, k) quadratic and linear
    # coefficients of the grouped form for samples from c.
    gap = means[:, None, :] - means[None, :, :]
    coef = np.concatenate([
        variances[:, None, :] / variances,
        2.0 * np.sqrt(variances)[:, None, :] * gap / variances,
    ], axis=2).transpose(0, 2, 1).copy()
    const = np.log(weights) - 0.5 * (
        d * LOG_2PI + np.log(variances).sum(axis=1) + (gap * gap / variances).sum(axis=2)
    )
    # The cdf Generator.choice builds from p.
    cdf = np.cumsum(weights / weights.sum())
    cdf /= cdf[-1]
    # The normals' generator: rng's state, advanced past the n_samples
    # uniforms the helper draws from rng.
    bits = np.random.PCG64()
    bits.state = rng.bit_generator.state
    normals = np.random.Generator(bits.advance(n_samples))

    neg_logp = np.empty(n_samples)
    rows = min(n_samples, _MC_BLOCK)
    # Per set: the normals, the normals sorted by component, and flat
    # buffers for the features [z*z, z] and the component-major log terms,
    # viewed at each block's row count.
    buffer_sets = [
        (np.empty((rows, d)), np.empty((rows, d)), np.empty(2 * d * rows),
         np.empty(k * rows))
        for _ in range(2)
    ]
    # The helper's own: the uniforms, which of them lie at or above an
    # edge, and the choices. The narrowest unsigned key lets the stable sort
    # run as a radix sort; a stable order is the same whatever the key type.
    choosing = (np.empty(rows), np.empty(rows, dtype=bool),
                np.empty(rows, dtype=np.min_scalar_type(k - 1)))
    # Imported here: only the oracle needs it, and at import it would add
    # about 0.1 MB to every process's peak RSS.
    import queue

    jobs, scored = queue.SimpleQueue(), queue.SimpleQueue()
    helper = threading.Thread(
        target=contextvars.copy_context().run,
        args=(_score_blocks, jobs, scored, rng, cdf, choosing, coef, const),
        name="mc_entropy",
    )
    helper.start()

    def finish(start: int) -> None:
        """The calling thread's stage for the block at ``start``, once the
        helper has scored it."""
        result = scored.get()
        if isinstance(result, Exception):
            raise result
        order, terms = result
        neg_logp[start:start + order.size][order] = -logsumexp_rows(terms.T)

    try:
        starts = range(0, n_samples, _MC_BLOCK)
        for i, start in enumerate(starts):
            n = min(_MC_BLOCK, n_samples - start)
            buffers = buffer_sets[i % 2]
            normals.standard_normal(out=buffers[0][:n])
            jobs.put((n, buffers))
            if i:
                finish(starts[i - 1])
        finish(starts[-1])
    finally:
        jobs.put(None)
        helper.join()
    value = float(np.mean(neg_logp))
    std_error = float(np.std(neg_logp, ddof=1) / np.sqrt(n_samples))
    return McEstimate(value=value, std_error=std_error, n_samples=n_samples, seed=seed)


def _score_blocks(jobs, scored, *fixed) -> None:
    """The helper thread of :func:`mc_entropy`: scores each block from
    ``jobs`` in turn until ``None``, putting each result, or the first
    error, on ``scored``. ``fixed`` holds the arguments every block shares,
    passed on to :func:`_score_block`."""
    try:
        while (job := jobs.get()) is not None:
            scored.put(_score_block(*job, *fixed))
    except Exception as exc:
        scored.put(exc)


def _score_block(n, buffers, rng, cdf, choosing, coef, const):
    """The helper's stage for the block of the next ``n`` rows: its
    uniforms drawn from ``rng`` and counted into choices against the
    ``cdf``'s edges, its rows ordered by source component, as features
    [z*z, z], and each group's log terms under every component in a
    contiguous (k, n) view of the log-term buffer. Returns the order and
    those terms. Beyond the order it allocates nothing block-sized: the
    group bounds are counted from the edge masks, without ``np.bincount``'s
    cast of the choices, and ``mode="clip"`` spares ``np.take`` the copy
    of its output that ``mode="raise"`` makes, and the order is always in
    range."""
    z, sorted_z, features, log_terms = buffers
    u, at_or_above, choice = (b[:n] for b in choosing)
    k, d = const.shape[0], z.shape[1]
    rng.random(out=u)
    choice.fill(0)
    # starts[c + 1] counts the rows whose choice is at most c.
    starts = np.full(k + 1, n)
    starts[0] = 0
    for j in range(k - 1):
        np.less_equal(cdf[j], u, out=at_or_above)
        np.add(choice, at_or_above.view(np.uint8), out=choice)
        starts[j + 1] = n - np.count_nonzero(at_or_above)
    order = np.argsort(choice, kind="stable")
    zs = np.take(z[:n], order, axis=0, out=sorted_z[:n], mode="clip")
    # A (2d, n) view either way: feature-major, or at k = 1 the transpose
    # of row-major features (see mc_entropy).
    if k == 1:
        feat = features[:2 * d * n].reshape(n, 2 * d).T
    else:
        feat = features[:2 * d * n].reshape(2 * d, n)
    np.copyto(feat[d:], zs.T)
    np.multiply(feat[d:], feat[d:], out=feat[:d])
    terms = log_terms[:k * n].reshape(k, n)
    for c in np.flatnonzero(starts[:-1] < starts[1:]):
        group = slice(starts[c], starts[c + 1])
        np.einsum("ln,li->in", feat[:, group], coef[c], out=terms[:, group])
        terms[:, group] *= -0.5
        terms[:, group] += const[c][:, None]
    return order, terms
