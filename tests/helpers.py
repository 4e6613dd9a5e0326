"""Shared fixtures-by-hand for bound and adversary tests, and the code
that only tests call: among it the jointly-Gaussian reference that the
MSE floor is checked against."""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from cemlab.bounds import LOG_2PIE, NoiseModel
from cemlab.errors import NonPositiveDefinite, ShapeMismatch
from cemlab.mixture import GaussianComponent, GaussianMixture, MixtureState
from cemlab.numerics import LOG_2PI, Covariance, McEstimate, seeded_rng


def write_mixture(weights, means, variances, n=100, ridge=0.0):
    """A mixture written by hand, component by component, each covariance
    checked by ``Covariance.diagonal``."""
    means = np.atleast_2d(np.asarray(means, dtype=np.float64))
    comps = [
        GaussianComponent(
            weight=float(w),
            mean=np.asarray(m, dtype=np.float64),
            cov=Covariance.diagonal(v, ridge=ridge),
        )
        for w, m, v in zip(weights, means, np.atleast_2d(variances))
    ]
    return GaussianMixture(components=comps, dim=means.shape[1], dataset_size=n)


def make_mixture(weights, means, variances, n=100, ridge=0.0):
    """The :class:`MixtureState` of :func:`write_mixture`."""
    return MixtureState.of(write_mixture(weights, means, variances, n, ridge))


def save_csv(ds, path) -> None:
    """Write a dataset's rows as label,v1,...,vd with 17 significant
    digits, the form ``cemlab.data.load_csv`` reads."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for label, row in zip(ds.labels, ds.inputs):
            fh.write(f"{int(label)}," + ",".join(f"{v:.17g}" for v in row) + "\n")


def noise_cov(noise: NoiseModel) -> np.ndarray:
    """The (d, d) corruption covariance std^2 * I; PD only for std > 0."""
    if noise.std <= 0:
        raise NonPositiveDefinite("noise covariance is PD only for std > 0")
    return noise.std**2 * np.eye(noise.dim)


@dataclass
class JointGaussianSpec:
    """A jointly Gaussian world x ~ N(0, x_cov), z = W x + eps, with
    ``x_cov`` a (d_x, d_x) array, the channel W (d_z, d_x) and eps the
    noise."""

    x_cov: np.ndarray
    channel: np.ndarray
    noise: NoiseModel

    def __post_init__(self):
        self.x_cov = np.asarray(self.x_cov, dtype=np.float64)
        self.channel = np.asarray(self.channel, dtype=np.float64)
        if self.x_cov.ndim != 2 or self.x_cov.shape[0] != self.x_cov.shape[1]:
            raise ShapeMismatch(f"x_cov must be square, got {self.x_cov.shape}")
        _cholesky(self.x_cov)
        if self.channel.shape != (self.noise.dim, self.x_cov.shape[0]):
            raise ShapeMismatch(
                f"channel of shape {self.channel.shape} from x dim "
                f"{self.x_cov.shape[0]} to noise dim {self.noise.dim}"
            )


def _cholesky(cov: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of ``cov``, or :class:`NonPositiveDefinite`
    unless it is symmetric and positive definite."""
    if not np.allclose(cov, cov.T, atol=1e-10, rtol=1e-10):
        raise NonPositiveDefinite("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("Cholesky failed: not positive definite") from exc


def gaussian_entropy(cov) -> float:
    """Differential entropy of N(mu, cov), 0.5 * log((2*pi*e)^d * det(cov)),
    with the log-determinant from the Cholesky factor of the (d, d)
    ``cov``."""
    cov = np.asarray(cov, dtype=np.float64)
    logdet = float(2.0 * np.sum(np.log(np.diag(_cholesky(cov)))))
    return 0.5 * (cov.shape[0] * LOG_2PIE + logdet)


def posterior_covariance(spec: JointGaussianSpec) -> np.ndarray:
    """Exact covariance of x given z for the jointly Gaussian world,
    checked positive definite."""
    sx, w = spec.x_cov, spec.channel
    if spec.noise.std <= 0:
        raise NonPositiveDefinite("posterior requires a PD noise covariance")
    gram = w @ sx @ w.T + spec.noise.std**2 * np.eye(w.shape[0])
    try:
        sol = np.linalg.solve(gram, w @ sx)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("channel gram matrix is singular") from exc
    post = sx - sx @ w.T @ sol
    post = 0.5 * (post + post.T)
    _cholesky(post)
    return post


def minimal_mse_oracle(spec: JointGaussianSpec) -> float:
    """Per-dimension MSE of the exact posterior-mean reconstructor."""
    return float(np.trace(posterior_covariance(spec)) / spec.x_cov.shape[0])


def wiener_gain(spec: JointGaussianSpec) -> np.ndarray:
    """The linear posterior-mean map z -> E[x|z] for zero prior mean."""
    sx = spec.x_cov
    w = spec.channel
    gram = w @ sx @ w.T + spec.noise.std**2 * np.eye(w.shape[0])
    try:
        return sx @ w.T @ np.linalg.inv(gram)
    except np.linalg.LinAlgError as exc:
        raise NonPositiveDefinite("channel gram matrix is singular") from exc


def gaussian_posterior_attacker(spec: JointGaussianSpec):
    """The exact worst-case adversary for a jointly Gaussian world: the
    linear posterior-mean map. Its expected per-dimension MSE equals the
    analytic minimum :func:`minimal_mse_oracle`."""
    gain = wiener_gain(spec)

    def posterior_mean(z: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(z, dtype=np.float64)) @ gain.T

    return posterior_mean


def _set_weights(doc, weights):
    for comp, w in zip(doc["components"], weights):
        comp["weight"] = w


# Edits of a saved mixture checkpoint of three or more components into
# what training cannot write. Most once loaded, and `cemlab bounds` wrote
# NaN, or the bound of weights that sum to 3; an infinite dataset_size
# raised an uncaught OverflowError.
UNWRITABLE = {
    "negative weight": lambda doc: _set_weights(doc, [-0.1]),
    "zero weight": lambda doc: _set_weights(doc, [0.0]),
    "nan weight": lambda doc: _set_weights(doc, [float("nan")]),
    "infinite weight": lambda doc: _set_weights(doc, [float("inf")]),
    "weights sum to 3": lambda doc: _set_weights(doc, [1.0, 1.0, 1.0]),
    # At k = 3, 1 + 2**-50 is 4 units of 2**-52 from 1, over the tolerance.
    "weights sum 4 ulp high": lambda doc: _set_weights(doc, [0.25, 0.25, 0.5 + 2.0**-50]),
    "infinite mean": lambda doc: doc["components"][1]["mean"].__setitem__(0, float("inf")),
    "nan mean": lambda doc: doc["components"][2]["mean"].__setitem__(1, float("nan")),
    "dataset_size below k": lambda doc: doc.update(dataset_size=2),
    "negative dataset_size": lambda doc: doc.update(dataset_size=-3),
    "infinite dataset_size": lambda doc: doc.update(dataset_size=float("inf")),
    "nested mean": lambda doc: doc["components"][0].update(mean=[doc["components"][0]["mean"]]),
    # Casts once loaded these: a fractional size or dim as its integer
    # part, true as 1.0.
    "fractional dataset_size": lambda doc: doc.update(dataset_size=doc["dataset_size"] + 0.7),
    "fractional dim": lambda doc: doc.update(dim=doc["dim"] + 0.9),
    "true mean entry": lambda doc: doc["components"][0]["mean"].__setitem__(0, True),
}


def random_mixture(rng, k, d, n=200):
    raw = rng.uniform(0.05, 1.0, size=k)
    return make_mixture(
        raw / raw.sum(),
        rng.uniform(-3.0, 3.0, size=(k, d)),
        rng.uniform(0.05, 2.0, size=(k, d)),
        n=n,
    )


def isotropic_spec(rng, d=None):
    """A jointly Gaussian world whose posterior covariance has equal
    eigenvalues: scaled-orthogonal channel, isotropic prior and noise.
    This is the regime where the entropy-based MSE floor is tight."""
    if d is None:
        d = int(rng.integers(1, 9))
    sigma_x = float(rng.uniform(0.3, 2.0))
    gain = float(rng.uniform(0.2, 3.0))
    noise_std = float(rng.uniform(0.1, 1.5))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return JointGaussianSpec(
        x_cov=np.diag(np.full(d, sigma_x**2)),
        channel=gain * q,
        noise=NoiseModel(std=noise_std, dim=d),
    )


def random_spec(rng, d_x=None, d_z=None):
    """A generic jointly Gaussian world (anisotropic posterior)."""
    if d_x is None:
        d_x = int(rng.integers(1, 7))
    if d_z is None:
        d_z = int(rng.integers(1, 7))
    q, _ = np.linalg.qr(rng.standard_normal((d_x, d_x)))
    eigs = rng.uniform(0.3, 2.5, size=d_x)
    x_cov = q @ np.diag(eigs) @ q.T
    return JointGaussianSpec(
        x_cov=0.5 * (x_cov + x_cov.T),
        channel=rng.standard_normal((d_z, d_x)),
        noise=NoiseModel(std=float(rng.uniform(0.2, 1.2)), dim=d_z),
    )


def _pairwise_entropy(weights, variances, divergence):
    """Kolchinsky & Tracey's (2017) pairwise estimate of a diagonal Gaussian
    mixture's entropy from the (k, k) divergences D(p_i || p_j):
    sum_i w_i H(p_i) - sum_i w_i log sum_j w_j exp(-D(p_i || p_j))."""
    h = 0.5 * (variances.shape[1] * LOG_2PIE + np.log(variances).sum(axis=1))
    return float(weights @ h - weights @ logsumexp(-divergence, b=weights, axis=1))


def entropy_bhattacharyya(weights, means, variances):
    """The pairwise estimate with Bhattacharyya distances, a lower bound on
    the entropy of the mixture of N(means[i], diag(variances[i]))."""
    v_i, v_j = variances[:, None], variances[None]
    v_mid = 0.5 * (v_i + v_j)
    gap2 = (means[:, None] - means[None]) ** 2
    distance = gap2 / (8.0 * v_mid) + 0.5 * np.log(v_mid / np.sqrt(v_i * v_j))
    return _pairwise_entropy(weights, variances, distance.sum(axis=2))


def entropy_kl(weights, means, variances):
    """The pairwise estimate with KL divergences, an upper bound on the
    mixture's entropy that Huber et al.'s (2008) bound, the one
    ``bounds.mixture_entropy_upper`` computes, dominates at the same
    variances."""
    v_i, v_j = variances[:, None], variances[None]
    gap2 = (means[:, None] - means[None]) ** 2
    divergence = 0.5 * (v_i / v_j + gap2 / v_j - 1.0 + np.log(v_j / v_i))
    return _pairwise_entropy(weights, variances, divergence.sum(axis=2))


def _oracle_draws(mix, noise, n_samples, seed):
    """The widened mixture and the oracle's random stream at full length:
    weights, means and variances, the component choices, and the standard
    normals as one (n_samples, d) draw."""
    rng = seeded_rng(seed)
    state = MixtureState.of(mix)
    weights, means = state.weights, state.means
    k, d = means.shape
    variances = state.var + noise.std**2
    choices = rng.choice(k, size=n_samples, p=weights / weights.sum())
    z = rng.standard_normal((n_samples, d))
    return weights, means, variances, choices, z


def neg_logp_grouped(mix, noise, n_samples, seed):
    """Per-sample -log p(z) in the grouped form ``numerics.mc_entropy``
    computes block by block, here over all rows at once with scipy's
    log-sum-exp: rows ordered by source component c, features [z*z, z],
    and one non-BLAS product per group with the coefficients of

        (z*z) . (v_c / v_i) + z . (2 s_c (m_c - m_i) / v_i)
            + sum((m_c - m_i)**2 / v_i)."""
    weights, means, variances, choices, z = _oracle_draws(mix, noise, n_samples, seed)
    k, d = means.shape
    coef = np.empty((k, 2 * d, k))
    const = np.empty((k, k))
    for c in range(k):
        gap = means[c] - means
        coef[c, :d] = (variances[c] / variances).T
        coef[c, d:] = (2.0 * np.sqrt(variances[c]) * gap / variances).T
        const[c] = np.log(weights) - 0.5 * (
            d * LOG_2PI
            + np.sum(np.log(variances), axis=1)
            + np.sum(gap * gap / variances, axis=1)
        )
    order = np.argsort(choices, kind="stable")
    zs = z[order]
    feat = np.concatenate([zs * zs, zs], axis=1)
    bounds = np.searchsorted(choices[order], np.arange(k + 1))
    log_terms = np.empty((n_samples, k))
    for c in range(k):
        group = slice(bounds[c], bounds[c + 1])
        np.einsum("nl,li->ni", feat[group], coef[c], out=log_terms[group])
        log_terms[group] *= -0.5
        log_terms[group] += const[c]
    neg_logp = np.empty(n_samples)
    neg_logp[order] = -logsumexp(log_terms, axis=1)
    return neg_logp


def _direct_log_terms(weights, means, variances, choices, z):
    """The (n_samples, k) log terms of the direct form (see
    :func:`neg_logp_direct`)."""
    k, d = means.shape
    draws = means[choices] + z * np.sqrt(variances[choices])
    log_terms = np.empty((choices.size, k))
    for i in range(k):
        dev = draws - means[i]
        log_terms[:, i] = np.log(weights[i]) - 0.5 * (
            d * LOG_2PI
            + np.sum(np.log(variances[i]))
            + np.sum(dev * dev / variances[i], axis=1)
        )
    return log_terms


def neg_logp_direct(mix, noise, n_samples, seed):
    """Per-sample -log p(z) in the direct form the oracle used before the
    grouped one: each sample is drawn as ``m_c + s_c z`` and scored against
    every component from its deviation, with scipy's log-sum-exp."""
    draws = _oracle_draws(mix, noise, n_samples, seed)
    return -logsumexp(_direct_log_terms(*draws), axis=1)


def grouped_direct_rounding_bound(mix, noise, n_samples, seed):
    """Per sample, a first-order bound on what rounding in the quadratic
    forms can add to |neg_logp_grouped - neg_logp_direct|; the constants'
    logarithms and the log-sum-exp are left out.

    With u = 2**-53, take a sample from component c and, per coordinate,
    ``a = |s_c z| + |m_c - m_i|``, which bounds both the deviation
    ``x - m_i`` with ``x = m_c + s_c z`` and the square root of the grouped
    form's terms' magnitude ``(z*z v_c + |2 s_c z (m_c - m_i)| +
    (m_c - m_i)**2) / v_i = a**2 / v_i``. The grouped form's few roundings
    per coefficient and its 2d-term product err by at most
    ``(2d + 6) u a**2 / v_i``. The direct form draws ``x`` with an error up
    to ``u (|m_c| + 2 |s_c z|)``, which moves the deviation's square by
    twice that times ``a``, divided by ``v_i``, and squares, divides and
    sums d terms with ``(d + 3) u a**2 / v_i`` more. For the component
    itself (``m_i = m_c``) the draw's part is ``2 u |m_c| |z| / s_c``: the
    direct form's error grows with ulp(|m_c|) / s_c. The log-sum-exp moves
    by at most each component's error weighted by its responsibility
    ``r_i``, so the bound is ``u sum_i r_i sum_l
    ((3d + 9) a + 2 (|m_c| + 2 |s_c z|)) a / v_i``. NaN where the direct
    form is."""
    weights, means, variances, choices, z = _oracle_draws(mix, noise, n_samples, seed)
    k, d = means.shape
    log_terms = _direct_log_terms(weights, means, variances, choices, z)
    resp = np.exp(log_terms - logsumexp(log_terms, axis=1, keepdims=True))
    m_c = means[choices]
    s_z = np.abs(z) * np.sqrt(variances[choices])
    bound = np.zeros(n_samples)
    for i in range(k):
        a = s_z + np.abs(m_c - means[i])
        per_coord = ((3 * d + 9) * a + 2 * (np.abs(m_c) + 2 * s_z)) * a / variances[i]
        bound += resp[:, i] * per_coord.sum(axis=1)
    return 2.0**-53 * bound


def mc_entropy_whole_array(mix, noise, n_samples, seed):
    """Reference Monte-Carlo entropy oracle: the grouped form of
    ``numerics.mc_entropy`` over all rows at once (:func:`neg_logp_grouped`).
    The blocked oracle must reproduce its bits."""
    neg_logp = neg_logp_grouped(mix, noise, n_samples, seed)
    value = float(np.mean(neg_logp))
    std_error = float(np.std(neg_logp, ddof=1) / np.sqrt(n_samples))
    return McEstimate(value=value, std_error=std_error, n_samples=n_samples, seed=seed)
