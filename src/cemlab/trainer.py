"""The full training loop: per-epoch mixture refit over the noisy feature
set, per-batch streaming weight/covariance updates, the joint loss
task_term + lambda * entropy_penalty, and momentum SGD on encoder and
decoder.

The entropy-penalty gradient enters at the noise-layer output and flows
into the encoder only; the decoder sees task gradients alone, since the
penalty depends on the features and not on the decoder parameters.

Inside an epoch the mixture is held as a :class:`MixtureState` of plain
arrays; one :func:`cem_step` per batch updates it and returns the penalty
and its gradient.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import NoiseModel, cem_step
from .data import Dataset
from .errors import NonFinite, NonPositiveDefinite, UnknownDefense
from .mixture import (
    GaussianMixture,
    MixtureState,
    assign_nearest,
    blend_batch,
    fit_init,
)
from .network import (
    NeuralModule,
    backward,
    forward,
    init_looks_linear,
    init_network,
    noise_inject,
    sgd_step,
    task_loss,
)
from .numerics import derived_seed, seeded_rng

# Both kinds train on the plain task loss; `none` injects no noise.
DEFENSE_KINDS = ("none", "noise_only")


@dataclass
class TrainingConfig:
    lam: float = 16.0           # weight on the entropy penalty
    noise_std: float = 0.025
    k: int | None = None        # mixture components; defaults to 3 * n_classes
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.05
    lr_decay_factor: float = 0.5
    lr_decay_every: int | None = None   # defaults to max(1, epochs // 3)
    momentum: float = 0.0
    seed: int = 0
    defense: str = "noise_only"
    d_z: int = 8
    hidden: int = 32
    feature_scale: float = 2.0   # encoder init scale per layer
    gmm_iters: int = 10

    def __post_init__(self):
        if self.defense not in DEFENSE_KINDS:
            raise UnknownDefense(f"defense must be one of {DEFENSE_KINDS}")
        if self.lam < 0 or self.noise_std < 0:
            raise ValueError("lam and noise_std must be nonnegative")
        if self.lam > 0 and (self.defense == "none" or self.noise_std == 0):
            raise ValueError(
                "a positive entropy-penalty weight requires the noise_only "
                "defense with noise_std > 0"
            )

    def resolved_k(self, n_classes: int) -> int:
        k = self.k if self.k is not None else 3 * n_classes
        if k < n_classes:
            warnings.warn(
                f"k={k} below the class count {n_classes}; the mixture cannot "
                "give each class its own component",
                stacklevel=2,
            )
        return k

    def decay_every(self) -> int:
        if self.lr_decay_every is not None:
            return max(1, self.lr_decay_every)
        return max(1, self.epochs // 3)


@dataclass
class LossBreakdown:
    epoch: int
    l_d: float
    l_c: float
    total: float
    accuracy: float


@dataclass
class TrainResult:
    encoder: NeuralModule
    decoder: NeuralModule
    mixture: GaussianMixture
    history: list[LossBreakdown] = field(default_factory=list)


def _noise_model(cfg: TrainingConfig) -> NoiseModel:
    std = cfg.noise_std if cfg.defense == "noise_only" else 0.0
    return NoiseModel(std=std, dim=cfg.d_z)


def build_models(cfg: TrainingConfig, d_in: int, n_classes: int):
    enc = init_looks_linear(
        d_in, cfg.hidden, cfg.d_z, derived_seed(cfg.seed, 1),
        scale=cfg.feature_scale,
    )
    dec = init_network(
        [cfg.d_z, cfg.hidden, n_classes], ["relu", "identity"],
        derived_seed(cfg.seed, 2),
    )
    return enc, dec


def train(cfg: TrainingConfig, data: Dataset) -> TrainResult:
    """Run the conditional-entropy-maximization training loop.

    Each epoch re-encodes the training set with fresh noise, refits the
    mixture (means warm-started from the previous epoch), then sweeps
    batches: assign to nearest component, update weights then covariances,
    combine the task loss with the entropy penalty, and take
    one SGD step on both halves of the network. The returned mixture is the
    state after the last batch.
    """
    x_train, y_train = data.train_arrays()
    n_train = x_train.shape[0]
    if n_train == 0:
        raise ValueError("training split is empty")
    if cfg.batch_size > n_train:
        raise ValueError(
            f"batch_size {cfg.batch_size} exceeds training set size {n_train}"
        )
    k = cfg.resolved_k(data.n_classes)
    noise = _noise_model(cfg)
    encoder, decoder = build_models(cfg, data.dim, data.n_classes)

    # Noisy features carry at least the injected variance in every
    # direction; ridging the cluster covariances at that scale keeps
    # singleton clusters from producing near-zero denominators in the
    # penalty gradient.
    mixture_ridge = max(1e-6, noise.std**2)

    def refit(enc: NeuralModule, epoch: int, means):
        feats, _ = forward(enc, x_train)
        if not np.all(np.isfinite(feats)):
            raise NonFinite(f"training diverged at epoch {epoch}: non-finite features")
        noisy = noise_inject(feats, noise, derived_seed(cfg.seed, 3, epoch))
        try:
            return fit_init(
                noisy, k, derived_seed(cfg.seed, 4, epoch), iters=cfg.gmm_iters,
                init_means=means, ridge=mixture_ridge,
            )
        except NonPositiveDefinite as exc:
            # Finite features whose squares overflow the covariance are a
            # divergence, not a data defect.
            raise NonFinite(f"training diverged at epoch {epoch}: {exc}") from exc

    if cfg.epochs == 0:
        return TrainResult(encoder, decoder, refit(encoder, 0, None), [])

    history: list[LossBreakdown] = []
    state = None
    penalty_on = noise.std > 0
    for epoch in range(cfg.epochs):
        lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.decay_every())
        prev_means = None if state is None else state.means
        state = MixtureState.of(refit(encoder, epoch, prev_means))

        order = seeded_rng(cfg.seed, 5, epoch).permutation(n_train)
        sums = np.zeros(3)  # l_d, l_c, accuracy accumulators
        n_batches = 0
        for start in range(0, n_train, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            xb, yb = x_train[rows], y_train[rows]

            try:
                z_hat, tape_enc = forward(encoder, xb)
                zb = noise_inject(
                    z_hat, noise, derived_seed(cfg.seed, 6, epoch, n_batches)
                )
                logits, tape_dec = forward(decoder, zb)

                assign = assign_nearest(zb, state.means)
                if penalty_on:
                    state, l_c, penalty_grad = cem_step(state, assign, zb, noise)
                else:
                    state, l_c = blend_batch(state, assign, zb)[0], 0.0

                l_d, grad_logits = task_loss(logits, yb)
                dec_grads, g_z = backward(decoder, tape_dec, grad_logits)
                if cfg.lam > 0:
                    g_z = g_z + cfg.lam * penalty_grad
                enc_grads, _ = backward(encoder, tape_enc, g_z)
                encoder = sgd_step(encoder, enc_grads, lr, cfg.momentum)
                decoder = sgd_step(decoder, dec_grads, lr, cfg.momentum)
            except (NonFinite, NonPositiveDefinite) as exc:
                raise NonFinite(f"training diverged at epoch {epoch}: {exc}") from exc

            acc = float(np.mean(np.argmax(logits, axis=1) == yb))
            sums += (l_d, l_c, acc)
            n_batches += 1

        l_d_mean, l_c_mean, acc_mean = sums / n_batches
        history.append(
            LossBreakdown(
                epoch=epoch,
                l_d=float(l_d_mean),
                l_c=float(l_c_mean),
                total=float(l_d_mean + cfg.lam * l_c_mean),
                accuracy=float(acc_mean),
            )
        )
    return TrainResult(encoder, decoder, state.to_mixture(), history)


def evaluate_utility(
    encoder: NeuralModule,
    decoder: NeuralModule,
    data: Dataset,
    noise: NoiseModel,
    seed: int,
    split: str = "test",
    with_noise: bool = True,
) -> float:
    """Mean top-1 accuracy with (by default) inference-time corruption
    matching the training-time noise."""
    x, y = data.test_arrays() if split == "test" else data.train_arrays()
    feats, _ = forward(encoder, x)
    if with_noise:
        feats = noise_inject(feats, noise, seed)
    logits, _ = forward(decoder, feats)
    return float(np.mean(np.argmax(logits, axis=1) == y))
