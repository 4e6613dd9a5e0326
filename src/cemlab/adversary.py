"""The evaluation-side inversion adversary: a trainable decoder network
mapping noisy features back to inputs, with white-box access to the frozen
encoder and the training split, plus the closed-form posterior-mean
adversary for jointly Gaussian worlds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bounds import JointGaussianSpec, NoiseModel, wiener_gain
from .data import Dataset
from .errors import NonFinite
from .network import (
    NeuralModule,
    backward,
    forward,
    init_network,
    noise_inject,
    sgd_step,
)
from .numerics import derived_seed, seeded_rng


@dataclass
class AttackConfig:
    epochs: int = 50
    lr: float = 0.005
    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])
    seed: int = 0
    batch_size: int = 64
    momentum: float = 0.9
    # Sigmoid suits [0,1]-normalized inputs; identity suits unbounded
    # reconstruction targets (e.g. the Gaussian-world oracle checks).
    output_activation: str = "sigmoid"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("attack training needs at least one epoch")


@dataclass
class AttackReport:
    mse_train: float
    mse_infer: float
    psnr_train: float
    psnr_infer: float
    floor: float | None = None

    def to_dict(self) -> dict:
        return {
            "mse_train": float(self.mse_train),
            "mse_infer": float(self.mse_infer),
            "psnr_train": float(self.psnr_train),
            "psnr_infer": float(self.psnr_infer),
            "floor": None if self.floor is None else float(self.floor),
        }


def psnr(mse: float) -> float:
    """Peak signal-to-noise ratio for unit-range signals: -10*log10(mse)."""
    return float(-10.0 * np.log10(mse))


def _recon_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Per-dimension mean squared error and its gradient."""
    n, d = target.shape
    diff = pred - target
    return float(np.mean(diff * diff)), 2.0 * diff / (n * d)


def train_attacker(
    encoder: NeuralModule,
    noise: NoiseModel,
    data: Dataset,
    cfg: AttackConfig,
) -> NeuralModule:
    """Train the inversion network against a frozen encoder.

    The adversary sees the training split and one fresh noise draw per
    sample per epoch, and minimizes the per-dimension reconstruction MSE.
    Deterministic per seed; the encoder is never modified.
    """
    x_train, _ = data.train_arrays()
    d_in = x_train.shape[1]
    dims = [encoder.out_dim, *cfg.hidden_dims, d_in]
    activations = ["relu"] * len(cfg.hidden_dims) + [cfg.output_activation]
    attacker = init_network(dims, activations, derived_seed(cfg.seed, 10))

    feats_clean, _ = forward(encoder, x_train)
    n = x_train.shape[0]
    for epoch in range(cfg.epochs):
        feats = noise_inject(feats_clean, noise, derived_seed(cfg.seed, 11, epoch))
        order = seeded_rng(cfg.seed, 12, epoch).permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            pred, tape = forward(attacker, feats[rows])
            _, grad = _recon_loss(pred, x_train[rows])
            grads, _ = backward(attacker, tape, grad)
            try:
                attacker = sgd_step(attacker, grads, cfg.lr, cfg.momentum)
            except NonFinite as exc:
                raise NonFinite(f"attack diverged at epoch {epoch}: {exc}") from exc
    return attacker


def reconstruction_mse(
    attacker: NeuralModule,
    encoder: NeuralModule,
    noise: NoiseModel,
    inputs: np.ndarray,
    seed: int,
    n_draws: int = 8,
) -> float:
    """Per-dimension MSE of the attacker, averaged over fresh noise draws."""
    feats_clean, _ = forward(encoder, inputs)
    total = 0.0
    for draw in range(n_draws):
        feats = noise_inject(feats_clean, noise, derived_seed(seed, 30, draw))
        pred, _ = forward(attacker, feats)
        diff = pred - inputs
        total += float(np.mean(diff * diff))
    return total / n_draws


def evaluate_attack(
    attacker: NeuralModule,
    encoder: NeuralModule,
    noise: NoiseModel,
    train_split: np.ndarray,
    test_split: np.ndarray,
    seed: int,
    floor: float | None = None,
) -> AttackReport:
    """Reconstruction MSE and PSNR per split, over fresh noise draws so
    memorized noise realizations cannot help the attacker."""
    mse_train = reconstruction_mse(
        attacker, encoder, noise, train_split, derived_seed(seed, 20)
    )
    mse_infer = reconstruction_mse(
        attacker, encoder, noise, test_split, derived_seed(seed, 21)
    )
    return AttackReport(
        mse_train=mse_train,
        mse_infer=mse_infer,
        psnr_train=psnr(mse_train),
        psnr_infer=psnr(mse_infer),
        floor=floor,
    )


def gaussian_posterior_attacker(spec: JointGaussianSpec):
    """The exact worst-case adversary for a jointly Gaussian world: the
    linear posterior-mean map. Its expected per-dimension MSE equals the
    analytic minimum."""
    gain = wiener_gain(spec)

    def posterior_mean(z: np.ndarray) -> np.ndarray:
        return np.atleast_2d(np.asarray(z, dtype=np.float64)) @ gain.T

    return posterior_mean
