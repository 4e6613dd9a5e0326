"""The evaluation-side inversion adversary: a trainable decoder network
mapping noisy features back to inputs, with white-box access to the frozen
encoder and the training split.

:func:`train_attacker_many` trains same-shaped attackers as one stack, each
with the bits it gets alone; :func:`train_attacker` is one run of it. A
stack either finishes or raises; one that raises is trained again run by
run, so that each run's entry is its solo attacker or error.

Random streams: initial weights from ``derived_seed(seed, 10)``; per
epoch, batch order from ``seeded_rng(seed, 12, epoch)`` and noise from
``seeded_rng(seed, 11, epoch)`` (:meth:`~cemlab.network.RunStack.rngs`, as
the trainer draws its own), std times (n_train, width) standard normals,
row ``i`` belonging to the epoch's ``i``-th row in batch order; a
noise-free run draws nothing. Evaluation noise comes from
:func:`~cemlab.network.noise_inject`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .bounds import NoiseModel
from .data import Dataset
from .errors import CemError
from .network import (
    NeuralModule,
    RunStack,
    StackedNet,
    init_network,
    noise_inject,
    predict,
    stacked_or_alone,
)
from .numerics import derived_seed


@dataclass
class AttackConfig:
    epochs: int
    lr: float
    seed: int
    hidden_dims: list[int] = field(default_factory=lambda: [64, 64])
    batch_size: int = 64
    momentum: float = 0.9
    # Sigmoid suits [0,1]-normalized inputs; identity suits unbounded
    # reconstruction targets (e.g. the Gaussian-world oracle checks).
    output_activation: str = "sigmoid"

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("attack training needs at least one epoch")
        if self.batch_size < 1 or any(h < 1 for h in self.hidden_dims):
            raise ValueError("batch_size and hidden_dims entries must be at least 1")
        # Written so that NaN fails too.
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and nonnegative")
        if not -np.inf < self.momentum < np.inf:
            raise ValueError("momentum must be finite")


@dataclass
class AttackReport:
    mse_train: float
    mse_infer: float
    psnr_train: float
    psnr_infer: float
    floor: float | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def psnr(mse: float) -> float:
    """Peak signal-to-noise ratio for unit-range signals: -10*log10(mse)."""
    return float(-10.0 * np.log10(mse))


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

    This is the stack of :func:`train_attacker_many` on one run.
    """
    return _attack_stack([encoder], [noise], [data], [cfg])[0]


def train_attacker_many(
    encoders: list[NeuralModule],
    noises: list[NoiseModel],
    datasets: list[Dataset],
    cfgs: list[AttackConfig],
) -> list[NeuralModule | CemError]:
    """Train several attackers as one stacked computation, in the order
    given.

    The runs must share their shapes: the encoders' output width,
    ``hidden_dims``, the input width and size of the training split,
    ``batch_size``, ``epochs`` and ``output_activation``. Seeds, noise, lr,
    momentum, encoders and data may differ. Every run gets the bits
    :func:`train_attacker` gives it alone. If a run's update is not
    finite, every run is trained alone
    (:func:`~cemlab.network.stacked_or_alone`): a failed run's entry is the
    error :func:`train_attacker` raises for it.
    """
    return stacked_or_alone(_attack_stack, encoders, noises, datasets, cfgs)


def _attack_stack(encoders, noises, datasets, cfgs) -> list[NeuralModule]:
    """The runs of :func:`train_attacker_many` as one stack, which raises
    if any run diverges."""
    stack = _AttackStack(encoders, noises, datasets, cfgs)
    stack.run(cfgs[0].epochs)
    return [stack.attacker.take(r) for r in range(len(cfgs))]


class _AttackStack(RunStack):
    """The runs of a :func:`train_attacker_many` call (see
    :class:`RunStack`)."""

    diverging = "attack"

    def __init__(self, encoders, noises, datasets, cfgs):
        if not cfgs or not len(encoders) == len(noises) == len(datasets) == len(cfgs):
            raise ValueError(
                "train_attacker_many needs one encoder, noise model and dataset "
                "per config"
            )
        xs = [data.train_arrays()[0] for data in datasets]
        shapes = [
            (encoder.out_dim, x.shape, list(cfg.hidden_dims), cfg.batch_size,
             cfg.epochs, cfg.output_activation)
            for encoder, x, cfg in zip(encoders, xs, cfgs)
        ]
        n_train, d_in = xs[0].shape
        super().__init__(cfgs, noises, shapes, n_train, encoders[0].out_dim,
                         cfgs[0].batch_size)
        dims = [encoders[0].out_dim, *cfgs[0].hidden_dims, d_in]
        activations = ["relu"] * len(cfgs[0].hidden_dims) + [cfgs[0].output_activation]
        self.attacker = StackedNet(
            [init_network(dims, activations, derived_seed(cfg.seed, 10)) for cfg in cfgs],
            rows=min(self.batch_size, n_train),
        )
        self.feats_clean = np.stack([
            predict(encoder, x) for encoder, x in zip(encoders, xs)
        ])
        self.x = np.stack(xs)
        self.feats = self.targets = None   # per epoch, in epoch order
        self.set_rates([cfg.lr for cfg in cfgs], [cfg.momentum for cfg in cfgs])

    def start_epoch(self, epoch: int) -> None:
        """Each run's features and targets in its batch order for
        ``epoch``, the epoch's fresh noise draw added into the features."""
        self.feats, self.targets = self.in_epoch_order(12, epoch, self.feats_clean, self.x)
        self.add_noise(self.feats, self.draw_noise(11, epoch), out=self.feats)

    def step(self, rows: slice) -> None:
        """One batch for every run, the ``rows`` of each run's epoch
        order."""
        target = self.targets[:, rows]
        pred = self.attacker.forward(self.feats[:, rows])
        n, d = target.shape[1:]
        # The gradient of the per-dimension reconstruction MSE,
        # (2 * (pred - target)) / (n * d).
        grad = self.attacker.out_grad()
        np.subtract(pred, target, out=grad)
        grad *= 2.0
        grad /= n * d
        self.attacker.backward()
        self.attacker.step(self.step_lr, self.step_momentum)


# Fresh noise draws per reconstruction_mse.
_EVAL_DRAWS = 8


def reconstruction_mse(
    attacker: NeuralModule,
    encoder: NeuralModule,
    noise: NoiseModel,
    inputs: np.ndarray,
    seed: int,
) -> float:
    """Per-dimension MSE of the attacker, averaged over fresh noise draws."""
    feats_clean = predict(encoder, inputs)
    total = 0.0
    for draw in range(_EVAL_DRAWS):
        feats = noise_inject(feats_clean, noise, derived_seed(seed, 30, draw))
        diff = predict(attacker, feats) - inputs
        total += float(np.mean(diff * diff))
    return total / _EVAL_DRAWS


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

