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

:func:`train_many` runs several same-shaped runs as one computation, a
:class:`~cemlab.network.RunStack` with every array carrying a leading run
axis; :func:`train` is one run of it. Each run keeps its own random streams
and gets the bits it gets alone. A stack either finishes or raises; one
that raises is trained again run by run, so that each run's entry is its
solo result or error. The refit encodes with
:func:`~cemlab.network.predict`, a batch with the stack's ``StackedNet``.

Random streams: each run draws its noise and batch order from generators
``seeded_rng(seed, tag, epoch)`` (:meth:`RunStack.rngs`), one per (run,
tag, epoch): tag 3 is the refit's noise, tag 5 the batch order and tag 6
the batch noise. The batch noise is drawn once per epoch as std times
(n_train, d_z) standard normals, row ``i`` belonging to the epoch's
``i``-th batch row, and each batch takes its slice; since a generator
fills in order, that is the stream one generator per (run, epoch) gives
batch by batch. A noise-free run draws nothing and its features pass
through untouched. The models' initial weights come from
``derived_seed(seed, 1)`` and ``(seed, 2)``, and the first refit's
k-means++ seeding from ``derived_seed(seed, 4, 0)``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import NoiseModel, cem_step
from .data import Dataset
from .errors import CemError, LabelOutOfRange, NonFinite, NonPositiveDefinite
from .mixture import MixtureState, assign_nearest, fit_init_many
from .network import (
    NeuralModule,
    RunStack,
    StackedNet,
    _softmax_xent,
    init_looks_linear,
    init_network,
    noise_inject,
    predict,
    stacked_or_alone,
)
from .numerics import _row_starts, derived_seed


@dataclass
class TrainingConfig:
    lam: float = 16.0           # weight on the entropy penalty
    noise_std: float = 0.025
    k: int | None = None        # mixture components; defaults to 3 * n_classes
    epochs: int = 30
    batch_size: int = 64
    lr: float = 0.05            # halved every max(1, epochs // 3) epochs
    momentum: float = 0.0
    seed: int = 0
    d_z: int = 8
    hidden: int = 32
    feature_scale: float = 2.0   # encoder init scale per layer
    gmm_iters: int = 10

    def __post_init__(self):
        # Written so that NaN fails too.
        if not (0 <= self.lam < np.inf and 0 <= self.noise_std < np.inf):
            raise ValueError("lam and noise_std must be finite and nonnegative")
        if not 0 <= self.lr < np.inf:
            raise ValueError("lr must be finite and nonnegative")
        if not -np.inf < self.momentum < np.inf:
            raise ValueError("momentum must be finite")
        if self.epochs < 0 or self.gmm_iters < 0:
            raise ValueError("epochs and gmm_iters must be nonnegative")
        if self.batch_size < 1 or (self.k is not None and self.k < 1):
            raise ValueError("batch_size and k must be at least 1")
        # The looks-linear encoder pairs its hidden units, so this also
        # needs an even hidden >= 2.
        if self.hidden % 2 or not 1 <= self.d_z <= self.hidden // 2:
            raise ValueError(
                f"need an even hidden and 1 <= d_z <= hidden // 2, got "
                f"d_z={self.d_z}, hidden={self.hidden}"
            )
        if not 0 < self.feature_scale < np.inf:
            raise ValueError("feature_scale must be finite and positive")
        if self.lam > 0 and self.noise_std == 0:
            raise ValueError("a positive entropy-penalty weight needs noise_std > 0")

    def resolved_k(self, n_classes: int) -> int:
        k = self.k if self.k is not None else 3 * n_classes
        if k < n_classes:
            warnings.warn(
                f"k={k} below the class count {n_classes}; the mixture cannot "
                "give each class its own component",
                stacklevel=2,
            )
        return k

    def lr_at(self, epoch: int) -> float:
        return self.lr * 0.5 ** (epoch // max(1, self.epochs // 3))


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
    mixture: MixtureState
    history: list[LossBreakdown] = field(default_factory=list)


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

    This is the stack of :func:`train_many` on one run.
    """
    return _train_stack([cfg], [data])[0]


def train_many(
    cfgs: list[TrainingConfig], datasets: list[Dataset]
) -> list[TrainResult | CemError]:
    """Train several runs as one stacked computation, in the order given.

    The runs must share their shapes: the input width, ``hidden``, ``d_z``,
    the class count and ``k``, ``batch_size``, ``epochs`` and the size of
    the training split. Seeds, ``lam``, noise, learning rate, momentum and
    data may differ. Every run gets the bits :func:`train` gives it alone.
    If a run fails (it diverges, or its features cannot be fitted), every
    run is trained alone (:func:`~cemlab.network.stacked_or_alone`): a
    failed run's entry is the error :func:`train` raises for it.
    """
    return stacked_or_alone(_train_stack, cfgs, datasets)


def _train_stack(cfgs: list[TrainingConfig], datasets: list[Dataset]) -> list[TrainResult]:
    """The runs of :func:`train_many` as one stack, which raises if any run
    fails."""
    stack = _Stack(cfgs, datasets)
    histories = [[] for _ in cfgs]
    epochs = cfgs[0].epochs
    starts = range(0, stack.n_train, stack.batch_size)
    # A diverging run overflows on its way to the finite checks, which
    # report it; NumPy's warnings would only repeat them.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(max(epochs, 1)):
            # Features whose squares overflow the covariance are a
            # divergence, not a data defect.
            try:
                stack.refit(epoch)
                if epochs == 0:
                    break
                stack.start_epoch(epoch)
                for start in starts:
                    stack.step(start)
            except (NonFinite, NonPositiveDefinite) as exc:
                raise NonFinite(f"training diverged at epoch {epoch}: {exc}") from exc
            for history, cfg, run_sums in zip(histories, cfgs, stack.sums):
                l_d_mean, l_c_mean, acc_mean = run_sums / len(starts)
                history.append(
                    LossBreakdown(
                        epoch=epoch,
                        l_d=float(l_d_mean),
                        l_c=float(l_c_mean),
                        total=float(l_d_mean + cfg.lam * l_c_mean),
                        accuracy=float(acc_mean),
                    )
                )
    return [
        TrainResult(
            stack.encoder.take(r), stack.decoder.take(r),
            stack.state.take(r), history,
        )
        for r, history in enumerate(histories)
    ]


class _Stack(RunStack):
    """The runs of a :func:`train_many` call (see :class:`RunStack`). What
    depends only on the runs, the label check and which parts of a step
    run, is settled once, not in every step."""

    def __init__(self, cfgs: list[TrainingConfig], datasets: list[Dataset]):
        if not cfgs or len(cfgs) != len(datasets):
            raise ValueError("train_many needs one dataset per config")
        splits = [data.train_arrays() for data in datasets]
        x0 = splits[0][0]
        n_train = x0.shape[0]
        if n_train == 0:
            raise ValueError("training split is empty")
        self.batch_size = cfgs[0].batch_size
        if self.batch_size > n_train:
            raise ValueError(
                f"batch_size {self.batch_size} exceeds training set size {n_train}"
            )
        shapes = [
            (x.shape, data.n_classes, cfg.resolved_k(data.n_classes), cfg.hidden,
             cfg.d_z, cfg.batch_size, cfg.epochs)
            for cfg, data, (x, _) in zip(cfgs, datasets, splits)
        ]
        noises = [NoiseModel(std=cfg.noise_std, dim=cfg.d_z) for cfg in cfgs]
        super().__init__(cfgs, noises, shapes, n_train, cfgs[0].d_z)
        n_classes = datasets[0].n_classes
        self.k = shapes[0][2]
        models = [build_models(cfg, x0.shape[1], n_classes) for cfg in cfgs]
        self.encoder = StackedNet([enc for enc, _ in models], self.batch_size)
        self.decoder = StackedNet([dec for _, dec in models], self.batch_size)
        self.state = None

        self.x = np.stack([x for x, _ in splits])
        self.y = np.stack([y for _, y in splits])
        self.labels_ok = not ((self.y < 0) | (self.y >= n_classes)).any()
        lam = np.array([cfg.lam for cfg in cfgs])
        self.lam = lam[:, None, None]
        self.lam_on = lam > 0
        std = np.array([noise.std for noise in noises])
        self.noise_var = (std**2)[:, None, None]
        # A noise-free run's penalty is computed with a stand-in 0 and
        # discarded.
        self.noise_logdet = np.array([
            [noise.logdet() if noise.std > 0 else 0.0] for noise in noises
        ])
        # Noisy features carry at least the injected variance in every
        # direction; ridging the cluster covariances at that scale keeps
        # singleton clusters from producing near-zero denominators in the
        # penalty gradient.
        self.ridge = np.maximum(1e-6, std**2)
        # per epoch
        self.x_epoch = self.y_epoch = self.noise_epoch = self.sums = None
        self.any_lam, self.all_lam = bool(self.lam_on.any()), bool(self.lam_on.all())

    def refit(self, epoch: int) -> None:
        """Re-encode the training split with fresh noise and refit every
        run's mixture, warm-started from its current means."""
        feats = predict(self.encoder.module(), self.x)
        if not np.isfinite(feats).all():
            raise NonFinite("non-finite features")
        noisy = self.add_noise(feats, self.draw_noise(self.rngs(3, epoch, self.noisy)))
        # Seeds are drawn only for the first fit; later fits warm-start.
        seeds = None if self.state is not None else [
            derived_seed(cfg.seed, 4, epoch) for cfg in self.cfgs
        ]
        self.state = fit_init_many(
            noisy, self.k, seeds, [cfg.gmm_iters for cfg in self.cfgs],
            init_means=None if self.state is None else self.state.means,
            ridges=self.ridge,
        )

    def start_epoch(self, epoch: int) -> None:
        """The epoch's learning rates, and each run's training split and
        batch noise in its batch order for the epoch, so that a batch is a
        slice."""
        self.set_rates(
            [cfg.lr_at(epoch) for cfg in self.cfgs], [cfg.momentum for cfg in self.cfgs]
        )
        self.x_epoch, self.y_epoch = self.in_epoch_order(5, epoch, self.x, self.y)
        self.noise_epoch = self.draw_noise(self.rngs(6, epoch, self.noisy))
        self.sums = np.zeros((len(self.cfgs), 3))  # l_d, l_c, accuracy

    def step(self, start: int) -> None:
        """One batch for every run, from ``start`` in each run's epoch
        order."""
        batch_rows = slice(start, start + self.batch_size)
        xb, yb = self.x_epoch[:, batch_rows], self.y_epoch[:, batch_rows]
        z_hat = self.encoder.forward(xb)
        zb = self.add_noise(z_hat, self.noise_epoch[:, batch_rows])
        logits = self.decoder.forward(zb)

        assign = assign_nearest(zb, self.state.means)
        self.state, l_c, penalty_grad = cem_step(
            self.state, assign, zb, self.noise_var, self.noise_logdet
        )
        if not self.all_noisy:
            l_c = np.where(self.noisy, l_c, 0.0)

        # task_loss, its label check settled (a stack's short last batch is
        # a strided view; the kernel needs C order).
        if not self.labels_ok:
            raise LabelOutOfRange(f"labels must lie in [0, {self.decoder.out_dim})")
        z = np.ascontiguousarray(logits)
        l_d, grad_logits = _softmax_xent(z, _row_starts(z.shape) + yb)
        np.copyto(self.decoder.out_grad(), grad_logits)
        g_z = self.decoder.backward(input_grad=True)
        g = self.encoder.out_grad()
        if self.all_lam:
            penalty_grad *= self.lam   # the step's own array
            np.add(g_z, penalty_grad, out=g)
        else:
            np.copyto(g, g_z)
            if self.any_lam:
                np.add(g, self.lam * penalty_grad, out=g, where=self.lam_on[:, None, None])
        self.encoder.backward()
        self.encoder.step(self.step_lr, self.step_momentum)
        self.decoder.step(self.step_lr, self.step_momentum)

        acc = np.add.reduce(z.argmax(axis=-1) == yb, axis=-1) / yb.shape[1]
        self.sums[:, 0] += l_d
        self.sums[:, 1] += l_c
        self.sums[:, 2] += acc


def evaluate_utility(
    encoder: NeuralModule,
    decoder: NeuralModule,
    data: Dataset,
    noise: NoiseModel,
    seed: int,
    split: str = "test",
) -> float:
    """Mean top-1 accuracy under inference-time corruption by ``noise``;
    a zero-std ``noise`` evaluates the clean features."""
    x, y = data.test_arrays() if split == "test" else data.train_arrays()
    feats = noise_inject(predict(encoder, x), noise, seed)
    logits = predict(decoder, feats)
    return float(np.mean(np.argmax(logits, axis=1) == y))
