"""Minimal dense feed-forward machinery with explicit reverse-mode
gradients: forward tape, backward pass, momentum SGD, softmax
cross-entropy, and the additive noise layer with identity pass-through.

A module is its layers and nothing else: the momentum velocity is
training state, held by :class:`StackedNet` for the life of a training
call, or passed in and out of :func:`sgd_step` explicitly. Checkpoints
hold the layers only.

Everything is float64; batches are (N, d) row matrices. A stack of R
same-shaped modules (:meth:`NeuralModule.stack`) holds (R, out, in)
weights and (R, 1, out) biases and runs on (R, N, d) batches: every
function here but :func:`noise_inject` takes either form, and each run of
a stack gets the bits it would get alone, because a stacked matrix product
multiplies each run's matrices as the unstacked product does.

The package runs :class:`StackedNet` and :func:`predict`, which share one
layer routine; the tape chain (:func:`forward`, :func:`backward`,
:func:`sgd_step`) is the reference they match bit for bit, called only by
tests and the benchmark's tracer.

:class:`StackedNet` trains such a stack in place, with the bits of
:func:`forward`, :func:`backward` and :func:`sgd_step`. Its buffers are
allocated once:

- one (R, P) parameter buffer, with every layer's weights and bias as
  views into it, and one (R, P) gradient buffer laid out alike;
- one (R, P) velocity array, which starts at zero and which only a step
  with momentum reads or writes;
- per layer, (R, rows, width) buffers for the layer's output and for the
  gradient at it; a batch of fewer rows uses row-prefix views of them.

The views a batch reads (each layer's output, gradient and scratch views,
its weights' transpose and its gradient views) are built once per row
count: a training stack sees at most two (a full batch and a short last
one), so a batch does only arithmetic.

A step is ``forward``, then ``backward`` from the gradient the caller
writes into ``out_grad()``, then ``step``, which updates the parameters
in place and raises if one is not finite. What ``forward``, ``out_grad``
and ``backward`` return are views into the buffers, which the next step
overwrites.

:class:`RunStack` is what the trainer's and the attacker's stacks share:
the epoch loop (:meth:`RunStack.run`, under one ``np.errstate``, which
names the epoch a run diverged in), batch order, noise and rates. Both
draw a run's noise and batch order for an epoch from
``seeded_rng(seed, tag, epoch)`` (:meth:`RunStack.rngs`), one generator
per (run, tag, epoch). An epoch's inputs are built with one flat ``take``
per array, and its noise is drawn into one buffer and scaled there. A
stack either finishes or raises; :func:`stacked_or_alone` then trains
each of its runs alone, so that a run that fails costs the others nothing
but time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    CemError,
    LabelOutOfRange,
    NonFinite,
    NonPositiveDefinite,
    ParseError,
    ShapeMismatch,
    StaleTape,
)
from .files import write_atomic
from .numerics import _row_starts, logsumexp_rows, seeded_rng

ACTIVATIONS = ("relu", "identity", "sigmoid")


@dataclass
class Layer:
    weights: np.ndarray   # (out, in)
    bias: np.ndarray      # (out,)
    activation: str

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")


@dataclass
class NeuralModule:
    layers: list[Layer]

    def __post_init__(self):
        for a, b in zip(self.layers[:-1], self.layers[1:]):
            if b.weights.shape[-1] != a.weights.shape[-2]:
                raise ShapeMismatch(
                    f"layer dims do not chain: {a.weights.shape} -> {b.weights.shape}"
                )

    @staticmethod
    def stack(modules: list["NeuralModule"]) -> "NeuralModule":
        """One module holding same-shaped ``modules`` along a leading run
        axis."""
        return NeuralModule(layers=[
            Layer(
                weights=np.stack([m.layers[i].weights for m in modules]),
                bias=np.stack([m.layers[i].bias for m in modules])[:, None, :],
                activation=layer.activation,
            )
            for i, layer in enumerate(modules[0].layers)
        ])

    @property
    def in_dim(self) -> int:
        return self.layers[0].weights.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weights.shape[-2]


@dataclass
class TapePass:
    """Per-layer cached values for one forward pass; consumed exactly once."""

    module_id: int
    inputs: np.ndarray
    pre_acts: list[np.ndarray]
    post_acts: list[np.ndarray]
    consumed: bool = False


def init_network(dims: list[int], activations: list[str], seed: int) -> NeuralModule:
    """Seeded He/Xavier-style initialization; biases start at zero."""
    if len(activations) != len(dims) - 1:
        raise ShapeMismatch("need one activation per layer")
    rng = seeded_rng(seed, 0x4E)
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        scale = np.sqrt(2.0 / fan_in) if act == "relu" else np.sqrt(1.0 / fan_in)
        layers.append(
            Layer(
                weights=rng.standard_normal((fan_out, fan_in)) * scale,
                bias=np.zeros(fan_out),
                activation=act,
            )
        )
    return NeuralModule(layers=layers)


def _cropped_orthogonal(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    n = max(rows, cols)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q[:rows, :cols]


def init_looks_linear(
    d_in: int, hidden: int, d_z: int, seed: int, scale: float = 2.0
) -> NeuralModule:
    """Mirrored-orthogonal ("looks-linear") init for a relu bottleneck
    encoder: hidden rows come in (+R, -R) pairs and the output layer
    recombines them as (P, -P), so at initialization the module computes
    the exact linear map scale^2 * P @ R.

    Starting from a distance-preserving map keeps the feature geometry of
    the inputs, which the entropy penalty needs: its pull toward cluster
    means only respects class structure if the initial clusters do.

    The pairing needs an even ``hidden`` and ``d_z <= hidden // 2``, which
    :class:`~cemlab.trainer.TrainingConfig` guarantees.
    """
    half = hidden // 2
    rng = seeded_rng(seed, 0x11)
    r = _cropped_orthogonal(half, d_in, rng)
    p = _cropped_orthogonal(d_z, half, rng)
    layers = [
        Layer(weights=scale * np.vstack([r, -r]), bias=np.zeros(2 * half),
              activation="relu"),
        Layer(weights=scale * np.hstack([p, -p]), bias=np.zeros(d_z),
              activation="identity"),
    ]
    return NeuralModule(layers=layers)


def _apply_activation(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "identity":
        return z
    if kind == "sigmoid":
        return 1.0 / (1.0 + np.exp(-z))
    raise ValueError(f"unknown activation {kind!r}")


def _activation_backward(
    grad_out: np.ndarray, pre: np.ndarray, post: np.ndarray, kind: str
) -> np.ndarray:
    if kind == "relu":
        return grad_out * (pre > 0)
    if kind == "identity":
        return grad_out
    if kind == "sigmoid":
        return grad_out * post * (1.0 - post)
    raise ValueError(f"unknown activation {kind!r}")


def forward(m: NeuralModule, batch: np.ndarray) -> tuple[np.ndarray, TapePass]:
    """Run the module on a batch, caching everything backward needs."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[-1] != m.in_dim:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != module in_dim {m.in_dim}")
    pre_acts, post_acts = [], []
    a = x
    for layer in m.layers:
        z = a @ layer.weights.swapaxes(-1, -2) + layer.bias
        a = _apply_activation(z, layer.activation)
        pre_acts.append(z)
        post_acts.append(a)
    tape = TapePass(module_id=id(m), inputs=x, pre_acts=pre_acts, post_acts=post_acts)
    return a, tape


def _layer_forward(a, weights_t, bias, activation, out=None) -> np.ndarray:
    """One layer on ``a`` with the bits of :func:`forward`, given the
    weights' transpose ``weights_t``: the product (into ``out``, if given),
    the bias and the activation, in place."""
    out = np.matmul(a, weights_t, out=out)
    out += bias
    if activation == "relu":
        np.maximum(out, 0.0, out=out)
    elif activation == "sigmoid":
        # 1 / (1 + exp(-z)), one operation at a time.
        np.negative(out, out=out)
        np.exp(out, out=out)
        out += 1.0
        np.divide(1.0, out, out=out)
    return out


def predict(m: NeuralModule, batch: np.ndarray) -> np.ndarray:
    """The module's output on a batch, with the bits of :func:`forward` but
    no tape: each layer's activation works in place on its own product, so
    at most two layer outputs are alive at once."""
    x = np.atleast_2d(np.asarray(batch, dtype=np.float64))
    if x.shape[-1] != m.in_dim:
        raise ShapeMismatch(f"input dim {x.shape[-1]} != module in_dim {m.in_dim}")
    a = x
    for layer in m.layers:
        a = _layer_forward(a, layer.weights.swapaxes(-1, -2), layer.bias, layer.activation)
    return a


def noise_inject(feats: np.ndarray, noise, seed: int) -> np.ndarray:
    """One run's ``feats`` plus i.i.d. zero-mean Gaussian noise of variance
    std^2 per entry, from ``seeded_rng(seed, 0xE9)``; a copy of ``feats``
    if std is 0. A stack's noise is :meth:`RunStack.draw_noise`.

    Gradient contract: identity pass-through. The noise is independent of
    the features, so the upstream gradient flows through unchanged; callers
    simply reuse the gradient at the noisy output for the clean features.
    """
    x = np.asarray(feats, dtype=np.float64)
    if noise.std == 0:
        return x.copy()
    rng = seeded_rng(seed, 0xE9)
    return x + noise.std * rng.standard_normal(x.shape)


def backward(
    m: NeuralModule, tape: TapePass, out_grad: np.ndarray, input_grad: bool = True
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray | None]:
    """Reverse-mode pass: returns ([(dW, db), ...], input gradient). With
    ``input_grad=False`` the input gradient is not computed and is None."""
    if tape.consumed:
        raise StaleTape("tape was already consumed by a backward pass")
    if tape.module_id != id(m):
        raise StaleTape("tape does not belong to this module")
    g = np.atleast_2d(np.asarray(out_grad, dtype=np.float64))
    if g.shape != tape.post_acts[-1].shape:
        raise ShapeMismatch(
            f"out_grad shape {g.shape} != output shape {tape.post_acts[-1].shape}"
        )
    tape.consumed = True
    stacked = g.ndim == 3
    param_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(m.layers)
    for i in range(len(m.layers) - 1, -1, -1):
        layer = m.layers[i]
        dz = _activation_backward(g, tape.pre_acts[i], tape.post_acts[i],
                                  layer.activation)
        a_prev = tape.inputs if i == 0 else tape.post_acts[i - 1]
        param_grads[i] = (
            dz.swapaxes(-1, -2) @ a_prev, dz.sum(axis=-2, keepdims=stacked)
        )
        g = dz @ layer.weights if i > 0 or input_grad else None
    return param_grads, g


def sgd_step(
    m: NeuralModule,
    grads: list[tuple[np.ndarray, np.ndarray]],
    lr: float,
    momentum: float = 0.0,
    velocity: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> tuple[NeuralModule, list[tuple[np.ndarray, np.ndarray]]]:
    """Classic momentum update from ``velocity``, one (vel_w, vel_b) pair
    per layer (None: zeros); returns the new module and the updated
    velocity, which at zero momentum is the gradient itself. Raises if any
    updated parameter is not finite.

    On a stacked module ``lr`` and ``momentum`` may be (R, 1, 1) arrays
    with one value per run."""
    if (lr < 0).any() if isinstance(lr, np.ndarray) else lr < 0:
        raise ValueError("learning rate must be nonnegative")
    if velocity is None:
        velocity = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in m.layers]
    still = not momentum.any() if isinstance(momentum, np.ndarray) else momentum == 0
    layers, new_velocity = [], []
    for layer, (vw, vb), (gw, gb) in zip(m.layers, velocity, grads):
        if still:
            new_vw, new_vb = gw, gb
        else:
            new_vw = momentum * vw + gw
            new_vb = momentum * vb + gb
        w = layer.weights - lr * new_vw
        b = layer.bias - lr * new_vb
        # A finite sum means every entry is finite; finite entries whose sum
        # overflows get the entrywise test.
        if not np.isfinite(w.sum() + b.sum()) and not (
            np.isfinite(w).all() and np.isfinite(b).all()
        ):
            raise NonFinite(_NON_FINITE_UPDATE)
        layers.append(Layer(weights=w, bias=b, activation=layer.activation))
        new_velocity.append((new_vw, new_vb))
    return NeuralModule(layers=layers), new_velocity


_NON_FINITE_UPDATE = "parameter update produced a non-finite value"


class _Flat:
    """An (R, P) buffer with each layer's (R, out, in) weights and (R, 1, out)
    bias as views into it, laid out layer by layer."""

    def __init__(self, data: np.ndarray, shapes: list[tuple[int, int]]):
        self.data = data
        self.views = []
        n_runs, at = data.shape[0], 0
        for out, fan_in in shapes:
            w = data[:, at:at + out * fan_in].reshape(n_runs, out, fan_in)
            at += out * fan_in
            self.views.append((w, data[:, at:at + out].reshape(n_runs, 1, out)))
            at += out


class StackedNet:
    """A stack of same-shaped modules, trained in place on batches of at
    most ``rows`` rows from zero velocity (see the module docstring)."""

    def __init__(self, modules: list[NeuralModule], rows: int):
        stacked = NeuralModule.stack(modules)
        self.activations = [l.activation for l in stacked.layers]
        self.shapes = [l.weights.shape[1:] for l in stacked.layers]
        n_runs = len(modules)
        self._params = _Flat(np.concatenate([
            a.reshape(n_runs, -1) for l in stacked.layers for a in (l.weights, l.bias)
        ], axis=1), self.shapes)
        self._param_vector = self._params.data.reshape(-1)
        self._ones = np.ones_like(self._param_vector)
        self._velocity = np.zeros_like(self._params.data)
        self._grad = _Flat(np.empty_like(self._params.data), self.shapes)
        widths = [out for out, _ in self.shapes]
        self._outs = [np.empty((n_runs, rows, w)) for w in widths]
        self._out_grads = [np.empty((n_runs, rows, w)) for w in widths]
        self._in_grad = np.empty((n_runs, rows, self.in_dim))
        # A relu layer's mask, a sigmoid layer's 1 - post.
        scratch_dtype = {"relu": bool, "sigmoid": np.float64}
        self._scratch = [
            np.empty((n_runs, rows, w), dtype=scratch_dtype[act])
            if act in scratch_dtype else None
            for w, act in zip(widths, self.activations)
        ]
        # Row count -> the views a batch reads.
        self._views = {}
        self._inputs = self._batch = None

    @property
    def in_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def out_dim(self) -> int:
        return self.shapes[-1][0]

    def module(self) -> NeuralModule:
        """The current parameters as a stacked module of views into the
        parameter buffer, which the next step overwrites."""
        return NeuralModule(layers=[
            Layer(weights=w, bias=b, activation=act)
            for (w, b), act in zip(self._params.views, self.activations)
        ])

    def take(self, run: int) -> NeuralModule:
        """A copy of one run's module."""
        return NeuralModule(layers=[
            Layer(weights=w[run].copy(), bias=b[run, 0].copy(), activation=act)
            for (w, b), act in zip(self._params.views, self.activations)
        ])

    def _views_for(self, n: int) -> tuple:
        """The views a batch of ``n`` rows reads, built on its first use:
        per layer, :meth:`forward`'s (transposed weights, bias, activation,
        output); the loss gradient at the last output; and per layer from
        the last, :meth:`backward`'s (activation, gradient at the output and
        its transpose, output, scratch, input (None: the batch), weight and
        bias gradient, weights, gradient at the input)."""
        views = self._views.get(n)
        if views is None:
            forward, backward = [], []
            a, g_in = None, self._in_grad[:, :n]
            for act, (w, b), (gw, gb), out, g, scratch in zip(
                self.activations, self._params.views, self._grad.views,
                self._outs, self._out_grads, self._scratch,
            ):
                out, g = out[:, :n], g[:, :n]
                forward.append((w.swapaxes(-1, -2), b, act, out))
                backward.append((
                    act, g, g.swapaxes(-1, -2), out,
                    None if scratch is None else scratch[:, :n],
                    a, gw, gb, w, g_in,
                ))
                a, g_in = out, g
            views = self._views[n] = (tuple(forward), g, tuple(reversed(backward)))
        return views

    def forward(self, batch: np.ndarray) -> np.ndarray:
        """The output on an (R, n, in_dim) batch of n <= ``rows`` rows, with
        the bits of :func:`forward`. ``batch`` must stay unchanged until
        :meth:`backward`."""
        self._inputs = a = batch
        self._batch = self._views_for(batch.shape[1])
        for w_t, b, act, out in self._batch[0]:
            a = _layer_forward(a, w_t, b, act, out)
        return a

    def out_grad(self) -> np.ndarray:
        """The buffer for the loss gradient at the last forward's output,
        which the caller fills before :meth:`backward`."""
        return self._batch[1]

    def backward(self, input_grad: bool = False) -> np.ndarray | None:
        """Back-propagate ``out_grad()`` into the gradient buffer, with the
        bits of :func:`backward`; the gradient at the input if
        ``input_grad``, else None."""
        for act, g, g_t, post, scratch, a_prev, gw, gb, w, g_in in self._batch[2]:
            if act == "relu":
                # post > 0 is pre > 0 for relu, NaN included.
                np.greater(post, 0.0, out=scratch)
                np.multiply(g, scratch, out=g)
            elif act == "sigmoid":
                np.subtract(1.0, post, out=scratch)
                np.multiply(g, post, out=g)
                np.multiply(g, scratch, out=g)
            np.matmul(g_t, self._inputs if a_prev is None else a_prev, out=gw)
            # np.sum's reduction, without its Python-level wrapper.
            np.add.reduce(g, axis=-2, keepdims=True, out=gb)
            if a_prev is not None or input_grad:
                np.matmul(g, w, out=g_in)
        return g_in if input_grad else None

    def step(self, lr, momentum) -> None:
        """The step of :func:`sgd_step` from the last backward's gradient,
        in place; ``lr`` and ``momentum`` are floats or (R, 1) arrays with
        one value per run. Raises if an updated parameter is not finite."""
        if (lr < 0).any() if isinstance(lr, np.ndarray) else lr < 0:
            raise ValueError("learning rate must be nonnegative")
        # The velocity is the gradient itself at zero momentum; either way
        # the gradient buffer then takes lr times the velocity.
        delta, params = self._grad.data, self._params.data
        if not momentum.any() if isinstance(momentum, np.ndarray) else momentum == 0:
            np.multiply(lr, delta, out=delta)
        else:
            np.multiply(momentum, self._velocity, out=self._velocity)
            self._velocity += delta
            np.multiply(lr, self._velocity, out=delta)
        np.subtract(params, delta, out=params)
        # A finite sum means every entry is finite; finite entries whose sum
        # overflows get the entrywise test. The sum is a dot product with
        # ones, which costs less than np.add.reduce's pairwise sum.
        if not (math.isfinite(np.dot(self._param_vector, self._ones))
                or np.isfinite(params).all()):
            raise NonFinite(_NON_FINITE_UPDATE)


class RunStack:
    """The runs of a stacked training call, along a leading run axis. The
    runs' ``shapes`` must be equal. :meth:`run` is the epoch loop; a
    subclass gives :meth:`start_epoch` and :meth:`step`, may give
    :meth:`refit` and :meth:`end_epoch`, and sets ``diverging``."""

    # What a divergence's text says diverged.
    diverging = ""

    def __init__(self, cfgs: list, noises: list, shapes: list, n_train: int,
                 width: int, batch_size: int):
        if any(shape != shapes[0] for shape in shapes):
            raise ValueError("the runs of a stack must share their shapes")
        self.cfgs = list(cfgs)
        self.noises = list(noises)
        self.noisy = np.array([noise.std > 0 for noise in noises])
        self.all_noisy = bool(self.noisy.all())
        self.n_train, self.width, self.batch_size = n_train, width, batch_size
        # Each epoch's noise draws, (R, n_train, width); a noise-free run's
        # rows stay zero.
        self.noise = np.zeros((len(cfgs), n_train, width))
        self._run_starts = np.arange(len(cfgs))[:, None] * n_train

    def run(self, epochs: int) -> None:
        """Train every run for ``epochs`` epochs: each epoch, :meth:`refit`,
        :meth:`start_epoch`, :meth:`step` for each batch's rows and
        :meth:`end_epoch`; at 0 epochs, one :meth:`refit` alone. A
        ``NonFinite`` or ``NonPositiveDefinite`` error is raised again as
        ``NonFinite("<diverging> diverged at epoch <epoch>: ...")``."""
        batches = [
            slice(start, start + self.batch_size)
            for start in range(0, self.n_train, self.batch_size)
        ]
        # A diverging run overflows on its way to the finite checks, which
        # report it; NumPy's warnings would only repeat them.
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(max(epochs, 1)):
                # Features whose squares overflow a covariance are a
                # divergence, not a data defect.
                try:
                    self.refit(epoch)
                    if epochs == 0:
                        return
                    self.start_epoch(epoch)
                    for rows in batches:
                        self.step(rows)
                except (NonFinite, NonPositiveDefinite) as exc:
                    raise NonFinite(
                        f"{self.diverging} diverged at epoch {epoch}: {exc}"
                    ) from exc
                self.end_epoch(epoch, len(batches))

    def refit(self, epoch: int) -> None:
        """What comes before ``epoch``'s inputs; nothing here."""

    def end_epoch(self, epoch: int, n_batches: int) -> None:
        """What comes after ``epoch``'s ``n_batches`` steps; nothing here."""

    def set_rates(self, lr, momentum) -> None:
        """Each run's lr and momentum as ``step_lr``/``step_momentum``, what
        a step passes to :meth:`StackedNet.step`: one float where every run
        shares the value (same bits, less cost), else an (R, 1) array."""
        self.step_lr, self.step_momentum = (
            float(v[0, 0]) if (v == v[0]).all() else v
            for v in (np.asarray(x, dtype=np.float64).reshape(-1, 1) for x in (lr, momentum))
        )

    def rngs(self, tag: int, epoch: int, where=None) -> list:
        """``seeded_rng(seed, tag, epoch)`` for each run, or for each one
        that the boolean array ``where`` selects."""
        cfgs = self.cfgs if where is None else compress(self.cfgs, where)
        return [seeded_rng(cfg.seed, tag, epoch) for cfg in cfgs]

    def in_epoch_order(self, tag: int, epoch: int, *arrays) -> list[np.ndarray]:
        """Copies of the C-ordered (R, n_train, ...) ``arrays`` with each
        run's rows in its order for ``epoch``,
        ``seeded_rng(seed, tag, epoch).permutation``, so that a batch is a
        slice: one flat ``take`` over the runs' rows each."""
        order = np.stack([rng.permutation(self.n_train) for rng in self.rngs(tag, epoch)])
        order += self._run_starts
        flat = order.reshape(-1)
        return [a.reshape(-1, *a.shape[2:]).take(flat, axis=0).reshape(a.shape)
                for a in arrays]

    def draw_noise(self, tag: int, epoch: int) -> np.ndarray:
        """The ``noise`` buffer, each noisy run's rows refilled with its std
        times (n_train, width) standard normals from
        ``seeded_rng(seed, tag, epoch)`` (scaled in place: the products
        commute, so the bits are std * normals). A noise-free run draws
        nothing."""
        for r, rng in zip(np.flatnonzero(self.noisy), self.rngs(tag, epoch, self.noisy)):
            rng.standard_normal(out=self.noise[r])
            self.noise[r] *= self.noises[r].std
        return self.noise

    def add_noise(self, feats: np.ndarray, noise: np.ndarray, out=None) -> np.ndarray:
        """``feats + noise``, into ``out`` (``feats`` itself, say) or a new
        array, where a noise-free run's rows are its features untouched (no
        ``+ 0.0``, which would turn -0.0 into 0.0)."""
        if self.all_noisy:
            return np.add(feats, noise, out=out)
        if out is None:
            out = feats.copy()
        return np.add(feats, noise, out=out, where=self.noisy[:, None, None])


def stacked_or_alone(train_stack, *runs) -> list:
    """``train_stack(*runs)``, the outcome of each run of a stack, where
    ``runs`` are parallel per-run lists. If the stack raises a
    :class:`~cemlab.errors.CemError`, each run is trained alone, and a run
    that fails alone gets its own error as its entry. A stack gives each
    run the bits it gets alone, so every entry is that run's solo outcome.
    """
    try:
        return train_stack(*runs)
    except CemError:
        pass
    outcomes = []
    for run in zip(*runs):
        try:
            outcomes += train_stack(*([arg] for arg in run))
        except CemError as exc:
            outcomes.append(exc)
    return outcomes


def task_loss(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy in nats plus its gradient w.r.t. logits.

    For a stack of runs (logits (R, N, C), labels (R, N)) the loss is an
    (R,) array."""
    # C order, so that flat indices address the rows' entries.
    z = np.atleast_2d(np.ascontiguousarray(logits, dtype=np.float64))
    stacked = z.ndim == 3
    y = np.asarray(labels, dtype=np.int64)
    n, n_classes = z.shape[-2:]
    if stacked:
        if y.shape != z.shape[:2]:
            raise ShapeMismatch(f"labels of shape {y.shape} for logits {z.shape}")
    else:
        y = y.reshape(-1)
        if y.size != n:
            raise ShapeMismatch(f"{y.size} labels for {n} rows of logits")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise LabelOutOfRange(f"labels must lie in [0, {n_classes})")
    loss, probs = _softmax_xent(z, _row_starts(z.shape) + y)
    return (loss if stacked else float(loss)), probs


def _softmax_xent(z: np.ndarray, picks: np.ndarray):
    """:func:`task_loss` unchecked, for C-ordered float64 logits ``z`` and
    each row's label's flat index ``picks`` (:func:`_row_starts` plus the
    labels); the gradient is a new array."""
    n = z.shape[-2]
    log_z = logsumexp_rows(z)
    # np.mean's own sum and division, without its Python-level wrapper.
    loss = np.add.reduce(log_z - z.take(picks), axis=-1) / n
    probs = z - log_z[..., None]
    np.exp(probs, out=probs)
    probs.reshape(-1)[picks] -= 1.0
    probs /= n
    return loss, probs


def save_network(m: NeuralModule, path) -> None:
    """Write the checkpoint: shapes and flattened parameters, as decimal
    text that round-trips float64 exactly."""
    doc = {
        "layers": [
            {
                "shape": list(l.weights.shape),
                "activation": l.activation,
                "weights": l.weights.ravel().tolist(),
                "bias": l.bias.tolist(),
            }
            for l in m.layers
        ],
    }
    # json.dumps runs the C encoder; json.dump would run the pure-Python one.
    write_atomic(path, json.dumps(doc) + "\n")


def load_network(path) -> NeuralModule:
    """Read a checkpoint written by :func:`save_network`; an older file's
    ``"velocity"`` entry is ignored. What training cannot write raises
    :class:`ParseError`: arrays without their layer's shape, or a weight or
    bias entry that is not a finite JSON number."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        layers = []
        for spec in doc["layers"]:
            out, fan_in = spec["shape"]
            # A JSON true is a bool, which type() tells from an int.
            if not all(type(v) in (int, float) for key in ("weights", "bias")
                       for v in spec[key]):
                raise ValueError("weights and biases must be JSON numbers")
            w, b = (
                np.array(spec[key], dtype=np.float64).reshape(shape)
                for key, shape in (("weights", (out, fan_in)), ("bias", (out,)))
            )
            # Python's json reads NaN and Infinity, which save_network
            # never writes for a trained network.
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("weights and biases must be finite")
            layers.append(Layer(weights=w, bias=b, activation=spec["activation"]))
        if not layers:
            raise ValueError("no layers")
        return NeuralModule(layers=layers)
    except (KeyError, TypeError, ValueError, OverflowError, ShapeMismatch) as exc:
        raise ParseError(f"invalid network checkpoint {path}: {exc}") from exc
