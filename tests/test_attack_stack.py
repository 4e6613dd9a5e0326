"""Stacked attacker training (`train_attacker_many`) against a plain
one-run loop, bit for bit.

The reference below is the attacker loop written on unstacked (N, d)
arrays: one module, one permutation and one noise draw in its order per
epoch, the per-dimension MSE gradient, and a momentum step. Every run of a
stack must end with its weights and biases, byte for byte; a run that
diverges must fail with the text `train_attacker` raises for it alone
while the other runs finish, retrained alone."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cemlab.adversary import (
    AttackConfig,
    evaluate_attack,
    train_attacker,
    train_attacker_many,
)
from cemlab.bounds import NoiseModel
from cemlab.data import synth_blobs
from cemlab.errors import NonFinite
from cemlab.network import (
    backward,
    forward,
    init_network,
    sgd_step,
)
from cemlab.numerics import derived_seed, seeded_rng

D_IN, D_Z = 6, 3


def reference_attacker(encoder, noise, data, cfg):
    """The attacker loop on unstacked arrays."""
    x_train, _ = data.train_arrays()
    dims = [encoder.out_dim, *cfg.hidden_dims, x_train.shape[1]]
    activations = ["relu"] * len(cfg.hidden_dims) + [cfg.output_activation]
    attacker = init_network(dims, activations, derived_seed(cfg.seed, 10))
    feats_clean, _ = forward(encoder, x_train)
    n, d = x_train.shape
    velocity = None
    for epoch in range(cfg.epochs):
        order = seeded_rng(cfg.seed, 12, epoch).permutation(n)
        feats, targets = feats_clean[order], x_train[order]
        if noise.std > 0:
            normals = seeded_rng(cfg.seed, 11, epoch).standard_normal(feats.shape)
            feats = feats + noise.std * normals
        for start in range(0, n, cfg.batch_size):
            rows = slice(start, start + cfg.batch_size)
            pred, tape = forward(attacker, feats[rows])
            grad = 2.0 * (pred - targets[rows]) / (len(pred) * d)
            grads, _ = backward(attacker, tape, grad)
            try:
                attacker, velocity = sgd_step(
                    attacker, grads, cfg.lr, cfg.momentum, velocity
                )
            except NonFinite as exc:
                raise NonFinite(f"attack diverged at epoch {epoch}: {exc}") from exc
    return attacker


def module_bytes(m):
    """Every parameter array of a module, as bytes (so signed zeros
    count)."""
    return [(a.shape, a.tobytes()) for l in m.layers for a in (l.weights, l.bias)]


def world(seed):
    """A small dataset and a random encoder; every seed gives the same
    shapes."""
    data = synth_blobs(n_classes=2, d=D_IN, per_class=15, spread=0.1, seed=seed)
    encoder = init_network([D_IN, 5, D_Z], ["relu", "identity"], seed=seed + 100)
    return encoder, data


run_st = st.tuples(
    st.integers(0, 2**31),                       # attack seed
    st.integers(0, 50),                          # world seed
    st.sampled_from([0.0, 0.05, 0.3]),           # noise std
    st.sampled_from([0.001, 0.01, 0.2]),         # lr
    st.sampled_from([0.0, 0.9]),                 # momentum
)


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(run_st, min_size=1, max_size=4),
    hidden_dims=st.sampled_from([[], [64, 64]]),
    head=st.sampled_from(["sigmoid", "identity"]),
    epochs=st.integers(1, 3),
    batch_size=st.sampled_from([7, 16, 64]),
)
def test_stack_equals_runs_alone(runs, hidden_dims, head, epochs, batch_size):
    encoders, noises, datasets, cfgs = [], [], [], []
    for seed, world_seed, std, lr, momentum in runs:
        encoder, data = world(world_seed)
        encoders.append(encoder)
        datasets.append(data)
        noises.append(NoiseModel(std=std, dim=D_Z))
        cfgs.append(AttackConfig(
            epochs=epochs, lr=lr, hidden_dims=hidden_dims, seed=seed,
            batch_size=batch_size, momentum=momentum, output_activation=head,
        ))

    stacked = train_attacker_many(encoders, noises, datasets, cfgs)

    for attacker, encoder, noise, data, cfg in zip(
        stacked, encoders, noises, datasets, cfgs
    ):
        alone = reference_attacker(encoder, noise, data, cfg)
        assert module_bytes(attacker) == module_bytes(alone)
        x_train, _ = data.train_arrays()
        x_test, _ = data.test_arrays()
        assert evaluate_attack(
            attacker, encoder, noise, x_train, x_test, seed=cfg.seed
        ) == evaluate_attack(alone, encoder, noise, x_train, x_test, seed=cfg.seed)


def solo_error(encoder, noise, data, cfg) -> str:
    with pytest.raises(Exception) as info:
        train_attacker(encoder, noise, data, cfg)
    return f"{type(info.value).__name__}: {info.value}"


def test_diverging_run_leaves_the_stack():
    base = dict(epochs=10, hidden_dims=[64, 64], output_activation="identity")
    cfgs = [
        AttackConfig(seed=1, **base),
        AttackConfig(seed=2, lr=1e6, **base),
        AttackConfig(seed=3, momentum=0.0, **base),
    ]
    worlds = [world(s) for s in (4, 5, 6)]
    encoders = [encoder for encoder, _ in worlds]
    datasets = [data for _, data in worlds]
    noises = [NoiseModel(std=0.05, dim=D_Z)] * 3

    results = train_attacker_many(encoders, noises, datasets, cfgs)

    err = results[1]
    assert isinstance(err, NonFinite)
    assert f"{type(err).__name__}: {err}" == solo_error(
        encoders[1], noises[1], datasets[1], cfgs[1]
    ) == "NonFinite: attack diverged at epoch 3: parameter update produced a non-finite value"
    for i in (0, 2):
        alone = reference_attacker(encoders[i], noises[i], datasets[i], cfgs[i])
        assert module_bytes(results[i]) == module_bytes(alone)


def test_diverging_run_raises_without_warnings():
    # The attacker's product and the step's finite check overflow first;
    # the NonFinite error is the only report, with no RuntimeWarning.
    encoder, data = world(5)
    cfg = AttackConfig(seed=2, lr=1e6, epochs=10, hidden_dims=[64, 64],
                       output_activation="identity")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as info:
            train_attacker(encoder, NoiseModel(std=0.05, dim=D_Z), data, cfg)
    assert str(info.value) == (
        "attack diverged at epoch 3: parameter update produced a non-finite value"
    )


def test_stack_rejects_mixed_shapes():
    (encoder, data), (other, _) = world(0), world(1)
    with pytest.raises(ValueError, match="share their shapes"):
        train_attacker_many(
            [encoder, other], [NoiseModel(std=0.1, dim=D_Z)] * 2, [data, data],
            [AttackConfig(epochs=1), AttackConfig(epochs=1, hidden_dims=[8])],
        )
