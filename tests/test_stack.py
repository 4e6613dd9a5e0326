"""Stacked training (`train_many`) against solo runs, byte for byte.

Every run of a stack must write the checkpoints and history its solo run
writes; a run that fails must fail with its solo error text while the
other runs finish, retrained alone. Equality is exact: a stacked product
that rounded differently from the solo one would show here first."""

import warnings

import numpy as np
import pytest

from cemlab import cli
from cemlab import network as network_mod
from cemlab import trainer as trainer_mod
from cemlab.data import Dataset
from cemlab.errors import LabelOutOfRange, NonFinite
from cemlab.mixture import fit_init_many
from cemlab.network import StackedNet, predict
from cemlab.numerics import derived_seed, seeded_rng
from cemlab.trainer import train, train_many

ARTIFACTS = ("history.csv", "encoder.json", "decoder.json", "mixture.json")

BASE = dict(cli.DEFAULT_CONFIG, epochs=12)


def train_stack(configs, out):
    """Train ``configs`` as one stack and write each run as cmd_train does."""
    datasets = [cli.build_dataset(c) for c in configs]
    results = train_many([cli.validate(c).training for c in configs], datasets)
    for i, (config, result) in enumerate(zip(configs, results)):
        cli.save_run(config, result, out / f"run_{i}")


def assert_same_artifacts(a, b):
    for name in ARTIFACTS:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("configs", [
    [  # seed, lambda (0 included), noise std and lr differ
        dict(BASE),
        dict(BASE, seed=3, lam=0.0, noise_std=0.1, lr=0.002),
        dict(BASE, seed=7, lam=4.0, noise_std=0.3, lr=0.0005),
    ],
    [  # a noise-free run beside noisy ones, momentum, and a short last batch
        dict(BASE, epochs=4, batch_size=50),
        dict(BASE, epochs=4, batch_size=50, seed=1, noise_std=0.0, lam=0.0),
        dict(BASE, epochs=4, batch_size=50, seed=2, momentum=0.9, lr=0.0005),
        dict(BASE, epochs=4, batch_size=50, seed=5, lam=8.0, gmm_iters=2),
    ],
    [  # one lr and momentum for every run: the step gets them as floats
        dict(BASE, epochs=6, momentum=0.9),
        dict(BASE, epochs=6, momentum=0.9, seed=2, lam=4.0, noise_std=0.2),
        dict(BASE, epochs=6, momentum=0.9, seed=5, noise_std=0.0, lam=0.0),
    ],
    [  # no epochs: the first refit alone, a noise-free run among noisy ones
        dict(BASE, epochs=0),
        dict(BASE, epochs=0, seed=4, noise_std=0.0, lam=0.0),
        dict(BASE, epochs=0, seed=6, lam=4.0, noise_std=0.2, gmm_iters=3),
    ],
], ids=["seed-lam-noise-lr", "none-momentum-short-batch", "shared-lr-momentum",
        "refit-only"])
def test_stack_matches_solo_runs(tmp_path, configs):
    train_stack(configs, tmp_path / "stack")
    for i, config in enumerate(configs):
        cli.cmd_train(config, tmp_path / f"solo_{i}")
        assert_same_artifacts(tmp_path / "stack" / f"run_{i}", tmp_path / f"solo_{i}")


def indistinct(ds: Dataset) -> Dataset:
    """The same split sizes with every input row equal."""
    inputs = np.broadcast_to(ds.inputs[:1], ds.inputs.shape).copy()
    return Dataset(inputs, ds.labels, ds.n_classes, ds.train_idx, ds.test_idx)


def solo_error(cfg, ds) -> str:
    with pytest.raises(Exception) as info:
        train(cfg, ds)
    return f"{type(info.value).__name__}: {info.value}"


def test_failed_runs_leave_the_stack(tmp_path):
    good = [dict(BASE, epochs=5), dict(BASE, epochs=5, seed=4, lam=2.0)]
    noise_free = dict(BASE, epochs=5, seed=9, noise_std=0.0, lam=0.0)
    diverging = dict(BASE, epochs=5, seed=1, lr=1e6)
    configs = [good[0], noise_free, diverging, good[1]]
    datasets = [cli.build_dataset(c) for c in configs]
    datasets[1] = indistinct(datasets[1])
    cfgs = [cli.validate(c).training for c in configs]

    results = train_many(cfgs, datasets)

    texts = {
        1: "DegenerateData: fewer than k=9 distinct feature vectors",
        2: "NonFinite: training diverged at epoch 0: "
           "parameter update produced a non-finite value",
    }
    for i, text in texts.items():
        err = results[i]
        assert isinstance(err, Exception)
        assert f"{type(err).__name__}: {err}" == solo_error(cfgs[i], datasets[i]) == text
    for i in (0, 3):
        cli.save_run(configs[i], results[i], tmp_path / f"stack_{i}")
        cli.cmd_train(configs[i], tmp_path / f"solo_{i}")
        assert_same_artifacts(tmp_path / f"stack_{i}", tmp_path / f"solo_{i}")


def test_diverging_run_raises_without_warnings():
    # The run overflows on its way to the finite checks (in the encoder's
    # product, the nearest-mean distances and the blended variances); its
    # NonFinite error is the only report, with no RuntimeWarning first.
    config = dict(cli.DEFAULT_CONFIG, lr=1e6, data_per_class=20, epochs=2)
    cfg, data = cli.validate(config).training, cli.build_dataset(config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as info:
            train(cfg, data)
    assert str(info.value) == (
        "training diverged at epoch 1: diagonal entries must be finite"
    )


def test_out_of_range_label_leaves_the_stack(tmp_path):
    # The labels are checked once per stack, not per batch; a run whose
    # training split holds a label outside [0, n_classes) must still fail
    # with the error task_loss gives it alone.
    configs = [dict(BASE, epochs=3), dict(BASE, epochs=3, seed=6),
               dict(BASE, epochs=3, seed=8, lam=4.0)]
    datasets = [cli.build_dataset(c) for c in configs]
    ds = datasets[1]
    labels = ds.labels.copy()
    labels[ds.train_idx[-1]] = ds.n_classes
    datasets[1] = Dataset(ds.inputs, labels, ds.n_classes, ds.train_idx, ds.test_idx)
    cfgs = [cli.validate(c).training for c in configs]

    results = train_many(cfgs, datasets)

    assert isinstance(results[1], LabelOutOfRange)
    assert solo_error(cfgs[1], datasets[1]) == (
        f"LabelOutOfRange: labels must lie in [0, {ds.n_classes})"
    )
    assert f"{type(results[1]).__name__}: {results[1]}" == solo_error(cfgs[1], datasets[1])
    for i in (0, 2):
        cli.save_run(configs[i], results[i], tmp_path / f"stack_{i}")
        cli.cmd_train(configs[i], tmp_path / f"solo_{i}")
        assert_same_artifacts(tmp_path / f"stack_{i}", tmp_path / f"solo_{i}")


def test_stack_is_retrained_alone_only_after_a_failure(monkeypatch):
    # A stack that finishes is built once; one whose run fails is built
    # again for each of its runs alone.
    built = []
    stack_init = trainer_mod._Stack.__init__

    def counting_init(stack, cfgs, datasets):
        built.append(len(cfgs))
        stack_init(stack, cfgs, datasets)

    monkeypatch.setattr(trainer_mod._Stack, "__init__", counting_init)
    configs = [dict(BASE, epochs=2, seed=s) for s in range(3)]
    datasets = [cli.build_dataset(c) for c in configs]
    results = train_many([cli.validate(c).training for c in configs], datasets)
    assert built == [3]
    assert not any(isinstance(r, Exception) for r in results)

    built.clear()
    configs[1] = dict(configs[1], lr=1e6)
    results = train_many([cli.validate(c).training for c in configs], datasets)
    assert built == [3, 1, 1, 1]
    assert [isinstance(r, NonFinite) for r in results] == [False, True, False]


def test_stack_rejects_mixed_shapes():
    configs = [dict(BASE, epochs=1), dict(BASE, epochs=1, hidden=16)]
    with pytest.raises(ValueError, match="share their shapes"):
        train_many(
            [cli.validate(c).training for c in configs],
            [cli.build_dataset(c) for c in configs],
        )


def test_noise_is_one_draw_per_run_and_epoch(monkeypatch):
    # A noisy run beside a noise-free run. Every encoder and decoder
    # forward, every refit input and every generator the network module
    # builds (the stack's streams and the models' initial weights) is
    # recorded. A batch's forward runs in place, into buffers the next
    # batch reuses, so its output is recorded as a copy.
    noisy = dict(BASE, epochs=2, seed=3, noise_std=0.3)
    quiet = dict(BASE, epochs=2, seed=1, noise_std=0.0, lam=0.0)
    configs = [noisy, quiet]
    datasets = [cli.build_dataset(c) for c in configs]
    calls, fits, streams = [], [], []

    def recording_predict(module, batch):
        out = predict(module, batch)
        calls.append((batch, out))
        return out

    stacked_forward = StackedNet.forward

    def recording_stacked_forward(net, batch):
        out = stacked_forward(net, batch)
        calls.append((batch, out.copy()))
        return out

    def recording_fit(features, *args, **kwargs):
        fits.append(features)
        return fit_init_many(features, *args, **kwargs)

    def recording_rng(seed, *tags):
        streams.append((seed, *tags))
        return seeded_rng(seed, *tags)

    monkeypatch.setattr(trainer_mod, "predict", recording_predict)
    monkeypatch.setattr(StackedNet, "forward", recording_stacked_forward)
    monkeypatch.setattr(trainer_mod, "fit_init_many", recording_fit)
    monkeypatch.setattr(network_mod, "seeded_rng", recording_rng)
    results = train_many([cli.validate(c).training for c in configs], datasets)
    assert not any(isinstance(r, Exception) for r in results)

    x = [ds.train_arrays()[0] for ds in datasets]
    n_train, d_z, size = x[0].shape[0], noisy["d_z"], noisy["batch_size"]
    n_batches = -(-n_train // size)
    per_epoch = 1 + 2 * n_batches  # the refit's encoding, then each batch
    assert len(calls) == 2 * per_epoch and len(fits) == 2
    # One generator per run and epoch for each stream; none for the noise
    # of the noise-free run, and none per batch. Besides them, one per
    # model for its initial weights.
    inits = [(derived_seed(seed, tag), key) for seed in (3, 1)
             for tag, key in ((1, 0x11), (2, 0x4E))]
    assert sorted(streams) == sorted(inits + [
        stream for e in (0, 1)
        for stream in [(3, 3, e), (3, 5, e), (1, 5, e), (3, 6, e)]
    ])
    for e in (0, 1):
        feats = calls[e * per_epoch][1]
        refit_noise = 0.3 * seeded_rng(3, 3, e).standard_normal((n_train, d_z))
        assert fits[e][0].tobytes() == (feats[0] + refit_noise).tobytes()
        assert fits[e][1].tobytes() == feats[1].tobytes()
        orders = [seeded_rng(c["seed"], 5, e).permutation(n_train) for c in configs]
        noise = 0.3 * seeded_rng(3, 6, e).standard_normal((n_train, d_z))
        for b in range(n_batches):
            rows = slice(b * size, (b + 1) * size)
            (x_in, z_hat), (z_in, _) = calls[e * per_epoch + 1 + 2 * b:][:2]
            for r in (0, 1):
                assert x_in[r].tobytes() == x[r][orders[r][rows]].tobytes()
            assert z_in[0].tobytes() == (z_hat[0] + noise[rows]).tobytes()
            assert z_in[1].tobytes() == z_hat[1].tobytes()
