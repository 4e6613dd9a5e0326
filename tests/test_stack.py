"""Stacked training (`train_many`) against solo runs, byte for byte.

Every run of a stack must write the checkpoints and history its solo run
writes; a run that fails must fail with its solo error text while the rest
of the stack finishes. Equality is exact: a stacked product that rounded
differently from the solo one would show here first."""

import numpy as np
import pytest

from cemlab import cli
from cemlab.data import Dataset
from cemlab.trainer import train, train_many

ARTIFACTS = ("history.csv", "encoder.json", "decoder.json", "mixture.json")

BASE = dict(cli.DEFAULT_CONFIG, epochs=12)


def train_stack(configs, out):
    """Train ``configs`` as one stack and write each run as cmd_train does."""
    datasets = [cli.build_dataset(c) for c in configs]
    results = train_many([cli.training_config(c) for c in configs], datasets)
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
        dict(BASE, epochs=4, batch_size=50, seed=1, defense="none", lam=0.0),
        dict(BASE, epochs=4, batch_size=50, seed=2, momentum=0.9, lr=0.0005),
        dict(BASE, epochs=4, batch_size=50, seed=5, lam=8.0, gmm_iters=2),
    ],
], ids=["seed-lam-noise-lr", "none-momentum-short-batch"])
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
    noise_free = dict(BASE, epochs=5, seed=9, defense="none", lam=0.0)
    diverging = dict(BASE, epochs=5, seed=1, lr=1e6)
    configs = [good[0], noise_free, diverging, good[1]]
    datasets = [cli.build_dataset(c) for c in configs]
    datasets[1] = indistinct(datasets[1])
    cfgs = [cli.training_config(c) for c in configs]

    results = train_many(cfgs, datasets)

    for i in (1, 2):
        err = results[i]
        assert isinstance(err, Exception)
        assert f"{type(err).__name__}: {err}" == solo_error(cfgs[i], datasets[i])
    assert "fewer than k=9 distinct" in str(results[1])
    assert "training diverged" in str(results[2])
    for i in (0, 3):
        cli.save_run(configs[i], results[i], tmp_path / f"stack_{i}")
        cli.cmd_train(configs[i], tmp_path / f"solo_{i}")
        assert_same_artifacts(tmp_path / f"stack_{i}", tmp_path / f"solo_{i}")


def test_stack_rejects_mixed_shapes():
    configs = [dict(BASE, epochs=1), dict(BASE, epochs=1, hidden=16)]
    with pytest.raises(ValueError, match="share their shapes"):
        train_many(
            [cli.training_config(c) for c in configs],
            [cli.build_dataset(c) for c in configs],
        )
