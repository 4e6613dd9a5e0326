import numpy as np
import pytest

from cemlab.bounds import NoiseModel
from cemlab.data import synth_blobs
from cemlab.errors import NonFinite
from cemlab.network import Layer, NeuralModule, init_network, task_loss
from cemlab.trainer import TrainingConfig, evaluate_utility, train
from conftest import central_diff, rel_error

# The settings these tests share; each test names the ones it is about.
SHARED = dict(lam=16.0, noise_std=0.025, k=None, epochs=30, batch_size=64, lr=0.05,
              momentum=0.0, seed=0, d_z=8, hidden=32, feature_scale=2.0, gmm_iters=10)


def config(**settings) -> TrainingConfig:
    return TrainingConfig(**dict(SHARED, **settings))


@pytest.fixture(scope="module")
def blobs():
    return synth_blobs(n_classes=3, d=16, per_class=200, spread=0.05, seed=0)


@pytest.fixture(scope="module")
def small_blobs():
    return synth_blobs(n_classes=3, d=8, per_class=30, spread=0.05, seed=1)


class TestTrain:
    def test_plain_classification_sanity(self, blobs):
        cfg = config(
            lam=0.0, noise_std=0.0, epochs=25, seed=0, lr=0.05
        )
        result = train(cfg, blobs)
        acc = evaluate_utility(
            result.encoder, result.decoder, blobs, NoiseModel(std=0.0, dim=8), seed=3
        )
        assert acc >= 0.95

    def test_entropy_bound_improves(self, blobs):
        cfg = config(
            lam=16.0, noise_std=0.025,
            epochs=60, seed=0, lr=0.001, batch_size=16,
        )
        result = train(cfg, blobs)
        assert result.history[-1].l_c < result.history[0].l_c

    def test_zero_epochs_noop(self, blobs):
        cfg = config(lam=0.0, noise_std=0.0, epochs=0, seed=0)
        result = train(cfg, blobs)
        assert result.history == []
        assert result.mixture.weights.shape == (9,)
        assert sum(l.weights.size + l.bias.size for l in result.encoder.layers) > 0

    def test_loss_ledger_identity(self, small_blobs):
        cfg = config(
            lam=2.0, noise_std=0.05,
            epochs=4, seed=2, lr=0.001, batch_size=16,
        )
        result = train(cfg, small_blobs)
        for row in result.history:
            assert row.total == pytest.approx(row.l_d + cfg.lam * row.l_c, abs=1e-9)

    def test_reproducible_history(self, small_blobs):
        cfg = config(
            lam=4.0, noise_std=0.05,
            epochs=5, seed=7, lr=0.001, batch_size=16,
        )
        a = train(cfg, small_blobs)
        b = train(cfg, small_blobs)
        for ra, rb in zip(a.history, b.history):
            assert (ra.l_d, ra.l_c, ra.total, ra.accuracy) == (
                rb.l_d, rb.l_c, rb.total, rb.accuracy
            )
        for la, lb in zip(a.encoder.layers, b.encoder.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_batch_size_exceeding_split_rejected(self, small_blobs):
        cfg = config(
            lam=0.0, noise_std=0.0, epochs=1, batch_size=10_000
        )
        with pytest.raises(ValueError):
            train(cfg, small_blobs)

    def test_low_k_warns(self, small_blobs):
        cfg = config(
            lam=0.0, noise_std=0.0, epochs=1, k=2, batch_size=16
        )
        with pytest.warns(UserWarning):
            train(cfg, small_blobs)

    def test_positive_lam_requires_noise(self):
        with pytest.raises(ValueError):
            config(lam=1.0, noise_std=0.0)

    @pytest.mark.parametrize("field", ["lam", "noise_std"])
    @pytest.mark.parametrize("bad", [-0.01, np.nan, np.inf])
    def test_non_finite_or_negative_rejected(self, field, bad):
        # NaN passes a plain `< 0` test; a NaN noise std with lam > 0 once
        # reached the training step and crashed it.
        with pytest.raises(ValueError, match="finite and nonnegative"):
            config(**{"lam": 1.0, "noise_std": 0.1, field: bad})

    @pytest.mark.parametrize("field, bad", [
        ("epochs", -1),
        ("batch_size", 0),
        ("k", 0),
        ("gmm_iters", -3),
        ("lr", np.nan),
        ("lr", np.inf),
        ("momentum", np.nan),
        ("momentum", np.inf),
        ("momentum", -np.inf),
        ("d_z", 0),
        ("hidden", 0),
        ("hidden", 1),
        ("hidden", 33),
        ("d_z", 17),
        ("feature_scale", 0.0),
        ("feature_scale", -1.0),
        ("feature_scale", np.nan),
        ("feature_scale", np.inf),
    ])
    def test_bad_shape_or_schedule_rejected(self, field, bad):
        # Each once crashed training (k=0, batch_size=0, d_z=0, hidden=0),
        # was silently changed (epochs=-1 trained an epoch, gmm_iters=-3 ran
        # none) or surfaced as a divergence at epoch 0 (NaN passes `< 0`).
        # d_z=17 exceeds the shared hidden=32's 16 looks-linear pairs; an
        # odd hidden=33 once gave a 32-unit encoder beside a 33-unit decoder.
        with pytest.raises(ValueError):
            config(**{field: bad})

    def test_smallest_shapes_accepted(self):
        config(epochs=0, batch_size=1, k=1, gmm_iters=0, lr=0.0,
               momentum=-0.5, d_z=1, hidden=2)
        config(d_z=16, hidden=32)

    def test_lr_halves_every_third_of_the_epochs(self):
        cfg = config(epochs=30, lr=0.05)
        assert [cfg.lr_at(e) for e in (0, 9, 10, 19, 20, 29)] == [
            0.05, 0.05, 0.025, 0.025, 0.0125, 0.0125
        ]
        # Fewer than three epochs halve the rate every epoch.
        assert config(epochs=2, lr=0.05).lr_at(1) == 0.025

    def test_divergence_reports_epoch(self, small_blobs):
        cfg = config(
            lam=0.0, noise_std=0.0, epochs=50, seed=0,
            lr=1e12, batch_size=16,
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFinite, match="epoch"):
                train(cfg, small_blobs)


class TestDefenseHook:
    """The trainer's task term is plain :func:`task_loss`, with or without
    noise."""

    def test_none_is_task_loss_passthrough(self):
        logits = np.array([[50.0, 0.0], [0.0, 50.0]])
        labels = np.array([0, 1])
        l_d, grad = task_loss(logits, labels)
        assert l_d < 1e-20
        assert grad.shape == logits.shape

    def test_gradients_match_finite_differences(self, rng):
        for _ in range(2):
            logits = rng.standard_normal((5, 4))
            labels = rng.integers(0, 4, size=5)
            _, grad = task_loss(logits, labels)
            fd = central_diff(lambda z: task_loss(z, labels)[0], logits)
            assert rel_error(grad, fd) <= 1e-5


class TestEvaluateUtility:
    def test_constant_decoder_on_single_class(self):
        ds = synth_blobs(n_classes=1, d=4, per_class=30, spread=0.1, seed=3)
        encoder = init_network([4, 4, 2], ["relu", "identity"], seed=0)
        decoder = NeuralModule(
            layers=[Layer(weights=np.zeros((1, 2)), bias=np.array([5.0]),
                          activation="identity")]
        )
        acc = evaluate_utility(
            encoder, decoder, ds, NoiseModel(std=0.1, dim=2), seed=0
        )
        assert acc == 1.0

    def test_huge_noise_destroys_information(self, blobs):
        cfg = config(
            lam=0.0, noise_std=0.0, epochs=10, seed=0, lr=0.05
        )
        result = train(cfg, blobs)
        acc = evaluate_utility(
            result.encoder, result.decoder, blobs,
            NoiseModel(std=1e6, dim=8), seed=5, split="train",
        )
        n_train = len(blobs.train_idx)
        assert abs(acc - 1.0 / 3.0) <= 3 * np.sqrt(1.0 / (4 * n_train))

    def test_random_decoder_near_chance(self, blobs):
        encoder = init_network([16, 8, 8], ["relu", "identity"], seed=11)
        decoder = init_network([8, 8, 3], ["relu", "identity"], seed=13)
        acc = evaluate_utility(
            encoder, decoder, blobs, NoiseModel(std=10.0, dim=8), seed=5,
            split="train",
        )
        n_train = len(blobs.train_idx)
        assert abs(acc - 1.0 / 3.0) <= 3 * np.sqrt(1.0 / (4 * n_train))

    def test_noise_flag_disables_corruption(self, blobs):
        # A zero-std noise model evaluates the clean features.
        cfg = config(
            lam=0.0, noise_std=0.0, epochs=10, seed=0, lr=0.05
        )
        result = train(cfg, blobs)
        clean = evaluate_utility(
            result.encoder, result.decoder, blobs, NoiseModel(std=0.0, dim=8),
            seed=5,
        )
        assert clean >= 0.9
