import numpy as np
import pytest
from helpers import gaussian_posterior_attacker, isotropic_spec

from cemlab.adversary import (
    AttackConfig,
    evaluate_attack,
    psnr,
    reconstruction_mse,
    train_attacker,
)
from cemlab.bounds import JointGaussianSpec, NoiseModel, minimal_mse_oracle
from cemlab.data import Dataset, synth_blobs
from cemlab.network import Layer, NeuralModule, init_network
from cemlab.numerics import Covariance


def identity_encoder(d):
    return NeuralModule(
        layers=[Layer(weights=np.eye(d), bias=np.zeros(d), activation="identity")]
    )


def constant_encoder(d_in, d_z, value=0.3):
    return NeuralModule(
        layers=[Layer(weights=np.zeros((d_z, d_in)), bias=np.full(d_z, value),
                      activation="identity")]
    )


@pytest.fixture(scope="module")
def blobs():
    return synth_blobs(n_classes=3, d=8, per_class=60, spread=0.1, seed=5)


class TestAttackConfig:
    @pytest.mark.parametrize("field, bad", [
        ("epochs", 0),
        ("hidden_dims", [0]),
        ("hidden_dims", [16, -1]),
        ("batch_size", 0),
        ("lr", np.nan),
        ("lr", np.inf),
        ("lr", -0.01),
        ("momentum", np.nan),
        ("momentum", np.inf),
        ("momentum", -np.inf),
    ])
    def test_bad_setting_rejected(self, field, bad):
        # Each once reached training: hidden_dims=[0] raised
        # ZeroDivisionError, batch_size=0 a bare range() error, and a NaN lr
        # or momentum was reported as a divergence at epoch 0.
        with pytest.raises(ValueError):
            AttackConfig(**{field: bad})

    def test_smallest_settings_accepted(self):
        AttackConfig(epochs=1, hidden_dims=[], batch_size=1, lr=0.0, momentum=-0.5)
        AttackConfig(hidden_dims=[1])


class TestTrainAttacker:
    def test_invertible_channel_recovered(self, blobs):
        encoder = identity_encoder(8)
        noise = NoiseModel(std=0.0, dim=8)
        cfg = AttackConfig(
            epochs=1000, lr=0.3, momentum=0.9, hidden_dims=[], seed=1,
            output_activation="identity",
        )
        attacker = train_attacker(encoder, noise, blobs, cfg)
        x_train, _ = blobs.train_arrays()
        mse = reconstruction_mse(attacker, encoder, noise, x_train, seed=2)
        assert mse <= 1e-4

    def test_constant_encoder_yields_mean_predictor(self, blobs):
        encoder = constant_encoder(8, 4)
        noise = NoiseModel(std=0.01, dim=4)
        cfg = AttackConfig(epochs=200, lr=0.05, hidden_dims=[16], seed=3)
        attacker = train_attacker(encoder, noise, blobs, cfg)
        x_train, _ = blobs.train_arrays()
        mse = reconstruction_mse(attacker, encoder, noise, x_train, seed=4)
        best_constant = float(np.mean((x_train - x_train.mean(axis=0)) ** 2))
        assert mse <= 1.1 * best_constant
        assert mse >= 0.9 * best_constant

    def test_training_progress(self, blobs):
        encoder = identity_encoder(8)
        noise = NoiseModel(std=0.05, dim=8)
        x_train, _ = blobs.train_arrays()
        mses = []
        for epochs in (1, 50):
            cfg = AttackConfig(epochs=epochs, seed=9)
            attacker = train_attacker(encoder, noise, blobs, cfg)
            mses.append(reconstruction_mse(attacker, encoder, noise, x_train, seed=0))
        assert mses[1] <= mses[0]

    def test_deterministic(self, blobs):
        encoder = identity_encoder(8)
        noise = NoiseModel(std=0.05, dim=8)
        cfg = AttackConfig(epochs=5, seed=21)
        a = train_attacker(encoder, noise, blobs, cfg)
        b = train_attacker(encoder, noise, blobs, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)

    def test_labels_never_used(self, blobs):
        encoder = identity_encoder(8)
        noise = NoiseModel(std=0.05, dim=8)
        cfg = AttackConfig(epochs=5, seed=2)
        relabeled = Dataset(
            inputs=blobs.inputs,
            labels=(blobs.labels + 1) % blobs.n_classes,
            n_classes=blobs.n_classes,
            train_idx=blobs.train_idx,
            test_idx=blobs.test_idx,
        )
        a = train_attacker(encoder, noise, blobs, cfg)
        b = train_attacker(encoder, noise, relabeled, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights, lb.weights)


class TestEvaluateAttack:
    def test_psnr_definition(self):
        assert psnr(0.01) == pytest.approx(20.0, abs=1e-12)

    def test_report_consistency(self, blobs, rng):
        encoder = identity_encoder(8)
        noise = NoiseModel(std=0.1, dim=8)
        attacker = train_attacker(encoder, noise, blobs, AttackConfig(epochs=5, seed=0))
        x_train, _ = blobs.train_arrays()
        x_test, _ = blobs.test_arrays()
        report = evaluate_attack(
            attacker, encoder, noise, x_train, x_test, seed=1, floor=0.001
        )
        assert report.psnr_train == pytest.approx(psnr(report.mse_train))
        assert report.psnr_infer == pytest.approx(psnr(report.mse_infer))
        assert report.mse_train > 0 and report.mse_infer > 0
        assert report.floor == 0.001

    def test_untrained_attacker_is_worse(self, blobs):
        encoder = identity_encoder(8)
        noise = NoiseModel(std=0.05, dim=8)
        trained = train_attacker(encoder, noise, blobs, AttackConfig(epochs=50, seed=3))
        untrained = init_network([8, 64, 64, 8], ["relu", "relu", "sigmoid"], seed=3)
        x_train, _ = blobs.train_arrays()
        mse_trained = reconstruction_mse(trained, encoder, noise, x_train, seed=0)
        mse_untrained = reconstruction_mse(untrained, encoder, noise, x_train, seed=0)
        assert mse_untrained >= mse_trained


class TestGaussianPosteriorAttacker:
    def test_noiseless_limit_is_identity(self):
        spec = JointGaussianSpec(
            x_cov=Covariance.diagonal(np.ones(3), ridge=0.0),
            channel=np.eye(3),
            noise=NoiseModel(std=1e-6, dim=3),
        )
        attacker = gaussian_posterior_attacker(spec)
        z = np.array([[0.4, -1.0, 2.0]])
        assert np.allclose(attacker(z), z, atol=1e-9)

    def test_uninformative_channel_returns_prior_mean(self):
        spec = JointGaussianSpec(
            x_cov=Covariance.diagonal([1.0, 2.0], ridge=0.0),
            channel=np.zeros((2, 2)),
            noise=NoiseModel(std=1.0, dim=2),
        )
        attacker = gaussian_posterior_attacker(spec)
        assert np.allclose(attacker(np.ones((4, 2))), 0.0)

    def test_scalar_wiener_gain(self):
        spec = JointGaussianSpec(
            x_cov=Covariance.diagonal([1.0], ridge=0.0),
            channel=np.array([[1.0]]),
            noise=NoiseModel(std=1.0, dim=1),
        )
        attacker = gaussian_posterior_attacker(spec)
        assert attacker(np.array([[2.0]]))[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_achieves_oracle_mse(self, rng):
        spec = isotropic_spec(rng, d=4)
        attacker = gaussian_posterior_attacker(spec)
        n = 50_000
        x = rng.standard_normal((n, 4)) * np.sqrt(spec.x_cov.entries)
        z = x @ spec.channel.T + spec.noise.std * rng.standard_normal((n, 4))
        mse = float(np.mean((attacker(z) - x) ** 2))
        assert mse == pytest.approx(minimal_mse_oracle(spec), rel=0.02)
