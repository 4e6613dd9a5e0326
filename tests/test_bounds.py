import numpy as np
import pytest
from helpers import (
    JointGaussianSpec,
    gaussian_entropy,
    isotropic_spec,
    make_mixture,
    minimal_mse_oracle,
    noise_cov,
    posterior_covariance,
    random_mixture,
    random_spec,
    wiener_gain,
    write_mixture,
)

from cemlab.bounds import (
    NoiseModel,
    bounds_report,
    cem_loss,
    cem_loss_grad,
    cond_entropy_lower,
    mi_upper_bound,
    mixture_entropy_upper,
    mse_floor,
)
from cemlab.errors import NonPositiveDefinite, ShapeMismatch
from cemlab.mixture import (
    GaussianComponent,
    GaussianMixture,
    MixtureState,
    assign_nearest,
    update_covariance,
    update_weights,
)
from cemlab.numerics import Covariance, mc_entropy
from conftest import central_diff, rel_error

HALF_LOG_2PIE = 1.4189385332046727
LOG_2PIE = 2.8378770664093453
LOG2 = 0.6931471805599453


class TestGaussianEntropy:
    def test_standard_normal(self):
        assert gaussian_entropy(np.eye(1)) == pytest.approx(HALF_LOG_2PIE, abs=1e-12)

    def test_product_rule(self):
        assert gaussian_entropy(np.eye(2)) == pytest.approx(LOG_2PIE, abs=1e-12)

    def test_unit_determinant_normalization(self):
        c = np.diag([1.0 / (2 * np.pi * np.e)])
        assert gaussian_entropy(c) == pytest.approx(0.0, abs=1e-12)

    def test_noise_std_zero_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            gaussian_entropy(noise_cov(NoiseModel(std=0.0, dim=2)))

    @pytest.mark.parametrize("bad", [-0.1, np.nan, np.inf])
    def test_noise_std_non_finite_or_negative_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            NoiseModel(std=bad, dim=2)


class TestMixtureEntropyUpper:
    def test_tight_for_single_gaussian(self):
        mix = make_mixture([1.0], [[0.0]], [[0.0]], ridge=1e-12)
        noise = NoiseModel(std=1.0, dim=1)
        assert mixture_entropy_upper(mix, noise) == pytest.approx(
            HALF_LOG_2PIE, abs=1e-9
        )

    def test_two_point_components(self):
        mix = make_mixture([0.5, 0.5], [[-4.0], [4.0]], [[0.0], [0.0]], ridge=1e-12)
        noise = NoiseModel(std=1.0, dim=1)
        assert mixture_entropy_upper(mix, noise) == pytest.approx(
            LOG2 + HALF_LOG_2PIE, abs=1e-9
        )

    def test_bound_independent_of_means(self, rng):
        noise = NoiseModel(std=0.6, dim=2)
        variances = [[0.3, 0.8], [1.2, 0.1]]
        a = make_mixture([0.4, 0.6], rng.standard_normal((2, 2)), variances)
        b = make_mixture([0.4, 0.6], rng.standard_normal((2, 2)) * 10, variances)
        assert mixture_entropy_upper(a, noise) == pytest.approx(
            mixture_entropy_upper(b, noise), abs=1e-12
        )

    def test_degenerate_weight_limit(self):
        mix = make_mixture(
            [1.0 - 1e-8, 1e-8], [[0.0], [3.0]], [[0.0], [0.0]], ridge=1e-12
        )
        noise = NoiseModel(std=1.0, dim=1)
        value = mixture_entropy_upper(mix, noise)
        assert value >= HALF_LOG_2PIE
        assert value == pytest.approx(HALF_LOG_2PIE, abs=1e-6)

    def test_dominates_monte_carlo(self, rng):
        noise = NoiseModel(std=0.5, dim=0)
        for _ in range(10):
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            mix = random_mixture(rng, k, d)
            noise = NoiseModel(std=0.5, dim=d)
            est = mc_entropy(mix, noise, n_samples=10**5, seed=int(rng.integers(1e6)))
            assert mixture_entropy_upper(mix, noise) >= est.value - 3 * est.std_error


@pytest.mark.parametrize("k, d", [(1, 1), (3, 2), (9, 8), (17, 3)])
def test_hand_written_mixture_gives_its_state_bits(k, d):
    """The benchmark's path: a component list, read by `MixtureState.of`,
    gives its state's bits in the oracle and both closed-form bounds."""
    rng = np.random.default_rng(100 * k + d)
    raw = rng.uniform(0.1, 1.0, size=k)
    hand = write_mixture(
        raw / raw.sum(), rng.uniform(-3.0, 3.0, (k, d)),
        rng.uniform(0.05, 0.5, (k, d)), n=1000, ridge=1e-6,
    )
    state = MixtureState.of(hand)
    assert MixtureState.of(state) is state
    noise = NoiseModel(std=0.3, dim=d)
    for bound in (mixture_entropy_upper, mi_upper_bound):
        assert repr(bound(hand, noise)) == repr(bound(state, noise))
    got, want = (mc_entropy(m, noise, n_samples=20_000, seed=k) for m in (hand, state))
    assert (repr(got.value), repr(got.std_error)) == (repr(want.value), repr(want.std_error))


class TestMiUpperBound:
    def test_pointlike_single_component(self):
        mix = make_mixture([1.0], [[0.0]], [[0.0]], ridge=1e-12)
        assert mi_upper_bound(mix, NoiseModel(std=1.0, dim=1)) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_label_entropy_only(self):
        mix = make_mixture([0.5, 0.5], [[-9.0], [9.0]], [[0.0], [0.0]], ridge=1e-12)
        assert mi_upper_bound(mix, NoiseModel(std=1.0, dim=1)) == pytest.approx(
            LOG2, abs=1e-9
        )

    def test_gaussian_channel_form(self):
        mix = make_mixture([1.0], [[0.0]], [[3.0]], ridge=0.0)
        assert mi_upper_bound(mix, NoiseModel(std=1.0, dim=1)) == pytest.approx(
            LOG2, abs=1e-12
        )

    def test_decomposition_identity(self, rng):
        for _ in range(20):
            k, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            mix = random_mixture(rng, k, d)
            noise = NoiseModel(std=float(rng.uniform(0.2, 1.5)), dim=d)
            lhs = mi_upper_bound(mix, noise)
            rhs = mixture_entropy_upper(mix, noise) - gaussian_entropy(noise_cov(noise))
            assert abs(lhs - rhs) <= 1e-10

    def test_nonnegative(self, rng):
        for _ in range(30):
            mix = random_mixture(rng, int(rng.integers(1, 6)), int(rng.integers(1, 5)))
            noise = NoiseModel(std=float(rng.uniform(0.05, 2.0)), dim=mix.means.shape[1])
            assert mi_upper_bound(mix, noise) >= 0.0

    def test_strictly_decreasing_in_noise_variance(self):
        mix = make_mixture([0.5, 0.5], [[0.0], [2.0]], [[0.7], [0.2]], ridge=0.0)
        grid = np.sqrt(np.linspace(0.01, 2.0, 40))
        values = [mi_upper_bound(mix, NoiseModel(std=s, dim=1)) for s in grid]
        assert all(a > b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("bound", [mi_upper_bound, mixture_entropy_upper])
    def test_noise_of_another_width_refused(self, bound):
        # Noise of dim 2 beside a mixture of width 3 once gave a bound.
        mix = make_mixture([0.5, 0.5], [[0.0] * 3, [2.0] * 3], [[0.7] * 3, [0.2] * 3])
        with pytest.raises(ShapeMismatch, match="width 3"):
            bound(mix, NoiseModel(std=0.5, dim=2))


class TestCondEntropyAndFloor:
    def test_zero_information_channel(self):
        assert cond_entropy_lower(5.0, 0.0) == 5.0

    def test_arithmetic(self):
        assert cond_entropy_lower(0.0, LOG2) == pytest.approx(-LOG2)

    def test_matches_joint_gaussian_closed_form(self, rng):
        for _ in range(10):
            d_x = int(rng.integers(1, 7))
            d_z = int(rng.integers(1, d_x + 1))  # full-rank channel output
            spec = random_spec(rng, d_x=d_x, d_z=d_z)
            # Feature mixture: one Gaussian with the eigenvalues of the
            # channel's output covariance on its diagonal. The bound is
            # invariant under rotation of the feature space.
            sx = spec.x_cov
            z_cov = spec.channel @ sx @ spec.channel.T
            mix_z = GaussianMixture(
                components=[
                    GaussianComponent(
                        weight=1.0,
                        mean=np.zeros(spec.noise.dim),
                        cov=Covariance.diagonal(
                            np.linalg.eigvalsh(0.5 * (z_cov + z_cov.T)), ridge=0.0
                        ),
                    )
                ],
                dim=spec.noise.dim,
                dataset_size=100,
            )
            h_x = gaussian_entropy(spec.x_cov)
            mi = mi_upper_bound(mix_z, spec.noise)
            analytic = gaussian_entropy(posterior_covariance(spec))
            assert cond_entropy_lower(h_x, mi) == pytest.approx(analytic, abs=1e-9)

    def test_floor_gaussian_equality_case(self):
        d = 4
        h = (d / 2) * np.log(2 * np.pi * np.e * 0.04)
        assert mse_floor(h, d) == pytest.approx(0.04, abs=1e-12)

    def test_floor_zero_entropy(self):
        assert mse_floor(0.0, 1) == pytest.approx(1.0 / (2 * np.pi * np.e), abs=1e-12)

    def test_floor_scalar_wiener(self):
        spec = JointGaussianSpec(
            x_cov=np.eye(1),
            channel=np.array([[1.0]]),
            noise=NoiseModel(std=1.0, dim=1),
        )
        h_cond = gaussian_entropy(posterior_covariance(spec))
        assert mse_floor(h_cond, 1) == pytest.approx(0.5, abs=1e-12)
        assert minimal_mse_oracle(spec) == pytest.approx(0.5, abs=1e-12)


class TestMinimalMseOracle:
    def test_noiseless_channel(self):
        spec = JointGaussianSpec(
            x_cov=np.eye(3),
            channel=np.eye(3),
            noise=NoiseModel(std=1e-6, dim=3),
        )
        assert minimal_mse_oracle(spec) == pytest.approx(0.0, abs=1e-9)

    def test_uninformative_channel(self):
        x_cov = np.diag([1.0, 2.0, 3.0])
        spec = JointGaussianSpec(
            x_cov=x_cov, channel=np.zeros((2, 3)), noise=NoiseModel(std=1.0, dim=2)
        )
        assert minimal_mse_oracle(spec) == pytest.approx(2.0, abs=1e-12)

    def test_floor_tight_for_isotropic_posteriors(self, rng):
        for _ in range(20):
            spec = isotropic_spec(rng)
            h_cond = gaussian_entropy(posterior_covariance(spec))
            floor = mse_floor(h_cond, spec.x_cov.shape[0])
            assert floor == pytest.approx(minimal_mse_oracle(spec), abs=1e-9)

    def test_floor_below_oracle_generally(self, rng):
        for _ in range(20):
            spec = random_spec(rng)
            h_cond = gaussian_entropy(posterior_covariance(spec))
            floor = mse_floor(h_cond, spec.x_cov.shape[0])
            assert floor <= minimal_mse_oracle(spec) + 1e-12

    def test_wiener_gain_scalar(self):
        spec = JointGaussianSpec(
            x_cov=np.eye(1),
            channel=np.array([[1.0]]),
            noise=NoiseModel(std=1.0, dim=1),
        )
        assert wiener_gain(spec)[0, 0] == pytest.approx(0.5, abs=1e-12)


def updated_for_batch(mix, batch):
    """Run the weight update for one batch; returns the assignment and the
    weight-updated state, which the gradient takes."""
    assign = assign_nearest(batch, mix.means)
    return assign, update_weights(mix, assign)


class TestCemLoss:
    def test_alias_of_mi_bound(self, rng):
        mix = random_mixture(rng, 3, 2)
        noise = NoiseModel(std=0.4, dim=2)
        assert cem_loss(mix, noise) == mi_upper_bound(mix, noise)

    def test_pointlike_component_zero(self):
        mix = make_mixture([1.0], [[0.0]], [[0.0]], ridge=1e-12)
        assert cem_loss(mix, NoiseModel(std=1.0, dim=1)) == pytest.approx(0, abs=1e-9)

    def test_two_components_label_term(self):
        mix = make_mixture([0.5, 0.5], [[-5.0], [5.0]], [[0.0], [0.0]], ridge=1e-12)
        assert cem_loss(mix, NoiseModel(std=1.0, dim=1)) == pytest.approx(
            LOG2, abs=1e-9
        )

    def test_gaussian_channel(self):
        mix = make_mixture([1.0], [[0.0]], [[3.0]], ridge=0.0)
        assert cem_loss(mix, NoiseModel(std=1.0, dim=1)) == pytest.approx(
            LOG2, abs=1e-12
        )


class TestCemLossGrad:
    def test_zero_at_cluster_means(self):
        mix = make_mixture([0.5, 0.5], [[0.0, 0.0], [5.0, 5.0]], np.ones((2, 2)))
        batch = np.array([[0.0, 0.0], [5.0, 5.0], [0.0, 0.0]])
        assign, mid = updated_for_batch(mix, batch)
        noise = NoiseModel(std=0.5, dim=2)
        grad = cem_loss_grad(batch, assign, mid, noise)
        assert np.allclose(grad, 0.0, atol=1e-15)

    def test_sign_matches_residual(self):
        for z in (0.7, -0.4):
            mix = make_mixture([1.0], [[0.0]], [[1.0]], n=50)
            batch = np.array([[z]])
            assign, mid = updated_for_batch(mix, batch)
            grad = cem_loss_grad(batch, assign, mid, NoiseModel(std=0.5, dim=1))
            assert np.sign(grad[0, 0]) == np.sign(z)

    def test_matches_finite_differences(self, rng):
        noise = NoiseModel(std=0.5, dim=3)
        worst = 0.0
        for _ in range(100):
            mix = random_mixture(rng, 2, 3, n=60)
            batch = rng.uniform(-3.0, 3.0, size=(8, 3))
            assign, mid = updated_for_batch(mix, batch)
            grad = cem_loss_grad(batch, assign, mid, noise)

            def loss_of(z):
                return cem_loss(update_covariance(mid, assign, z), noise)

            fd = central_diff(loss_of, batch, step=1e-5)
            worst = max(worst, rel_error(grad, fd))
        assert worst <= 1e-5


class TestBoundsReport:
    def test_fields_consistent(self, rng):
        mix = random_mixture(rng, 3, 2)
        noise = NoiseModel(std=0.3, dim=2)
        report = bounds_report(mix, noise, h_x_offset=1.5, input_dim=4)
        assert report.cem_loss == report.mi_bound
        assert report.rel_cond_entropy == -report.mi_bound
        assert report.mse_floor == pytest.approx(
            mse_floor(1.5 - report.mi_bound, 4), abs=1e-15
        )
        assert report.mse_floor >= 0.0
