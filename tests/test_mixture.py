import json

import numpy as np
import pytest
from helpers import UNWRITABLE, write_mixture
from hypothesis import given, settings
from hypothesis import strategies as st

from cemlab.errors import DegenerateData, ParseError, ShapeMismatch
from cemlab.mixture import (
    BatchAssignment,
    MixtureState,
    assign_nearest,
    blend_weights,
    fit_init,
    load_mixture,
    save_mixture,
    update_covariance,
    update_weights,
)


def make_mixture(weights, means, variances, n=100):
    return MixtureState.of(write_mixture(weights, means, variances, n, ridge=1e-6))


class TestFitInit:
    def test_two_separated_blobs(self):
        rng = np.random.default_rng(3)
        pts = np.concatenate(
            [
                rng.normal(-10.0, 0.1, size=(100, 1)),
                rng.normal(10.0, 0.1, size=(100, 1)),
            ]
        )
        mix = fit_init(pts, k=2, seed=5, iters=20)
        means = sorted(mix.means[:, 0])
        assert abs(means[0] + 10.0) < 0.1 and abs(means[1] - 10.0) < 0.1
        assert np.all(abs(mix.weights - 0.5) < 0.02)

    def test_singleton_clusters(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        mix = fit_init(pts, k=3, seed=1, iters=5)
        found = sorted(map(tuple, mix.means))
        assert np.allclose(found, sorted(map(tuple, pts)))
        assert mix.weights == pytest.approx(np.full(3, 1.0 / 3.0))
        assert np.all(mix.var == 0.0)

    def test_indistinct_data_rejected(self):
        pts = np.ones((10, 2))
        with pytest.raises(DegenerateData):
            fit_init(pts, k=2, seed=0, iters=3)

    def test_warm_start_keeps_component_order(self):
        rng = np.random.default_rng(9)
        pts = np.concatenate(
            [rng.normal(-5, 0.2, size=(50, 1)), rng.normal(5, 0.2, size=(50, 1))]
        )
        init = np.array([[-4.0], [4.0]])
        mix = fit_init(pts, k=2, seed=0, iters=10, init_means=init)
        assert mix.means[0, 0] < 0 < mix.means[1, 0]

    def test_permutation_invariant_given_fixed_seeding(self, rng):
        pts = rng.normal(size=(120, 3)) + np.repeat(
            np.array([[0.0, 0, 0], [6.0, 6, 6], [-6.0, 6, -6]]), 40, axis=0
        )
        init = np.array([[0.0, 0, 0], [5.0, 5, 5], [-5.0, 5, -5]])
        mix_a = fit_init(pts, k=3, seed=0, iters=10, init_means=init)
        perm = rng.permutation(len(pts))
        mix_b = fit_init(pts[perm], k=3, seed=0, iters=10, init_means=init)
        assert np.allclose(mix_a.means, mix_b.means, atol=1e-9)
        assert np.allclose(mix_a.var, mix_b.var, atol=1e-9)
        assert mix_a.weights == pytest.approx(mix_b.weights, abs=1e-12)


class TestAssignNearest:
    def test_exact_mean_hit(self):
        mix = make_mixture([0.3, 0.3, 0.4], [[0.0], [5.0], [9.0]], [[1], [1], [1]])
        out = assign_nearest(np.array([[9.0]]), mix.means)
        assert out.indices.tolist() == [2]

    def test_tie_breaks_to_lowest_index(self):
        mix = make_mixture([0.5, 0.5], [[-1.0], [1.0]], [[1], [1]])
        out = assign_nearest(np.array([[0.0]]), mix.means)
        assert out.indices.tolist() == [0]

    def test_counts_match_construction(self, rng):
        means = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 10.0]])
        mix = make_mixture([1 / 3] * 3, means, np.ones((3, 2)))
        wanted = rng.integers(0, 3, size=10)
        batch = means[wanted] + 0.01 * rng.standard_normal((10, 2))
        out = assign_nearest(batch, mix.means)
        assert np.array_equal(out.indices, wanted)
        assert np.array_equal(out.counts, np.bincount(wanted, minlength=3))
        assert out.counts.sum() == out.batch_size == 10


class TestUpdateWeights:
    def test_fixed_point(self):
        mix = make_mixture([0.3, 0.7], [[0.0], [1.0]], [[1], [1]], n=100)
        assign = BatchAssignment(
            indices=np.array([0] * 3 + [1] * 7), counts=np.array([3, 7]), batch_size=10
        )
        out = update_weights(mix, assign)
        assert out.weights[0] == pytest.approx(0.30, abs=1e-12)

    def test_single_component(self):
        mix = make_mixture([1.0], [[0.0]], [[1]], n=50)
        assign = BatchAssignment(
            indices=np.zeros(5, dtype=int), counts=np.array([5]), batch_size=5
        )
        assert update_weights(mix, assign).weights[0] == pytest.approx(1.0)

    def test_hand_arithmetic(self):
        mix = make_mixture([0.3, 0.7], [[0.0], [1.0]], [[1], [1]], n=100)
        assign = BatchAssignment(
            indices=np.array([0] * 5 + [1] * 5), counts=np.array([5, 5]), batch_size=10
        )
        out = update_weights(mix, assign)
        assert out.weights[0] == pytest.approx(0.32, abs=1e-12)
        assert out.weights[1] == pytest.approx(0.68, abs=1e-12)

    @given(
        k=st.integers(min_value=1, max_value=6),
        n_batch=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, k, n_batch, seed):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.05, 1.0, size=k)
        weights = raw / raw.sum()
        mix = make_mixture(
            weights, rng.standard_normal((k, 2)), np.ones((k, 2)), n=200
        )
        idx = rng.integers(0, k, size=n_batch)
        assign = BatchAssignment(
            indices=idx, counts=np.bincount(idx, minlength=k), batch_size=n_batch
        )
        out = update_weights(mix, assign)
        assert abs(out.weights.sum() - 1.0) < 1e-9


class TestUpdateCovariance:
    def test_empty_cluster_untouched(self):
        mix = make_mixture([0.5, 0.5], [[0.0], [10.0]], [[2.0], [3.0]], n=100)
        batch = np.array([[0.1], [-0.1]])
        assign = assign_nearest(batch, mix.means)
        out = update_covariance(mix, assign, batch)
        assert np.array_equal(out.var[1], [3.0])

    def test_fixed_point_when_delta_matches(self):
        mix = make_mixture([1.0], [[0.0]], [[4.0]], n=100)
        batch = np.array([[2.0], [-2.0]])  # delta about the mean is exactly 4
        assign = assign_nearest(batch, mix.means)
        out = update_covariance(mix, assign, batch)
        assert out.var[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_half_blend_coefficient(self):
        # n_j = pi_j * N / 2 gives an even blend of old and batch covariance.
        mix = make_mixture([0.5, 0.5], [[0.0], [100.0]], [[1.0], [1.0]], n=100)
        a = 3.0
        batch = np.concatenate([np.full((12, 1), a), np.full((13, 1), -a)])
        batch[-1] = a  # keep 25 rows assigned to component 0
        assign = assign_nearest(batch, mix.means)
        assert assign.counts[0] == 25
        delta = float(np.mean(batch**2))
        out = update_covariance(mix, assign, batch)
        assert out.var[0, 0] == pytest.approx(
            0.5 * 1.0 + 0.5 * delta, rel=1e-12
        )

    def test_blend_clamped_for_rare_component(self):
        # Tiny weight makes the raw coefficient exceed 1; the blend clamps
        # to full replacement instead of overshooting.
        mix = make_mixture([0.01, 0.99], [[0.0], [100.0]], [[5.0], [1.0]], n=100)
        batch = np.full((10, 1), 2.0)
        assign = assign_nearest(batch, mix.means)
        out = update_covariance(mix, assign, batch)
        assert out.var[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_positivity_after_update_chain(self, rng):
        mix = make_mixture(
            [0.25] * 4, rng.standard_normal((4, 3)), np.ones((4, 3)), n=500
        )
        for _ in range(30):
            batch = rng.standard_normal((20, 3)) * 2.0
            assign = assign_nearest(batch, mix.means)
            mix = update_weights(mix, assign)
            mix = update_covariance(mix, assign, batch)
            assert np.all(mix.var >= 0.0)

    def test_geometric_convergence_to_batch_covariance(self):
        mix = make_mixture([0.5, 0.5], [[0.0], [50.0]], [[9.0], [1.0]], n=100)
        batch = np.array([[1.0], [-1.0], [0.5], [-0.5]])
        assign = assign_nearest(batch, mix.means)
        delta = float(np.mean(batch**2))
        c = assign.counts[0] / (0.5 * 100)
        dist = abs(9.0 - delta)
        for _ in range(5):
            mix = update_covariance(mix, assign, batch)
            new_dist = abs(float(mix.var[0, 0]) - delta)
            assert new_dist == pytest.approx((1.0 - c) * dist, rel=1e-9)
            dist = new_dist


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        mix = make_mixture(
            [0.25, 0.75],
            rng.standard_normal((2, 3)),
            rng.uniform(0.01, 2.0, size=(2, 3)),
            n=321,
        )
        path = tmp_path / "mixture.json"
        save_mixture(mix, path)
        back = load_mixture(path)
        assert back.means.shape == (2, 3) and back.dataset_size == 321
        assert np.array_equal(back.weights, mix.weights)
        assert np.array_equal(back.means, mix.means)
        assert np.array_equal(back.var, mix.var)
        assert np.array_equal(back.ridge, np.full((2, 1), 1e-12))

    def test_schema_fields(self, tmp_path):
        mix = make_mixture([1.0], [[0.5, 0.25]], [[0.1, 0.2]], n=7)
        path = tmp_path / "m.json"
        save_mixture(mix, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"dim", "dataset_size", "components"}
        assert set(doc["components"][0]) == {"weight", "mean", "cov_diag"}

    def test_corrupt_checkpoint(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ParseError):
            load_mixture(path)

    @pytest.mark.parametrize("key", ["mean", "cov_diag", "components"])
    def test_truncated_checkpoint_refused(self, tmp_path, key):
        # A short cov_diag once loaded and changed the bound; a short mean,
        # or no component at all, failed outside the parser, as a bare
        # ValueError.
        mix = make_mixture([0.5, 0.5], np.zeros((2, 8)), np.ones((2, 8)), n=10)
        path = tmp_path / "m.json"
        save_mixture(mix, path)
        doc = json.loads(path.read_text())
        if key == "components":
            doc["components"] = []
        else:
            doc["components"][1][key] = doc["components"][1][key][:3]
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_mixture(path)

    @pytest.mark.parametrize("case", list(UNWRITABLE))
    def test_unwritable_checkpoint_refused(self, tmp_path, case):
        mix = make_mixture([0.25, 0.25, 0.5], np.zeros((3, 2)), np.ones((3, 2)), n=10)
        path = tmp_path / "m.json"
        save_mixture(mix, path)
        doc = json.loads(path.read_text())
        UNWRITABLE[case](doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_mixture(path)

    def test_weight_sum_tolerance_edge_loads(self, tmp_path):
        # 1 + 2**-51 is 2 units of 2**-52 from 1, within k = 3 of them.
        mix = make_mixture([0.25, 0.25, 0.5 + 2.0**-52], np.zeros((3, 2)), np.ones((3, 2)))
        save_mixture(mix, tmp_path / "m.json")
        assert load_mixture(tmp_path / "m.json").weights[2] == 0.5 + 2.0**-52

    @given(
        k=st.integers(min_value=1, max_value=64),
        n_batch=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_blended_weights_load(self, tmp_path_factory, k, n_batch, seed):
        """Training's weights, renormalized and then blended, pass the
        loader's sum check."""
        rng = np.random.default_rng(seed)
        raw = rng.uniform(1e-6, 1.0, size=k) ** rng.uniform(0.1, 8.0)
        counts = rng.multinomial(n_batch, rng.dirichlet(np.ones(k)))
        weights = blend_weights(raw / raw.sum(), counts, n_batch, n_batch + 5 * k)
        mix = make_mixture(weights, np.zeros((k, 1)), np.ones((k, 1)), n=n_batch + 5 * k)
        path = tmp_path_factory.mktemp("blended") / "m.json"
        save_mixture(mix, path)
        assert np.array_equal(load_mixture(path).weights, weights)

    def test_dim_mismatch_rejected(self):
        mix = make_mixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
        with pytest.raises(ShapeMismatch):
            assign_nearest(np.zeros((2, 3)), mix.means)
