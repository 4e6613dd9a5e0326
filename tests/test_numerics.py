import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    gaussian_entropy,
    grouped_direct_rounding_bound,
    make_mixture,
    mc_entropy_whole_array,
    neg_logp_direct,
    neg_logp_grouped,
    random_mixture,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemlab.bounds import LOG_2PIE, NoiseModel
from cemlab import numerics
from cemlab.errors import NonPositiveDefinite, ShapeMismatch
from cemlab.mixture import GaussianComponent, GaussianMixture
from cemlab.numerics import _MC_BLOCK, Covariance, mc_entropy

HALF_LOG_2PIE = 1.4189385332046727
LOG2 = 0.6931471805599453


def mix_1d(weights, means, variances, ridge=0.0):
    comps = [
        GaussianComponent(
            weight=w,
            mean=np.array([m], dtype=np.float64),
            cov=Covariance.diagonal([v], ridge=ridge),
        )
        for w, m, v in zip(weights, means, variances)
    ]
    return GaussianMixture(components=comps, dim=1, dataset_size=1000)


def entropy_logdet(c) -> float:
    """The log-determinant inside the helper's ``gaussian_entropy``:
    2 h - d log(2 pi e)."""
    c = np.asarray(c, dtype=np.float64)
    return 2.0 * gaussian_entropy(c) - c.shape[0] * LOG_2PIE


class TestLogdet:
    """The Cholesky log-determinant of the jointly-Gaussian reference,
    through the helper's ``gaussian_entropy``, and the refusals of
    ``Covariance.diagonal``."""

    def test_identity(self):
        assert entropy_logdet(np.eye(2)) == pytest.approx(0.0, abs=1e-12)

    def test_scalar_log(self):
        assert entropy_logdet([[np.exp(2.0)]]) == pytest.approx(2.0, abs=1e-12)

    def test_full_2x2(self):
        # det [[2,1],[1,2]] = 3 by cofactor expansion
        c = [[2.0, 1.0], [1.0, 2.0]]
        assert entropy_logdet(c) == pytest.approx(np.log(3.0), abs=1e-12)

    def test_matches_eigenvalue_route(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 9))
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            eigs = rng.uniform(0.5, 3.0, size=d)
            a = q @ np.diag(eigs) @ q.T
            c = 0.5 * (a + a.T)
            expected = float(np.sum(np.log(np.linalg.eigvalsh(c))))
            assert abs(entropy_logdet(c) - expected) <= 1e-9

    def test_non_pd_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            gaussian_entropy([[1.0, 2.0], [2.0, 1.0]])

    def test_zero_diag_requires_ridge(self):
        with pytest.raises(NonPositiveDefinite):
            Covariance.diagonal([0.0], ridge=0.0)
        c = Covariance.diagonal([0.0], ridge=1e-6)
        assert np.isfinite(np.log(c.entries + c.ridge)).all()

    def test_negative_diag_rejected(self):
        with pytest.raises(NonPositiveDefinite):
            Covariance.diagonal([-0.1, 1.0])


class TestMcEntropy:
    def test_single_gaussian(self):
        mix = mix_1d([1.0], [0.0], [0.0], ridge=1e-12)
        est = mc_entropy(mix, NoiseModel(std=1.0, dim=1), n_samples=10**6, seed=7)
        assert abs(est.value - HALF_LOG_2PIE) <= 3 * est.std_error
        assert est.std_error < 0.01

    def test_separated_mixture(self):
        # Label entropy log 2 plus the shared component entropy.
        mix = mix_1d([0.5, 0.5], [0.0, 100.0], [0.0, 0.0], ridge=1e-12)
        est = mc_entropy(mix, NoiseModel(std=1.0, dim=1), n_samples=10**6, seed=11)
        assert abs(est.value - (LOG2 + HALF_LOG_2PIE)) <= 3 * est.std_error

    def test_coincident_components_collapse(self):
        mix = mix_1d([0.5, 0.5], [0.0, 0.0], [0.0, 0.0], ridge=1e-12)
        est = mc_entropy(mix, NoiseModel(std=1.0, dim=1), n_samples=10**6, seed=13)
        assert abs(est.value - HALF_LOG_2PIE) <= 3 * est.std_error

    def test_deterministic_for_seed(self):
        mix = mix_1d([0.3, 0.7], [0.0, 2.0], [0.5, 0.1], ridge=0.0)
        noise = NoiseModel(std=0.5, dim=1)
        a = mc_entropy(mix, noise, n_samples=10**4, seed=42)
        b = mc_entropy(mix, noise, n_samples=10**4, seed=42)
        assert a.value == b.value and a.std_error == b.std_error

    def test_std_error_shrinks_with_doubling(self):
        mix = mix_1d([0.4, 0.6], [0.0, 3.0], [0.8, 0.3], ridge=0.0)
        noise = NoiseModel(std=0.7, dim=1)
        ratios = []
        for seed in (1, 2, 3):
            small = mc_entropy(mix, noise, n_samples=2 * 10**4, seed=seed)
            large = mc_entropy(mix, noise, n_samples=4 * 10**4, seed=seed)
            ratios.append(small.std_error / large.std_error)
        for r in ratios:
            assert 1.2 <= r <= 1.7

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_rejected(self, n):
        mix = mix_1d([1.0], [0.0], [1.0])
        with pytest.raises(ValueError, match="n_samples"):
            mc_entropy(mix, NoiseModel(std=0.5, dim=1), n_samples=n, seed=0)

    def test_peak_memory_is_bounded(self):
        """One call at 10^6 samples, k=9, d=8 stays far below the ~580 MB
        that full-length (n, d) intermediates take."""
        mix = random_mixture(np.random.default_rng(5), 9, 8)
        noise = NoiseModel(std=0.3, dim=8)
        tracemalloc.start()
        try:
            mc_entropy(mix, noise, n_samples=10**6, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 2**20


class TestMcEntropyRefusals:
    """A mixture the oracle cannot read is refused before any draw, with
    the closed-form bounds' texts."""

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def seeded_rng(*args):
            raise AssertionError("drew before refusing")
        monkeypatch.setattr(numerics, "seeded_rng", seeded_rng)

    def test_noise_of_another_width_refused(self):
        mix = random_mixture(np.random.default_rng(0), 2, 3)
        with pytest.raises(ShapeMismatch, match="^a mixture of width 3 beside noise of dim 5$"):
            mc_entropy(mix, NoiseModel(std=0.5, dim=5), n_samples=10**4, seed=0)

    @pytest.mark.parametrize("weights", [
        [0.5, -0.1, 0.6], [0.5, np.nan, 0.5], [0.0, 0.0, 0.0], [1.0, np.inf, 1.0],
        [1e308, 1e308, 1e308],
    ], ids=["negative", "nan", "all zero", "infinite", "sum overflows"])
    def test_bad_weights_refused(self, weights):
        # rng.choice once refused these, after the generator was seeded and
        # after np.log's warnings.
        mix = replace(random_mixture(np.random.default_rng(0), 3, 2), weights=np.array(weights))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^mc_entropy needs nonnegative weights"):
                mc_entropy(mix, NoiseModel(std=0.5, dim=2), n_samples=10**4, seed=0)


def bounded(call, seconds=120):
    """``call()`` in its own thread, joined with a timeout: a pipeline that
    hangs fails the test instead of stalling the suite. Returns the result
    or raises the error."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except Exception as exc:
            outcome["error"] = exc

    worker = threading.Thread(target=target)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), "the call did not end"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


# Five blocks: both buffer sets are reused and the last block is short.
PIPELINE_SAMPLES = 4 * _MC_BLOCK + 5


class TestMcEntropyPipeline:
    """The oracle's two stages (draws and log-sum-exp on the calling
    thread, scoring on one helper) end together: no thread outlives a call,
    whether it returns or raises, and an error in either stage reaches the
    caller."""

    def test_no_thread_outlives_a_call(self):
        mix = random_mixture(np.random.default_rng(1), 4, 3)
        noise = NoiseModel(std=0.3, dim=3)
        before = threading.active_count()
        est = bounded(lambda: mc_entropy(mix, noise, PIPELINE_SAMPLES, seed=9))
        assert np.isfinite(est.value)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 1, 4])
    def test_helper_error_reaches_the_caller(self, monkeypatch, failing):
        calls = []
        real = numerics._score_block

        def score_block(*args):
            calls.append(None)
            if len(calls) > failing:
                raise RuntimeError(f"block {failing} failed")
            return real(*args)

        monkeypatch.setattr(numerics, "_score_block", score_block)
        mix = random_mixture(np.random.default_rng(2), 3, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^block {failing} failed$"):
            bounded(lambda: mc_entropy(
                mix, NoiseModel(std=0.3, dim=2), PIPELINE_SAMPLES, seed=1
            ))
        assert threading.active_count() == before
        assert len(calls) == failing + 1

    def test_caller_stage_error_ends_the_helper(self, monkeypatch):
        def logsumexp_rows(terms):
            raise RuntimeError("log-sum-exp failed")

        monkeypatch.setattr(numerics, "logsumexp_rows", logsumexp_rows)
        mix = random_mixture(np.random.default_rng(3), 3, 2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="^log-sum-exp failed$"):
            bounded(lambda: mc_entropy(
                mix, NoiseModel(std=0.3, dim=2), PIPELINE_SAMPLES, seed=1
            ))
        assert threading.active_count() == before

    def test_helper_runs_in_a_copy_of_the_callers_context(self, monkeypatch):
        """The helper runs in ``contextvars.copy_context()`` of the caller:
        ``np.errstate`` is per context (NumPy 2), so a helper started in a
        fresh context would warn, or raise, where its caller chose
        otherwise."""
        seen = []
        real = numerics._score_block

        def score_block(*args):
            seen.append(np.geterr())
            return real(*args)

        monkeypatch.setattr(numerics, "_score_block", score_block)
        mix = random_mixture(np.random.default_rng(4), 3, 2)

        def call():
            with np.errstate(all="ignore", over="raise"):
                mc_entropy(mix, NoiseModel(std=0.3, dim=2), PIPELINE_SAMPLES, seed=2)
                return np.geterr()

        chosen = bounded(call)
        assert chosen["over"] == "raise" and chosen["invalid"] == "ignore"
        assert seen == [chosen] * 5

    def test_concurrent_calls_keep_their_bits(self):
        # More pipelines than cores, switching threads as often as the
        # interpreter allows: a block scored into the wrong buffer set or
        # scattered to the wrong rows would change a result's bits.
        cases = [(random_mixture(np.random.default_rng(s), k, d), d, s)
                 for s, (k, d) in enumerate([(9, 8), (3, 2), (6, 4)])]
        want = [
            repr(mc_entropy(mix, NoiseModel(std=0.2, dim=d), PIPELINE_SAMPLES, seed=s))
            for mix, d, s in cases
        ]
        got = [None] * len(cases)

        def run(i):
            mix, d, s = cases[i]
            got[i] = repr(mc_entropy(mix, NoiseModel(std=0.2, dim=d), PIPELINE_SAMPLES, seed=s))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=run, args=(i,)) for i in range(len(cases))]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert got == want


def degenerate_mixture(k, d, seed, n_zero_weights, zero_variances, mean_scale=1.0):
    """A random k-component mixture in d dimensions, with up to k-1
    zero-weight components and, optionally, about half its variances 0."""
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.05, 1.0, size=k)
    weights[: min(n_zero_weights, k - 1)] = 0.0
    variances = rng.uniform(0.05, 2.0, size=(k, d))
    if zero_variances:
        variances[rng.random((k, d)) < 0.5] = 0.0
    return make_mixture(
        weights / weights.sum(),
        rng.uniform(-3.0, 3.0, size=(k, d)) * mean_scale,
        variances,
        ridge=1e-12,
    )


# Both sides of the first block boundary and a short fourth block, then the
# sizes these cases had at a block of 2**15 rows (the seed-1920 example below
# was found at 98311), on both sides of a later boundary.
ORACLE_SIZES = [
    2, 777, _MC_BLOCK - 1, _MC_BLOCK, _MC_BLOCK + 1, 3 * _MC_BLOCK + 7,
    2**15 - 1, 2**15, 2**15 + 1, 3 * 2**15 + 7,
]


class TestMcEntropyBlocks:
    """The row-blocked oracle reproduces the whole-array reference bit for
    bit, on both sides of every block boundary."""

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(
        k=st.integers(1, 9),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        n_zero_weights=st.integers(0, 8),
        zero_variances=st.booleans(),
        noise_std=st.sampled_from([0.0, 0.05, 1.3]),
    )
    @example(k=9, d=8, seed=0, n_zero_weights=3, zero_variances=False, noise_std=0.0)
    @example(k=5, d=3, seed=1, n_zero_weights=0, zero_variances=True, noise_std=0.0)
    # Seventeen components: the log-sum-exp's row sums fill two blocks of
    # eight lanes.
    @example(k=17, d=3, seed=2, n_zero_weights=4, zero_variances=False, noise_std=0.05)
    # One component: feature-major features would sum its products in
    # another order, and at n=2 the last bit moved.
    @example(k=1, d=6, seed=0, n_zero_weights=0, zero_variances=False, noise_std=0.05)
    # Many cdf edges, some of them equal: the zero weights' components.
    @example(k=64, d=3, seed=3, n_zero_weights=20, zero_variances=False, noise_std=0.05)
    # The first k whose choices need a uint16 key.
    @example(k=257, d=1, seed=4, n_zero_weights=0, zero_variances=False, noise_std=0.05)
    def test_matches_whole_array_reference(
        self, n, k, d, seed, n_zero_weights, zero_variances, noise_std
    ):
        mix = degenerate_mixture(k, d, seed, n_zero_weights, zero_variances)
        noise = NoiseModel(std=noise_std, dim=d)
        with np.errstate(all="ignore"):
            got = mc_entropy(mix, noise, n_samples=n, seed=seed)
            want = mc_entropy_whole_array(mix, noise, n_samples=n, seed=seed)
        assert repr(got.value) == repr(want.value)
        assert repr(got.std_error) == repr(want.std_error)


class TestMcEntropyForms:
    """The grouped form of -log p(z) differs from the direct form (each
    sample drawn as m_c + s_c z and scored from its deviations) by rounding
    only, sample by sample on the same stream. The direct form's error
    grows with ulp(|m_c|) / s_c, so means are scaled past the default only
    in the separated case of criterion 3."""

    @pytest.mark.parametrize("n", ORACLE_SIZES)
    @settings(max_examples=10, deadline=None)
    @given(
        k=st.integers(1, 9),
        d=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        n_zero_weights=st.integers(0, 8),
        zero_variances=st.booleans(),
        noise_std=st.sampled_from([0.0, 0.05, 1.3]),
        mean_scale=st.just(1.0),
    )
    @example(k=9, d=8, seed=0, n_zero_weights=3, zero_variances=False, noise_std=0.0,
             mean_scale=1.0)
    @example(k=5, d=3, seed=1, n_zero_weights=0, zero_variances=True, noise_std=0.0,
             mean_scale=1.0)
    @example(k=3, d=2, seed=400, n_zero_weights=0, zero_variances=False, noise_std=0.5,
             mean_scale=500.0)
    @example(k=17, d=3, seed=2, n_zero_weights=4, zero_variances=False, noise_std=0.05,
             mean_scale=1.0)
    # Samples of a wide component that land near a component of std 0.05:
    # their terms under it cancel from about 1e4 to a few units.
    @example(k=4, d=2, seed=1920, n_zero_weights=0, zero_variances=True, noise_std=0.05,
             mean_scale=1.0)
    def test_per_sample_difference_from_direct_form(
        self, n, k, d, seed, n_zero_weights, zero_variances, noise_std, mean_scale
    ):
        mix = degenerate_mixture(k, d, seed, n_zero_weights, zero_variances, mean_scale)
        noise = NoiseModel(std=noise_std, dim=d)
        with np.errstate(all="ignore"):
            grouped = neg_logp_grouped(mix, noise, n, seed)
            direct = neg_logp_direct(mix, noise, n, seed)
            bound = grouped_direct_rounding_bound(mix, noise, n, seed)
        nan = np.isnan(direct)
        np.testing.assert_array_equal(np.isnan(grouped), nan)
        gap = np.abs(grouped[~nan] - direct[~nan])
        # 1e-12 relative covers the constants and the log-sum-exp; the
        # quadratic forms' rounding gets its derived bound.
        tolerance = 1e-12 * np.maximum(1.0, np.abs(direct[~nan])) + bound[~nan]
        assert (gap <= tolerance).all()
