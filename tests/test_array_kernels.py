"""The array kernels against per-component references, with exact
equality: the training history's bytes depend on it.

The fused training step (`cem_step`) is checked against the public chain
(`assign_nearest`, `update_weights`, `update_covariance`, `cem_loss`,
`cem_loss_grad`) and against a per-component reference of the streaming
arithmetic; the vectorized refit (`fit_init`) against a per-component
Lloyd loop. The stacked forms (a leading run axis, as `train_many` runs
them) are checked against the same kernels run one run at a time. The
nearest-mean search is checked against the explicit-difference reference
on both sides of its switch to the Gram form. The per-batch kernels are
also checked never to write to their inputs, and to raise the public
chain's errors where the fused step's one-pass variance check fails."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from cemlab.bounds import NoiseModel, _penalty, cem_loss, cem_loss_grad, cem_step
from cemlab.errors import DegenerateData, NonPositiveDefinite
from cemlab.mixture import (
    GaussianComponent,
    GaussianMixture,
    MixtureState,
    _nearest,
    assign_nearest,
    blend_batch,
    fit_init,
    fit_init_many,
    update_covariance,
    update_weights,
)
from cemlab.numerics import Covariance, logsumexp_rows


def nearest(x, means):
    """Index of the nearest mean by squared Euclidean distance, ties to the
    lowest index."""
    return np.argmin(((x[:, None, :] - means[None]) ** 2).sum(axis=2), axis=1)


# Two distinct squared distances from the origin, exact in float64, whose
# square roots round to one value: the second mean is truly nearer, though a
# comparison of distances would tie and pick the first.
SQRT_TIE_MEANS = np.array([[67108881.0, 0.0], [67106996.0, 502988.0]])


def test_nearest_resolves_square_root_ties():
    x = np.zeros((1, 2))
    means = SQRT_TIE_MEANS
    sq = (means**2).sum(axis=1)
    assert sq[1] < sq[0] and np.sqrt(sq[0]) == np.sqrt(sq[1])
    assert assign_nearest(x, means).indices.tolist() == [1]
    stacked = assign_nearest(np.stack([x, x]), np.stack([means, means[::-1]]))
    assert stacked.indices.tolist() == [[1], [0]]
    assert nearest(x, means).tolist() == [1]
    # Past one block the search takes the Gram form, whose two values lie
    # within its slack: every row goes to the explicit kernel.
    many = np.zeros((3000, 2))
    assert (assign_nearest(many, means).indices == 1).all()


@given(
    n_runs=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=1, max_value=8),
    # One block holds 8192 // (k * d) rows: small inputs run the explicit
    # kernel, larger ones (alone or stacked) the Gram form.
    n=st.integers(1, 40) | st.integers(100, 700) | st.integers(2000, 8800),
    scale=st.sampled_from([-170, -160, -155, -150, -100, 0, 0, 100, 150]),
    grid=st.sampled_from([0, 1, 2, 16]),
    source=st.sampled_from(["random", "rows", "duplicate", "sqrt_tie"]),
    jitter=st.sampled_from([0, 1, 3]),
    bad=st.sampled_from([None, np.nan, np.inf, -np.inf]),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n_runs=6, k=9, d=8, n=480, scale=0, grid=0, source="random",
         jitter=0, bad=None, seed=1)
@example(n_runs=6, k=9, d=8, n=480, scale=-160, grid=16, source="duplicate",
         jitter=1, bad=np.nan, seed=2)
@settings(max_examples=300, deadline=None)
def test_nearest_equals_explicit_reference(
    n_runs, k, d, n, scale, grid, source, jitter, bad, seed
):
    """`_nearest` returns the explicit kernel's index for every row, solo
    and stacked: near and exact ties (rows and means rounded to a grid,
    means that are rows, duplicated means a few ulps apart), NaN and inf
    rows, and scales from subnormal squared distances to near overflow."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_runs, n, d))
    means = rng.standard_normal((n_runs, k, d))
    if grid:
        x, means = np.round(x * grid) / grid, np.round(means * grid) / grid
    if source == "rows":
        means = x[np.arange(n_runs)[:, None], rng.integers(0, n, size=(n_runs, k))]
    elif source == "duplicate" and k > 1:
        means[:, 1:] = means[:, rng.integers(0, k - 1)][:, None]
        means[:, 1:] *= 1.0 + jitter * 2.0**-52 * rng.choice([-1, 1], size=(k - 1, d))
    elif source == "sqrt_tie" and k > 1 and d > 1:
        x[:, ::2] = 0.0
        means[:] = 0.0
        means[:, :, :2] = SQRT_TIE_MEANS[0]
        means[:, 1, :2] = SQRT_TIE_MEANS[1]
    x *= 10.0**scale
    means *= 10.0**scale
    if bad is not None:
        x[rng.integers(0, n_runs, size=3), rng.integers(0, n, size=3),
          rng.integers(0, d, size=3)] = bad
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        want = np.stack([nearest(x[r], means[r]) for r in range(n_runs)])
        assert np.array_equal(_nearest(x, means), want)
        for r in range(n_runs):
            assert np.array_equal(_nearest(x[r], means[r]), want[r])


def reference_step(mix, batch, noise):
    """One batch, component by component, with NumPy reductions per
    component and a running sum over components."""
    z = np.asarray(batch, dtype=np.float64)
    k, d = mix.means.shape
    idx = nearest(z, mix.means)
    counts = np.bincount(idx, minlength=k)
    n_total, b = mix.dataset_size, z.shape[0]
    raw = mix.weights * (n_total - b) + counts
    w = np.maximum(raw / n_total, 1e-8)
    w = w / w.sum()
    v = noise.std**2
    ld_noise = float(np.sum(np.log(np.full(d, v))))
    var, penalty = [], 0.0
    grad = np.zeros_like(z)
    for j in range(k):
        n_j = int(counts[j])
        entries = mix.var[j]
        if n_j > 0:
            dev = z[idx == j] - mix.means[j]
            c = min(1.0, n_j / (float(w[j]) * n_total))
            entries = (1.0 - c) * entries + c * np.mean(dev * dev, axis=0)
        denom = entries + v + float(mix.ridge[j, 0])
        penalty += float(w[j]) * (
            -np.log(float(w[j])) + 0.5 * (float(np.sum(np.log(denom))) - ld_noise)
        )
        if n_j > 0:
            grad[idx == j] = float(w[j]) * c * dev / (n_j * denom)
        var.append(entries)
    return w, np.stack(var), penalty, grad


def reference_fit(x, k, iters, init_means):
    """Warm-started Lloyd rounds and the final within-cluster variances,
    component by component."""
    means = init_means.copy()
    assign = nearest(x, means)
    for _ in range(iters):
        for j in range(k):
            if (assign == j).any():
                means[j] = x[assign == j].mean(axis=0)
        new_assign = nearest(x, means)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    w = np.maximum(np.bincount(assign, minlength=k) / x.shape[0], 1e-8)
    var = np.zeros((k, x.shape[1]))
    for j in range(k):
        if (assign == j).any():
            dev = x[assign == j] - means[j]
            var[j] = np.mean(dev * dev, axis=0)
    return w / w.sum(), means, var


def random_case(seed, k, d, n_batch, rare):
    """A diagonal mixture, written by hand and read as a state, a batch and
    a noise model. Some components get
    tiny weights (blend coefficients that clamp to 1); batches smaller than
    k leave components without samples."""
    rng = np.random.default_rng(seed)
    raw = rng.uniform(0.05, 1.0, size=k)
    raw[:rare] = rng.uniform(1e-7, 1e-3, size=min(rare, k))
    ridges = rng.choice([0.0, 1e-6, 0.01], size=k)
    comps = [
        GaussianComponent(
            weight=float(w),
            mean=rng.uniform(-3.0, 3.0, size=d),
            cov=Covariance.diagonal(rng.uniform(0.01, 2.0, size=d), ridge=float(r)),
        )
        for w, r in zip(raw / raw.sum(), ridges)
    ]
    n_total = int(n_batch * rng.integers(1, 5))
    mix = MixtureState.of(GaussianMixture(components=comps, dim=d, dataset_size=n_total))
    batch = rng.uniform(-4.0, 4.0, size=(n_batch, d))
    return mix, batch, NoiseModel(std=float(rng.uniform(0.01, 1.0)), dim=d)


@given(
    k=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=1, max_value=8),
    n_batch=st.integers(min_value=1, max_value=64),
    rare=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=150, deadline=None)
def test_fused_step_equals_public_chain(k, d, n_batch, rare, seed):
    mix, batch, noise = random_case(seed, k, d, n_batch, rare)
    assign = assign_nearest(batch, mix.means)
    mid = update_weights(mix, assign)
    updated = update_covariance(mid, assign, batch)
    penalty = cem_loss(updated, noise)
    grad = cem_loss_grad(batch, assign, mid, noise)

    state, fused_penalty, fused_grad = cem_step(
        mix, assign, batch, noise.std**2, noise.logdet()
    )
    assert np.array_equal(state.weights, updated.weights)
    assert np.array_equal(state.var, updated.var)
    assert fused_penalty == penalty
    assert np.array_equal(fused_grad, grad)

    ref_w, ref_var, ref_penalty, ref_grad = reference_step(mix, batch, noise)
    assert np.array_equal(state.weights, ref_w)
    assert np.array_equal(state.var, ref_var)
    assert fused_penalty == ref_penalty
    assert np.array_equal(fused_grad, ref_grad)


@given(
    k=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=1, max_value=6),
    n=st.integers(min_value=9, max_value=200),
    iters=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100, deadline=None)
def test_refit_equals_per_component_lloyd(k, d, n, iters, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d)) + rng.integers(0, 3, size=(n, 1)) * 4.0
    init = rng.uniform(-2.0, 10.0, size=(k, d))
    mix = fit_init(x, k, seed=0, iters=iters, init_means=init, ridge=1e-6)
    ref_w, ref_means, ref_var = reference_fit(x, k, iters, init)
    assert np.array_equal(mix.weights, ref_w)
    assert np.array_equal(mix.means, ref_means)
    assert np.array_equal(mix.var, ref_var)


def test_cases_reach_empty_and_clamped_components():
    """The generator above does produce the edge cases it claims to."""
    empty = clamped = False
    for seed in range(200):
        mix, batch, noise = random_case(seed, 9, 3, 4, 3)
        assign = assign_nearest(batch, mix.means)
        mid = update_weights(mix, assign)
        empty |= bool(np.any(assign.counts == 0))
        raw = assign.counts / (mid.weights * mix.dataset_size)
        clamped |= bool(np.any(raw[assign.counts > 0] > 1.0))
    assert empty and clamped


def test_state_round_trip(rng):
    """A state written out by hand, component by component, reads back as
    its own arrays; a state reads as itself."""
    state = fit_init(rng.standard_normal((40, 3)), k=4, seed=1, ridge=0.5)
    comps = [
        GaussianComponent(float(w), mean, Covariance.diagonal(var, ridge=float(r[0])))
        for w, mean, var, r in zip(state.weights, state.means, state.var, state.ridge)
    ]
    back = MixtureState.of(
        GaussianMixture(components=comps, dim=3, dataset_size=state.dataset_size)
    )
    for name in ("weights", "means", "var", "ridge"):
        assert np.array_equal(getattr(back, name), getattr(state, name))
    assert back.dataset_size == state.dataset_size
    assert MixtureState.of(state) is state


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e200])
def test_non_finite_batch_raises(bad):
    mix, batch, noise = random_case(3, 3, 2, 6, 0)
    batch[2, 1] = bad
    with np.errstate(over="ignore", invalid="ignore"):
        assign = assign_nearest(batch, mix.means)
        with pytest.raises(NonPositiveDefinite, match="finite"):
            cem_step(mix, assign, batch, noise.std**2, noise.logdet())
        with pytest.raises(NonPositiveDefinite, match="finite"):
            update_covariance(update_weights(mix, assign), assign, batch)


def stack_states(states):
    return MixtureState(
        weights=np.stack([st.weights for st in states]),
        means=np.stack([st.means for st in states]),
        var=np.stack([st.var for st in states]),
        ridge=np.stack([st.ridge for st in states]),
        dataset_size=states[0].dataset_size,
    )


@given(
    n_runs=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=1, max_value=8),
    n_batch=st.integers(min_value=1, max_value=64),
    mult=st.integers(min_value=1, max_value=4),
    rare=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n_runs=4, k=9, d=1, n_batch=4, mult=1, rare=3, seed=5)
@example(n_runs=3, k=9, d=8, n_batch=16, mult=2, rare=2, seed=11)
@settings(max_examples=150, deadline=None)
def test_stacked_step_equals_runs_alone(n_runs, k, d, n_batch, mult, rare, seed):
    cases = [random_case(seed + r, k, d, n_batch, rare) for r in range(n_runs)]
    states = [replace(mix, dataset_size=n_batch * mult) for mix, _, _ in cases]
    batch = np.stack([b for _, b, _ in cases])
    noises = [noise for _, _, noise in cases]
    stacked = stack_states(states)

    assign = assign_nearest(batch, stacked.means)
    assert np.array_equal(assign.bins, np.arange(n_runs)[:, None] * k + assign.indices)
    blended = blend_batch(stacked, assign, batch)
    new, penalty, grad = cem_step(
        stacked, assign, batch,
        np.array([n.std**2 for n in noises])[:, None, None],
        np.array([[n.logdet()] for n in noises]),
    )
    for r, (state, noise) in enumerate(zip(states, noises)):
        alone = assign_nearest(batch[r], state.means)
        assert np.array_equal(assign.indices[r], alone.indices)
        assert np.array_equal(assign.counts[r], alone.counts)
        solo_blend = blend_batch(state, alone, batch[r])
        for got, want in zip(blended[1:], solo_blend[1:]):
            assert np.array_equal(got[r], want)
        assert np.array_equal(blended[0].var[r], solo_blend[0].var)
        solo, solo_penalty, solo_grad = cem_step(
            state, alone, batch[r], noise.std**2, noise.logdet()
        )
        assert np.array_equal(new.weights[r], solo.weights)
        assert np.array_equal(new.var[r], solo.var)
        assert penalty[r] == solo_penalty
        assert np.array_equal(grad[r], solo_grad)


@given(
    n_runs=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=9),
    d=st.integers(min_value=1, max_value=8),
    n=st.integers(min_value=9, max_value=300),
    warm=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**31),
)
@example(n_runs=4, k=9, d=8, n=480, warm=True, seed=2)
@example(n_runs=2, k=3, d=1, n=40, warm=False, seed=3)
@settings(max_examples=100, deadline=None)
def test_stacked_refit_equals_runs_alone(n_runs, k, d, n, warm, seed):
    """Runs converge after different numbers of Lloyd rounds, and some
    have fewer rounds to spend."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_runs, n, d))
    x += rng.integers(0, 3, size=(n_runs, n, 1)) * 4.0
    init = rng.uniform(-2.0, 10.0, size=(n_runs, k, d)) if warm else None
    iters = rng.integers(0, 11, size=n_runs)
    seeds = rng.integers(0, 2**31, size=n_runs).tolist()
    ridges = rng.choice([1e-6, 0.01], size=n_runs)
    state = fit_init_many(x, k, seeds, iters, init_means=init, ridges=ridges)
    for r in range(n_runs):
        alone = fit_init(
            x[r], k, seeds[r], int(iters[r]),
            init_means=None if init is None else init[r], ridge=float(ridges[r]),
        )
        assert np.array_equal(state.weights[r], alone.weights)
        assert np.array_equal(state.means[r], alone.means)
        assert np.array_equal(state.var[r], alone.var)
        assert np.array_equal(state.ridge[r], alone.ridge)


def test_stacked_refit_fails_per_run():
    # The stack raises the error of its one failing run, which raises it
    # alone too; the other runs fit, alone and as a stack.
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 30, 2))
    x[1] = x[1, :1]   # one distinct row
    x[2, :, 0] = 0.0  # distinct only through the second column
    with pytest.raises(DegenerateData) as info:
        fit_init_many(x, 4, [0, 1, 2], 10, ridges=1e-6)
    with pytest.raises(DegenerateData) as alone:
        fit_init_many(x[1:2], 4, [1], 10, ridges=1e-6)
    assert str(info.value) == str(alone.value) == "fewer than k=4 distinct feature vectors"
    for r in (0, 2):
        fit_init_many(x[r:r + 1], 4, [r], 10, ridges=1e-6)
    state = fit_init_many(x[[0, 2]], 4, [0, 2], 10, ridges=1e-6)
    assert state.weights.shape == (2, 4)


@pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
def test_stacked_step_fails_per_run(bad):
    cases = [random_case(s, 3, 2, 6, 0) for s in (3, 4, 5)]
    states = [replace(mix, dataset_size=12) for mix, _, _ in cases]
    batch = np.stack([b for _, b, _ in cases])
    batch[1, 2, 1] = bad
    stacked = stack_states(states)
    with np.errstate(over="ignore", invalid="ignore"):
        assign = assign_nearest(batch, stacked.means)
        with pytest.raises(NonPositiveDefinite, match="finite") as info:
            cem_step(stacked, assign, batch, np.full((3, 1, 1), 0.01), np.zeros((3, 1)))
        # Run 1 raises the same error alone; the others step.
        alone = [
            (state, assign_nearest(b, state.means), b) for state, b in zip(states, batch)
        ]
        for r in (0, 2):
            cem_step(*alone[r], 0.01, 0.0)
        with pytest.raises(NonPositiveDefinite) as solo:
            cem_step(*alone[1], 0.01, 0.0)
    assert str(solo.value) == str(info.value)


@pytest.mark.parametrize("bad", [None, np.inf, np.nan, 1e200])
@pytest.mark.parametrize("stacked", [False, True])
def test_kernels_never_write_to_inputs(stacked, bad):
    """`blend_batch` and `cem_step` compute in place on arrays of their own:
    the input state, batch and assignment keep their bytes whether the step
    succeeds or raises, and no array returned shares memory with them."""
    cases = [random_case(s, 9, 2, 6, 3) for s in (3, 4, 5)]
    states = [replace(mix, dataset_size=12) for mix, _, _ in cases]
    batch = np.stack([b for _, b, _ in cases])
    if bad is not None:
        batch[1, 2, 1] = bad
    state, noise_var, noise_logdet = stack_states(states), np.full((3, 1, 1), 0.01), np.zeros((3, 1))
    if not stacked:
        state, batch, noise_var, noise_logdet = states[1], batch[1], 0.01, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        assign = assign_nearest(batch, state.means)
        inputs = [state.weights, state.means, state.var, state.ridge, batch,
                  assign.indices, assign.counts]
        before = [a.tobytes() for a in inputs]
        for kernel in (
            lambda: blend_batch(state, assign, batch),
            lambda: cem_step(state, assign, batch, noise_var, noise_logdet),
        ):
            if bad is None:
                new, second, third = kernel()
                for out in (new.weights, new.var, second, third):
                    assert not any(np.shares_memory(out, a) for a in inputs)
            else:
                with pytest.raises(NonPositiveDefinite, match="finite"):
                    kernel()
            assert [a.tobytes() for a in inputs] == before


def overflowing_case(seed):
    """A mixture whose variances of 1.7e308 stay finite when blended but
    overflow once widened by a noise variance of 1.69e308."""
    mix, batch, _ = random_case(seed, 4, 3, 8, 0)
    return replace(mix, var=np.full((4, 3), 1.7e308)), batch, NoiseModel(std=1.3e154, dim=3)


@np.errstate(over="ignore")
def test_widened_overflow_raises_as_public_chain():
    """`cem_step` checks the blended and widened variances in one fast pass;
    where that pass fails it must raise what the public chain raises, solo
    and in a stack where only one run overflows."""
    mix, batch, noise = overflowing_case(7)
    assign = assign_nearest(batch, mix.means)
    updated = update_covariance(update_weights(mix, assign), assign, batch)
    with pytest.raises(NonPositiveDefinite) as chain:
        cem_loss(updated, noise)
    with pytest.raises(NonPositiveDefinite) as fused:
        cem_step(mix, assign, batch, noise.std**2, noise.logdet())
    assert str(fused.value) == str(chain.value)

    cases = [random_case(s, 4, 3, 8, 0) for s in (1, 2)]
    cases.insert(1, (mix, batch, noise))
    states = [replace(m, dataset_size=mix.dataset_size) for m, _, _ in cases]
    stacked = stack_states(states)
    batches = np.stack([b for _, b, _ in cases])
    noises = [n for _, _, n in cases]
    with pytest.raises(NonPositiveDefinite) as info:
        cem_step(
            stacked, assign_nearest(batches, stacked.means), batches,
            np.array([n.std**2 for n in noises])[:, None, None],
            np.array([[n.logdet()] for n in noises]),
        )
    assert str(info.value) == str(chain.value)


def running_sums(terms: np.ndarray) -> np.ndarray:
    """Each row of ``terms`` added in order from 0.0 in Python floats."""
    sums = []
    for row in terms.tolist():
        total = 0.0
        for value in row:
            total += value
        sums.append(total)
    return np.array(sums)


def same_bits(a, b) -> bool:
    """Equal float64 bits, except that any NaN matches any NaN."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return bool(
        np.array_equal(nan, np.isnan(b))
        and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64))
    )


@np.errstate(all="ignore")
def test_penalty_sum_is_a_running_sum(rng):
    """`_penalty` adds its per-component terms in order from 0.0, exactly as
    a Python running sum does, on rows that mix -0.0, +-inf, NaN,
    subnormals and sums that overflow. With d = 1 a term is
    w * (0.5 * (log(denom) - ld_ref) - log(w))."""
    tiny = 5e-324
    # (weight, denom) pairs: with ld_ref = tiny, (1, 1) gives the term -0.0,
    # and (tiny, 1) a subnormal.
    finite = np.array([(1.0, 1.0), (tiny, 1.0), (tiny, 2.0), (0.3, 1.7), (1.0, 1e-300)])
    # +inf, -inf, and NaN twice (log(nan), and 0 * inf).
    non_finite = np.array([(1.0, np.inf), (1.0, 0.0), (1.0, np.nan), (0.0, 1.0)])
    n_rows, k = 6000, 10
    picked = finite[rng.integers(0, len(finite), size=(n_rows, k))]
    rare = rng.random((n_rows, k)) < 0.04
    picked[rare] = non_finite[rng.integers(0, len(non_finite), size=rare.sum())]
    weights, denom = picked[..., 0], picked[..., 1:]
    drawn = rng.random((n_rows, k)) < 0.2
    weights[drawn] = rng.uniform(0.0, 1.0, size=drawn.sum())
    ld_ref = rng.choice([0.0, tiny, -tiny, -1e308, 1e308, 1.5], size=(n_rows, 1))
    # Rows of -0.0 terms only, which the running sum turns into +0.0.
    weights[:20], denom[:20], ld_ref[:20] = 1.0, 1.0, tiny

    terms = np.log(denom).sum(axis=-1)
    terms -= ld_ref
    terms *= 0.5
    terms -= np.log(weights)
    terms *= weights
    # The cases above must all occur.
    assert (np.signbit(terms) & (terms == 0)).any()
    assert np.isposinf(terms).any() and np.isneginf(terms).any()
    assert np.isnan(terms).any()
    assert ((terms != 0) & (np.abs(terms) < 2.2250738585072014e-308)).any()

    want = running_sums(terms)
    # Rows whose sum overflows, is NaN, is +0.0 or is subnormal.
    assert np.isinf(want[np.isfinite(terms).all(axis=1)]).any()
    assert np.isnan(want).any() and (want == 0).any()
    assert ((want != 0) & (np.abs(want) < 2.2250738585072014e-308)).any()
    assert same_bits(_penalty(weights, denom, ld_ref), want)
    for r in range(0, n_rows, 97):
        solo = _penalty(weights[r], denom[r], ld_ref[r, 0])
        assert type(solo) is float
        assert same_bits(solo, want[r])


def test_logsumexp_rows_keeps_scipys_bits_without_warnings(rng):
    """Rows with +-inf, NaN or only -inf take the fallback; the result
    keeps scipy's bits (NaN for NaN), stacked too, and no warning leaks."""
    inf, nan = np.inf, np.nan
    specials = np.array([inf, -inf, nan, 1e308, -1e308, 0.0, -0.0, 5e-324])
    z = rng.standard_normal((3, 200, 3))
    spots = rng.random(z.shape) < 0.3
    z[spots] = rng.choice(specials, size=spots.sum())
    z[0, :8] = -inf
    z[1, :4] = [[inf, inf, 0.0], [nan, nan, nan], [-inf, inf, nan], [inf, -inf, 1.0]]
    with np.errstate(all="ignore"):
        want = logsumexp(z, axis=-1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp_rows(z)
        flat = logsumexp_rows(z[1])
    assert same_bits(got, want)
    assert same_bits(flat, want[1])
    assert np.isnan(want).any() and np.isneginf(want).any() and np.isposinf(want).any()
