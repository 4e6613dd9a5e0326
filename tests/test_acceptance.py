"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The heavy criteria train real models; the full module takes a few
minutes on one core.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from helpers import (
    gaussian_posterior_attacker,
    isotropic_spec,
    make_mixture,
    random_mixture,
)
from scipy import stats

from cemlab.adversary import (
    AttackConfig,
    evaluate_attack,
    train_attacker_many,
)
from cemlab.bounds import (
    NoiseModel,
    cem_loss,
    cem_loss_grad,
    gaussian_entropy,
    minimal_mse_oracle,
    mixture_entropy_upper,
    mse_floor,
    posterior_covariance,
)
from cemlab.cli import DEFAULT_CONFIG, cmd_sweep, cmd_train
from cemlab.data import Dataset, synth_blobs
from cemlab.mixture import (
    BatchAssignment,
    assign_nearest,
    update_covariance,
    update_weights,
)
from cemlab.network import (
    Layer,
    NeuralModule,
    backward,
    forward,
    init_network,
    task_loss,
)
from cemlab.numerics import mc_entropy
from cemlab.trainer import TrainingConfig, evaluate_utility, train_many
from conftest import central_diff, rel_error

# Desk-scale calibrated settings for the criterion runs; the published
# hyperparameters (penalty weight 16, noise std 0.025, k = 3n) stay fixed,
# while step size, batch size, and budgets are sized for ~500 samples.
TRAIN_KW = dict(noise_std=0.025, epochs=300, lr=0.001, batch_size=16)
ATTACK_KW = dict(epochs=150, lr=0.01)


def solo_result(result):
    """A stacked run's result, or the error it raised."""
    if isinstance(result, Exception):
        raise result
    return result


def report(num: int, name: str, ok: bool, detail: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status} ({detail}; {time.time()-started:.1f}s)")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_1_floor_equality_gaussian_case():
    started = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        spec = isotropic_spec(rng)
        h_cond = gaussian_entropy(posterior_covariance(spec))
        floor = mse_floor(h_cond, spec.x_cov.dim)
        worst = max(worst, abs(floor - minimal_mse_oracle(spec)))
    report(1, "entropy floor equals posterior MSE for isotropic worlds",
           worst <= 1e-9, f"max |floor - oracle| = {worst:.2e}", started)


def _gaussian_world_dataset(spec, rng, n_train, n_test):
    """A [0,1]-normalized dataset plus linear encoder for a Gaussian world.

    Inputs are affinely mapped x01 = (x + L) / (2L); the encoder absorbs
    the inverse map so its output is exactly W x + noise. MSE in mapped
    units scales by 1 / (2L)^2.
    """
    d = spec.x_cov.dim
    sigma = np.sqrt(spec.x_cov.entries)
    half_range = 4.5 * float(sigma.max())
    x = rng.standard_normal((n_train + n_test, d)) * sigma
    x01 = np.clip((x + half_range) / (2 * half_range), 0.0, 1.0)
    ds = Dataset(
        inputs=x01,
        labels=np.zeros(n_train + n_test, dtype=np.int64),
        n_classes=1,
        train_idx=np.arange(n_train),
        test_idx=np.arange(n_train, n_train + n_test),
    )
    w = spec.channel
    encoder = NeuralModule(
        layers=[
            Layer(
                weights=2 * half_range * w,
                bias=-half_range * w.sum(axis=1),
                activation="identity",
            )
        ]
    )
    scale = 1.0 / (2 * half_range) ** 2
    return ds, encoder, scale


def test_criterion_2_floor_one_sidedness_learned_attackers():
    started = time.time()
    rng = np.random.default_rng(202)
    margins, pm_errors, worlds = [], [], []
    for run in range(10):
        spec = isotropic_spec(rng, d=4)
        oracle = minimal_mse_oracle(spec)
        ds, encoder, scale = _gaussian_world_dataset(spec, rng, 3000, 1500)
        worlds.append((spec.noise, ds, encoder, oracle * scale))

        posterior_mean = gaussian_posterior_attacker(spec)
        n = 40_000
        x = rng.standard_normal((n, 4)) * np.sqrt(spec.x_cov.entries)
        z = x @ spec.channel.T + spec.noise.std * rng.standard_normal((n, 4))
        pm_mse = float(np.mean((posterior_mean(z) - x) ** 2))
        pm_errors.append(abs(pm_mse - oracle) / oracle)
    # All ten attackers train as one stack; each run's bits are its solo ones.
    noises, datasets, encoders, _ = zip(*worlds)
    attackers = train_attacker_many(
        encoders, noises, datasets,
        [AttackConfig(epochs=100, lr=0.01, seed=run) for run in range(10)],
    )
    for run, (noise, ds, encoder, scaled_oracle) in enumerate(worlds):
        rep = evaluate_attack(
            solo_result(attackers[run]), encoder, noise,
            ds.inputs[ds.train_idx], ds.inputs[ds.test_idx], seed=run,
        )
        margins.append(rep.mse_infer / scaled_oracle)
    ok = min(margins) >= 0.98 and max(pm_errors) <= 0.02
    report(2, "trained attackers never beat the posterior-mean oracle",
           ok,
           f"min attacker/oracle = {min(margins):.3f}, "
           f"max posterior-mean gap = {max(pm_errors):.3%}", started)


def test_criterion_3_mixture_entropy_bound_vs_monte_carlo():
    started = time.time()
    rng = np.random.default_rng(303)
    ok_all = True
    worst_violation = -np.inf
    for _ in range(50):
        k, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        mix = random_mixture(rng, k, d)
        noise = NoiseModel(std=float(rng.uniform(0.2, 1.0)), dim=d)
        est = mc_entropy(mix, noise, n_samples=10**6, seed=int(rng.integers(2**31)))
        slack = mixture_entropy_upper(mix, noise) - (est.value - 3 * est.std_error)
        worst_violation = max(worst_violation, -slack)
        ok_all &= slack >= 0

    # Well-separated equal-weight components: the bound is nearly tight.
    gaps = []
    for seed in range(3):
        rng_g = np.random.default_rng(400 + seed)
        k, d = 3, 2
        means = rng_g.standard_normal((k, d)) * 500.0
        mix = make_mixture([1 / k] * k, means, rng_g.uniform(0.5, 2.0, (k, d)))
        noise = NoiseModel(std=0.5, dim=d)
        est = mc_entropy(mix, noise, n_samples=10**6, seed=seed)
        gaps.append(mixture_entropy_upper(mix, noise) - est.value)
    ok = ok_all and max(gaps) <= 0.02
    report(3, "closed-form mixture entropy bound dominates Monte Carlo",
           ok,
           f"worst bound deficit = {worst_violation:.2e}, "
           f"max separated-case gap = {max(gaps):.4f} nats", started)


def test_criterion_4_weight_update_conservation():
    started = time.time()
    rng = np.random.default_rng(404)
    base = {
        k: make_mixture(np.full(k, 1.0 / k), np.zeros((k, 1)), np.ones((k, 1)),
                        n=1000)
        for k in range(1, 9)
    }
    worst = 0.0
    for _ in range(10_000):
        k = int(rng.integers(1, 9))
        raw = rng.uniform(1e-6, 1.0, size=k)
        mix = replace(base[k], weights=raw / raw.sum())
        n_batch = int(rng.integers(1, 200))
        counts = rng.multinomial(n_batch, np.full(k, 1.0 / k))
        assign = BatchAssignment(
            indices=np.repeat(np.arange(k), counts),
            counts=counts,
            batch_size=n_batch,
        )
        out = update_weights(mix, assign)
        worst = max(worst, abs(out.weights.sum() - 1.0))
    report(4, "streaming weight updates conserve total mass",
           worst <= 1e-9, f"max |sum - 1| = {worst:.2e} over 10^4 updates", started)


def test_criterion_5_gradient_fidelity():
    started = time.time()
    rng = np.random.default_rng(505)
    worst = 0.0

    # Entropy-penalty gradient through the covariance blend (40 instances).
    noise = NoiseModel(std=0.5, dim=3)
    for _ in range(40):
        mix = random_mixture(rng, int(rng.integers(1, 4)), 3, n=60)
        batch = rng.uniform(-3.0, 3.0, size=(6, 3))
        assign = assign_nearest(batch, mix.means)
        mid = update_weights(mix, assign)
        grad = cem_loss_grad(batch, assign, mid, noise)
        fd = central_diff(
            lambda z: cem_loss(update_covariance(mid, assign, z), noise),
            batch, step=1e-5,
        )
        worst = max(worst, rel_error(grad, fd))

    # Network parameter gradients through softmax cross-entropy (40).
    for i in range(40):
        d = int(rng.integers(2, 7))
        net = init_network([d, 5, 3], ["relu", "identity"], seed=i)
        x = rng.standard_normal((5, d))
        labels = rng.integers(0, 3, size=5)
        out, tape = forward(net, x)
        _, grad_logits = task_loss(out, labels)
        grads, _ = backward(net, tape, grad_logits)
        for li, layer in enumerate(net.layers):
            def loss_of_weights(w, li=li):
                stash = net.layers[li].weights
                net.layers[li].weights = w
                try:
                    out2, _ = forward(net, x)
                    return task_loss(out2, labels)[0]
                finally:
                    net.layers[li].weights = stash

            fd_w = central_diff(loss_of_weights, layer.weights, step=1e-5)
            worst = max(worst, rel_error(grads[li][0], fd_w))

    # Task-loss logits gradients (20).
    for _ in range(20):
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, size=6)
        _, grad = task_loss(logits, labels)
        fd = central_diff(lambda z: task_loss(z, labels)[0], logits, step=1e-5)
        worst = max(worst, rel_error(grad, fd))

    report(5, "analytic gradients match central finite differences",
           worst <= 1e-4, f"max relative error = {worst:.2e}", started)


def test_criterion_6_noise_sweep_exponential_correlation(tmp_path):
    started = time.time()
    config = dict(DEFAULT_CONFIG)
    config.update(
        lam=16.0,
        epochs=50,
        feature_scale=1.0,
        attack_epochs=ATTACK_KW["epochs"],
        attack_lr=ATTACK_KW["lr"],
    )
    grid = [0.01, 0.025, 0.05, 0.1, 0.2, 0.3]
    rows = cmd_sweep(config, grid, tmp_path / "sweep")
    assert all(row["error"] == "" for row in rows)
    rel_h = np.array([row["rel_cond_entropy"] for row in rows])
    mse = np.array([row["mse_infer"] for row in rows])
    order = np.argsort(rel_h)
    inversions = int(np.sum(np.diff(mse[order]) < 0))

    slope, intercept = np.polyfit(rel_h, np.log(mse), 1)
    fitted = slope * rel_h + intercept
    r2 = 1.0 - np.sum((np.log(mse) - fitted) ** 2) / np.sum(
        (np.log(mse) - np.log(mse).mean()) ** 2
    )
    rho = stats.spearmanr(rel_h, np.log(mse)).statistic
    ok = (
        len(rows) == 6 and slope > 0 and r2 >= 0.8 and rho >= 0.9
        and inversions <= 1
    )
    report(6, "reconstruction error grows exponentially with the entropy bound",
           ok,
           f"slope = {slope:.3f}, R^2 = {r2:.3f}, spearman = {rho:.3f}, "
           f"inversions = {inversions}", started)


def test_criterion_7_defense_gain_at_matched_utility():
    started = time.time()
    ratios, drops = [], []
    # All ten trainings run as one stack; each run's bits are its solo ones.
    worlds = [
        synth_blobs(n_classes=3, d=16, per_class=200, spread=0.05, seed=seed)
        for seed in range(5)
    ]
    runs = [(seed, lam) for seed in range(5) for lam in (0.0, 16.0)]
    trained = train_many(
        [TrainingConfig(lam=lam, seed=seed, **TRAIN_KW) for seed, lam in runs],
        [worlds[seed] for seed, _ in runs],
    )
    noise = NoiseModel(std=TRAIN_KW["noise_std"], dim=8)
    results = [solo_result(result) for result in trained]
    # So do the ten attackers.
    attackers = train_attacker_many(
        [result.encoder for result in results],
        [noise] * len(runs),
        [worlds[seed] for seed, _ in runs],
        [AttackConfig(seed=seed, **ATTACK_KW) for seed, _ in runs],
    )
    for seed in range(5):
        ds = worlds[seed]
        x_tr, _ = ds.train_arrays()
        x_te, _ = ds.test_arrays()
        out = {}
        for lam in (0.0, 16.0):
            i = runs.index((seed, lam))
            result = results[i]
            acc = evaluate_utility(
                result.encoder, result.decoder, ds, noise, seed=seed + 100
            )
            rep = evaluate_attack(
                solo_result(attackers[i]), result.encoder, noise, x_tr, x_te,
                seed=seed,
            )
            out[lam] = (acc, rep.mse_infer)
        ratios.append(out[16.0][1] / out[0.0][1])
        drops.append(out[0.0][0] - out[16.0][0])
    mean_gain = float(np.mean(ratios)) - 1.0
    mean_drop = float(np.mean(drops))
    ok = mean_gain >= 0.10 and mean_drop <= 0.02
    report(7, "defense raises attacker error at matched utility",
           ok,
           f"mean MSE gain = {mean_gain:+.1%}, mean accuracy drop = {mean_drop:+.4f}",
           started)


def test_criterion_8_penalty_weight_monotonicity():
    started = time.time()
    ds = synth_blobs(n_classes=3, d=16, per_class=200, spread=0.05, seed=0)
    lams = (0.0, 2.0, 8.0, 16.0)
    trained = train_many(
        [TrainingConfig(lam=lam, seed=0, **TRAIN_KW) for lam in lams], [ds] * len(lams)
    )
    finals = [solo_result(result).history[-1].l_c for result in trained]
    ok = all(a >= b - 1e-9 for a, b in zip(finals, finals[1:]))
    report(8, "final entropy penalty non-increasing in its weight",
           ok, "l_c = " + " >= ".join(f"{v:.2f}" for v in finals), started)


def test_criterion_9_training_determinism(tmp_path):
    started = time.time()
    config = dict(DEFAULT_CONFIG)
    config.update(epochs=5)
    cmd_train(config, tmp_path / "a")
    cmd_train(config, tmp_path / "b")
    bytes_a = (tmp_path / "a" / "history.csv").read_bytes()
    bytes_b = (tmp_path / "b" / "history.csv").read_bytes()
    ok = bytes_a == bytes_b
    report(9, "identical configs produce byte-identical histories",
           ok, f"{len(bytes_a)} bytes compared", started)
