"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop in one process: the next operation starts
when the previous one has returned. An operation calls one public cemlab
entry point (``cli.cmd_train``, ``cli.cmd_attack``, ``cli.cmd_sweep``, or
``numerics.mc_entropy`` plus ``cli.cmd_bounds``) on inputs made from the
workload seed, then checks what it wrote.

A problem found by a check makes the operation count as failed; so does an
exception. The same seed must give byte-identical outputs on every
repetition, so each operation's output digests are compared with the first
one's by the runner.
"""

from __future__ import annotations

import hashlib
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cemlab import bounds, cli, numerics
from cemlab.mixture import GaussianComponent, GaussianMixture

# Per-operation sizes. "full" is what the benchmark measures; "smoke" is the
# same code on inputs small enough for the benchmark's own tests. Host speed
# on the machine the benchmark was tuned on switches every few seconds, and
# each operation is scaled by host probes timed just before and after it
# (hostclock.py); short operations (about 0.4 s for train and attack) keep
# a switch inside one operation rare. Set-up is repeated, spread over the
# run, and its median taken.
SIZES = {
    "full": {
        "setup_reps": 4,
        "setup_epochs": 10,
        "train_epochs": 5,
        "attack_epochs": 150,
        "sweep_epochs": 3,
        "sweep_attack_epochs": 20,
        "sweep_grid": cli.DEFAULT_GRID,
        "oracle_samples": 10**6,
        "oracle_shapes": ((9, 8), (3, 2), (6, 4)),
    },
    "smoke": {
        "setup_reps": 2,
        "setup_epochs": 1,
        "train_epochs": 1,
        "attack_epochs": 2,
        "sweep_epochs": 1,
        "sweep_attack_epochs": 1,
        "sweep_grid": cli.DEFAULT_GRID[:2],
        "oracle_samples": 2000,
        "oracle_shapes": ((9, 8), (3, 2)),
    },
}

ORACLE_NOISE_STD = 0.1


@dataclass
class OpResult:
    """One operation: its wall time, the work it did, the time that work
    took inside the program, and its output digests and problems."""

    wall_s: float
    units: float
    unit_s: float
    digests: dict[str, str] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def base_config(seed: int, epochs: int) -> dict:
    """DEFAULT_CONFIG (k resolves to 3 * 3 classes = 9) with the workload
    seed as both training and attack seed."""
    config = dict(cli.DEFAULT_CONFIG)
    config.update(seed=seed, attack_seed=seed, epochs=epochs)
    return config


# -- output checks --------------------------------------------------------

def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def read_csv_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and data rows of a cemlab CSV (``#`` comment lines skipped)."""
    lines = [
        line for line in Path(path).read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#")
    ]
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def check_history(path: Path, epochs: int) -> list[str]:
    """history.csv has one row per epoch, finite losses, accuracy in [0, 1]."""
    header, rows = read_csv_rows(path)
    if header != ["epoch", "l_d", "l_c", "total", "accuracy", "rel_cond_entropy"]:
        return [f"{path.name}: unexpected header {header}"]
    problems = []
    if len(rows) != epochs:
        problems.append(f"{path.name}: {len(rows)} rows for {epochs} epochs")
    for row in rows:
        if len(row) != len(header) or not all(_is_finite_number(v) for v in row):
            problems.append(f"{path.name}: non-finite or malformed row {row}")
        elif not 0.0 <= float(row[4]) <= 1.0:
            problems.append(f"{path.name}: accuracy {row[4]} outside [0, 1]")
    return problems


def check_sweep(path: Path, n_points: int) -> list[str]:
    """sweep.csv has one row per grid point, an empty error and finite
    values in every row, and accuracy in [0, 1]."""
    header, rows = read_csv_rows(path)
    expected = ["variance", "rel_cond_entropy", "mse_train", "mse_infer",
                "accuracy", "error"]
    if header != expected:
        return [f"{path.name}: unexpected header {header}"]
    problems = []
    if len(rows) != n_points:
        problems.append(f"{path.name}: {len(rows)} rows for {n_points} points")
    for row in rows:
        if len(row) != len(expected) or row[5] != "":
            problems.append(f"{path.name}: failed point {row}")
        elif not all(_is_finite_number(v) for v in row[:5]):
            problems.append(f"{path.name}: non-finite row {row}")
        elif not 0.0 <= float(row[4]) <= 1.0:
            problems.append(f"{path.name}: accuracy {row[4]} outside [0, 1]")
    return problems


def check_finite_fields(report: dict, fields, where: str) -> list[str]:
    return [
        f"{where}: {name}={report.get(name)!r} is not finite"
        for name in fields
        if not isinstance(report.get(name), (int, float))
        or not math.isfinite(report[name])
    ]


def check_oracle(upper: float, mc_value: float, mc_se: float, where: str) -> list[str]:
    """The closed-form upper bound may not sit below the Monte-Carlo
    entropy by more than three standard errors."""
    if not (math.isfinite(upper) and math.isfinite(mc_value) and math.isfinite(mc_se)):
        return [f"{where}: non-finite bound or estimate"]
    if upper < mc_value - 3.0 * mc_se:
        return [f"{where}: upper bound {upper!r} < MC {mc_value!r} - 3 SE {mc_se!r}"]
    return []


# -- workloads ------------------------------------------------------------

class Workload:
    """Set-up makes the inputs an operation needs; ``op`` runs one
    operation in a fresh directory and checks its outputs."""

    name = ""
    # The workload's own name for its throughput, and the factor from work
    # units per second to that metric's unit.
    throughput_metric = ""
    throughput_scale = 1.0
    # The host probe that scales its operation times (hostclock.py), or
    # None to report them unscaled. Set-up is always scaled by "loop".
    probe: str | None = "loop"

    def __init__(self, seed: int, size: dict, work_dir: Path):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir
        self.setup_run: Path | None = None
        self.n_train = 0

    def setup(self, rep: int) -> None:
        """Train the set-up run, a short DEFAULT_CONFIG run at the workload
        seed. ``attack`` attacks it and ``oracle`` bounds it; for ``train``
        and ``sweep`` it warms the code paths the timed loop uses."""
        run_dir = self.work_dir / f"setup_{rep}"
        config = base_config(self.seed, self.size["setup_epochs"])
        cli.cmd_train(config, run_dir)
        self.setup_run = run_dir
        self.n_train = len(cli.build_dataset(config).train_idx)

    def op(self, rep_dir: Path) -> OpResult:
        raise NotImplementedError


class TrainWorkload(Workload):
    """cmd_train at the DEFAULT_CONFIG shape: the per-batch mixture update
    and penalty dominate it."""

    name = "train"
    throughput_metric = "train_samples_per_s"

    def op(self, rep_dir: Path) -> OpResult:
        epochs = self.size["train_epochs"]
        config = base_config(self.seed, epochs)
        t0 = time.perf_counter()
        manifest = cli.cmd_train(config, rep_dir)
        wall = time.perf_counter() - t0
        history = rep_dir / manifest.artifacts["history"]
        return OpResult(
            wall_s=wall, units=epochs * self.n_train, unit_s=wall,
            digests={"history.csv": sha256_file(history)},
            problems=check_history(history, epochs),
        )


class AttackWorkload(Workload):
    """cmd_attack on the set-up run: almost only network forward, backward
    and SGD; the mixture and bounds are touched once, by run_floor."""

    name = "attack"
    throughput_metric = "attack_samples_per_s"

    def op(self, rep_dir: Path) -> OpResult:
        # Attack a private copy so every repetition starts from the same
        # files (cmd_attack appends to attacks.csv).
        shutil.copytree(self.setup_run, rep_dir)
        epochs = self.size["attack_epochs"]
        t0 = time.perf_counter()
        report = cli.cmd_attack(str(rep_dir), {"attack_epochs": epochs})
        wall = time.perf_counter() - t0
        problems = check_finite_fields(
            report.to_dict(), ("mse_train", "mse_infer", "psnr_train", "psnr_infer"),
            "attack_report",
        )
        if not problems and min(report.mse_train, report.mse_infer) <= 0:
            problems.append("attack_report: non-positive MSE")
        return OpResult(
            wall_s=wall, units=epochs * self.n_train, unit_s=wall,
            digests={
                "attack_report.json": sha256_file(rep_dir / "attack_report.json"),
                "attacks.csv": sha256_file(rep_dir / "attacks.csv"),
            },
            problems=problems,
        )


class SweepWorkload(Workload):
    """cmd_sweep over DEFAULT_GRID with two threads: the only workload
    where grid points contend for one interpreter."""

    name = "sweep"
    throughput_metric = "sweep_points_per_min"
    throughput_scale = 60.0
    # Its two threads run on both vCPUs and wait on each other for the
    # interpreter lock, so its time follows the vCPUs' speeds far less than
    # a probe does: scaled by a probe on each vCPU, its median drifted 13%
    # across three sets of runs where the raw one moved 2% (12% in three
    # later sets). Scaling did not make it steadier, so it stays raw.
    probe = None

    def op(self, rep_dir: Path) -> OpResult:
        config = base_config(self.seed, self.size["sweep_epochs"])
        config["attack_epochs"] = self.size["sweep_attack_epochs"]
        grid = list(self.size["sweep_grid"])
        t0 = time.perf_counter()
        cli.cmd_sweep(config, grid, rep_dir)
        wall = time.perf_counter() - t0
        sweep_csv = rep_dir / "sweep.csv"
        digests = {"sweep.csv": sha256_file(sweep_csv)}
        problems = check_sweep(sweep_csv, len(grid))
        for i in range(len(grid)):
            history = rep_dir / f"point_{i:02d}" / "history.csv"
            digests[f"point_{i:02d}/history.csv"] = sha256_file(history)
            problems += check_history(history, config["epochs"])
        return OpResult(
            wall_s=wall, units=len(grid), unit_s=wall,
            digests=digests, problems=problems,
        )


def seeded_mixture(seed: int, k: int, d: int) -> GaussianMixture:
    """A random diagonal mixture of shape (k, d), fixed by the seed."""
    rng = np.random.default_rng(
        np.random.SeedSequence([seed & (2**63 - 1), 0x0AC1E, k, d])
    )
    weights = rng.dirichlet(np.ones(k))
    components = [
        GaussianComponent(
            weight=float(w),
            mean=rng.standard_normal(d),
            cov=numerics.Covariance.diagonal(rng.uniform(0.05, 0.5, size=d)),
        )
        for w in weights
    ]
    return GaussianMixture(components=components, dim=d, dataset_size=1000)


class OracleWorkload(Workload):
    """numerics.mc_entropy at 10^6 samples on seeded mixtures, plus
    cmd_bounds on the set-up run: bulk, memory-heavy numerics."""

    name = "oracle"
    throughput_metric = "oracle_samples_per_s"
    probe = "bulk"

    def setup(self, rep: int) -> None:
        super().setup(rep)
        self.mixtures = [
            (k, d, seeded_mixture(self.seed, k, d))
            for k, d in self.size["oracle_shapes"]
        ]

    def op(self, rep_dir: Path) -> OpResult:
        n = self.size["oracle_samples"]
        digests, problems = {}, []
        mc_s = 0.0
        t0 = time.perf_counter()
        for k, d, mix in self.mixtures:
            noise = bounds.NoiseModel(std=ORACLE_NOISE_STD, dim=d)
            t = time.perf_counter()
            est = numerics.mc_entropy(mix, noise, n, seed=self.seed)
            mc_s += time.perf_counter() - t
            upper = bounds.mixture_entropy_upper(mix, noise)
            where = f"mc_entropy k={k} d={d}"
            digests[where] = hashlib.sha256(
                f"{est.value!r},{est.std_error!r},{upper!r}".encode()
            ).hexdigest()
            problems += check_oracle(upper, est.value, est.std_error, where)
        report = cli.cmd_bounds(str(self.setup_run))
        wall = time.perf_counter() - t0
        problems += check_finite_fields(
            report.to_dict(), ("mi_bound", "rel_cond_entropy", "mse_floor", "cem_loss"),
            "bounds_report",
        )
        digests["bounds_report.json"] = sha256_file(
            self.setup_run / "bounds_report.json"
        )
        return OpResult(
            wall_s=wall, units=n * len(self.mixtures), unit_s=mc_s,
            digests=digests, problems=problems,
        )


WORKLOADS = {
    w.name: w for w in (TrainWorkload, AttackWorkload, SweepWorkload, OracleWorkload)
}
