"""Command surface: train, attack, bounds, sweep, report.

Configs are flat JSON key-value files; command-line flags override file
values. Every artifact lands under --out, and a manifest.json ties the
run together. Exit codes: 0 success, 1 runtime/numeric failure, 2
usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import adversary, bounds, data, mixture, network, trainer
from .errors import CemError, MissingArtifact, ParseError
from .files import write_atomic

# Desk-scale calibration: at a few hundred training samples the entropy
# penalty's per-sample pull (lambda / N) is orders of magnitude stronger
# relative to the task gradient than at dataset sizes in the tens of
# thousands, so the runnable defaults use a smaller step and batch than
# the published large-scale recipe.
DEFAULT_CONFIG = {
    "lam": 16.0,
    "noise_std": 0.025,
    "k": None,
    "epochs": 300,
    "batch_size": 16,
    "lr": 0.001,
    "momentum": 0.0,
    "seed": 0,
    "d_z": 8,
    "hidden": 32,
    "feature_scale": 2.0,
    "gmm_iters": 10,
    "data_kind": "blobs",
    "data_classes": 3,
    "data_dim": 16,
    "data_per_class": 200,
    "data_spread": 0.05,
    "data_csv": None,
    "attack_epochs": 150,
    "attack_lr": 0.01,
    "attack_seed": 0,
    "h_x_offset": 0.0,
}

DEFAULT_GRID = (0.01, 0.025, 0.05, 0.1, 0.2, 0.3)


@dataclass
class RunManifest:
    run_id: str
    config: dict
    output_dir: str
    artifacts: dict

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "config": self.config,
            "output_dir": self.output_dir,
            "artifacts": self.artifacts,
        }

    def save(self, path: Path) -> None:
        write_atomic(path, _json_text(self.to_dict()))

    @staticmethod
    def load(path: Path) -> "RunManifest":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
            config = check_config_keys(doc["config"], f"the config of manifest {path}")
            return RunManifest(
                run_id=doc["run_id"],
                config=config,
                output_dir=doc["output_dir"],
                artifacts=doc["artifacts"],
            )
        except (KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ParseError(f"invalid manifest {path}: {exc}") from exc


def check_config_keys(values, source: str) -> dict:
    """``values``, if it is a JSON object whose keys are all keys of
    ``DEFAULT_CONFIG``; otherwise ``ParseError`` naming ``source``."""
    if not isinstance(values, dict):
        raise ParseError(f"{source} is not a JSON object")
    unknown = set(values) - set(DEFAULT_CONFIG)
    if unknown:
        raise ParseError(f"unknown keys in {source}: {sorted(unknown)}")
    return values


def config_int(config: dict, key: str) -> int:
    """``config[key]`` as an int. A config file may give an integer key as
    an int or an integral float such as 300.0; a bool, a string or a
    fractional number raises ``ValueError`` rather than being truncated."""
    value = config[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"config key {key!r} must be an integer, got {value!r}")


def _fmt(x: float) -> str:
    return repr(float(x))


def _cell(x: float | None) -> str:
    return "" if x is None else _fmt(x)


def _csv_text(rows) -> str:
    """``rows`` as CSV lines. Minimal quoting: a cell with a comma, a quote
    or a line break (say, an error message or a run path) is quoted, and
    other rows keep their plain bytes."""
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(rows)
    return text.getvalue()


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def run_id_for(config: dict) -> str:
    """Deterministic run identifier: config digest plus the seed, so two
    runs of the same config emit byte-identical artifacts."""
    canon = json.dumps(config, sort_keys=True).encode("utf-8")
    return f"{hashlib.sha256(canon).hexdigest()[:12]}-s{config['seed']}"


def load_config(path: str | None, overrides: dict) -> dict:
    config = dict(DEFAULT_CONFIG)
    if path is not None:
        p = Path(path)
        if not p.exists():
            raise FileNotFoundError(f"config file not found: {p}")
        try:
            with open(p, "r", encoding="utf-8") as fh:
                file_values = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"config file {p} is not valid JSON: {exc}") from exc
        config.update(check_config_keys(file_values, f"config file {p}"))
    for key, value in overrides.items():
        if value is not None:
            config[key] = value
    return config


def build_dataset(config: dict) -> data.Dataset:
    if config["data_kind"] == "blobs":
        return data.synth_blobs(
            n_classes=config_int(config, "data_classes"),
            d=config_int(config, "data_dim"),
            per_class=config_int(config, "data_per_class"),
            spread=float(config["data_spread"]),
            seed=config_int(config, "seed"),
        )
    if config["data_kind"] == "csv":
        if not config["data_csv"]:
            raise ValueError("data_kind=csv requires data_csv")
        return data.load_csv(
            config["data_csv"], config_int(config, "data_classes"),
            seed=config_int(config, "seed"),
        )
    raise ValueError(f"unknown data_kind {config['data_kind']!r}")


def training_config(config: dict) -> trainer.TrainingConfig:
    return trainer.TrainingConfig(
        lam=float(config["lam"]),
        noise_std=float(config["noise_std"]),
        k=None if config["k"] is None else config_int(config, "k"),
        epochs=config_int(config, "epochs"),
        batch_size=config_int(config, "batch_size"),
        lr=float(config["lr"]),
        momentum=float(config["momentum"]),
        seed=config_int(config, "seed"),
        d_z=config_int(config, "d_z"),
        hidden=config_int(config, "hidden"),
        feature_scale=float(config["feature_scale"]),
        gmm_iters=config_int(config, "gmm_iters"),
    )


def write_history_csv(path: Path, run_id: str, history) -> None:
    rows = [["epoch", "l_d", "l_c", "total", "accuracy", "rel_cond_entropy"]]
    rows += [
        [str(row.epoch), *map(_fmt, (row.l_d, row.l_c, row.total, row.accuracy, -row.l_c))]
        for row in history
    ]
    write_atomic(path, f"# run_id={run_id}\n" + _csv_text(rows))


def noise_model(config: dict) -> bounds.NoiseModel:
    """The noise a run's config injects."""
    return bounds.NoiseModel(
        std=float(config["noise_std"]), dim=config_int(config, "d_z")
    )


def cmd_train(config: dict, out_dir: Path) -> RunManifest:
    cfg = training_config(check_config_keys(config, "the run config"))
    ds = build_dataset(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = trainer.train(cfg, ds)
    return save_run(config, result, out_dir)


def save_run(config: dict, result: trainer.TrainResult, out_dir: Path) -> RunManifest:
    """Write a trained run's checkpoints, history and manifest under
    ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run_id = run_id_for(config)
    artifacts = {
        "encoder": "encoder.json",
        "decoder": "decoder.json",
        "mixture": "mixture.json",
        "history": "history.csv",
    }
    network.save_network(result.encoder, out_dir / artifacts["encoder"])
    network.save_network(result.decoder, out_dir / artifacts["decoder"])
    mixture.save_mixture(result.mixture, out_dir / artifacts["mixture"])
    write_history_csv(out_dir / artifacts["history"], run_id, result.history)

    manifest = RunManifest(
        run_id=run_id, config=config, output_dir=str(out_dir), artifacts=artifacts,
    )
    manifest.save(out_dir / "manifest.json")
    return manifest


def _load_manifest(run: str) -> tuple[RunManifest, Path]:
    path = Path(run)
    if path.is_dir():
        path = path / "manifest.json"
    if not path.exists():
        raise MissingArtifact(f"manifest not found: {path}")
    return RunManifest.load(path), path.parent


def _artifact_path(manifest: RunManifest, base: Path, name: str) -> Path:
    try:
        rel = manifest.artifacts[name]
    except KeyError as exc:
        raise MissingArtifact(f"manifest lists no {name!r} artifact") from exc
    path = base / rel
    if not path.exists():
        raise MissingArtifact(f"artifact missing on disk: {path}")
    return path


def run_floor(manifest: RunManifest, base: Path) -> float:
    """MSE floor at the run's relative-entropy convention (stated offset)."""
    mix = mixture.load_mixture(_artifact_path(manifest, base, "mixture"))
    config = manifest.config
    noise = noise_model(config)
    h_cond = bounds.cond_entropy_lower(
        float(config["h_x_offset"]), bounds.mi_upper_bound(mix, noise)
    )
    return bounds.mse_floor(h_cond, config_int(config, "data_dim"))


def attack_config(config: dict) -> adversary.AttackConfig:
    return adversary.AttackConfig(
        epochs=config_int(config, "attack_epochs"),
        lr=float(config["attack_lr"]),
        seed=config_int(config, "attack_seed"),
    )


def cmd_attack(run: str, attack_overrides: dict | None = None) -> adversary.AttackReport:
    manifest, base = _load_manifest(run)
    config = dict(manifest.config)
    if attack_overrides:
        for key, value in attack_overrides.items():
            if value is not None:
                config[key] = value
    encoder = network.load_network(_artifact_path(manifest, base, "encoder"))
    ds = build_dataset(manifest.config)
    noise = noise_model(config)
    atk_cfg = attack_config(config)
    attacker = adversary.train_attacker(encoder, noise, ds, atk_cfg)
    x_train, _ = ds.train_arrays()
    x_test, _ = ds.test_arrays()
    floor = run_floor(manifest, base) if noise.std > 0 else None
    report = adversary.evaluate_attack(
        attacker, encoder, noise, x_train, x_test, seed=atk_cfg.seed, floor=floor
    )
    save_attack(base, manifest.run_id, atk_cfg.seed, report)
    return report


def save_attack(base: Path, run_id: str, attack_seed: int,
                report: adversary.AttackReport) -> None:
    """Write a run's ``attack_report.json`` and append its row to
    ``attacks.csv``, which must belong to the same run."""
    csv_path = base / "attacks.csv"
    fresh = not csv_path.exists()
    if not fresh:
        with open(csv_path, "r", encoding="utf-8") as fh:
            header = fh.readline().rstrip("\n")
        if header != f"# run_id={run_id}":
            raise ParseError(
                f"{csv_path} belongs to another run ({header!r}); "
                f"refusing to append a row of run {run_id}"
            )
    write_atomic(base / "attack_report.json", _json_text(report.to_dict()))
    rows = [[
        str(attack_seed),
        *map(_cell, (report.mse_train, report.mse_infer, report.psnr_train,
                     report.psnr_infer, report.floor)),
    ]]
    if fresh:
        rows.insert(0, ["attack_seed", "mse_train", "mse_infer", "psnr_train",
                        "psnr_infer", "floor"])
    with open(csv_path, "a", encoding="utf-8", newline="") as fh:
        fh.write((f"# run_id={run_id}\n" if fresh else "") + _csv_text(rows))


def cmd_bounds(run: str, h_x_offset: float | None = None) -> bounds.BoundsReport:
    manifest, base = _load_manifest(run)
    config = manifest.config
    noise = noise_model(config)
    if noise.std <= 0:
        raise ValueError(
            f"the leakage bound needs noise_std > 0; run {manifest.run_id} "
            f"injects noise_std={noise.std}"
        )
    mix = mixture.load_mixture(_artifact_path(manifest, base, "mixture"))
    offset = float(config["h_x_offset"]) if h_x_offset is None else float(h_x_offset)
    report = bounds.bounds_report(mix, noise, offset, config_int(config, "data_dim"))
    write_atomic(base / "bounds_report.json", _json_text(report.to_dict()))
    return report


def _sweep_point(point: dict, variance: float, out_dir: Path, trained) -> dict:
    """Write one sweep point's run, evaluate its attacker and measure its
    utility. ``trained`` is the point's (dataset, training result,
    attacker), or the error its set-up or training raised, which is raised
    here; the attacker may be the error its attack raised, raised once the
    run is written."""
    if isinstance(trained, Exception):
        raise trained
    ds, result, attacker = trained
    manifest = save_run(point, result, out_dir)
    if isinstance(attacker, Exception):
        raise attacker
    noise = noise_model(point)
    x_train, _ = ds.train_arrays()
    x_test, _ = ds.test_arrays()
    floor = run_floor(manifest, out_dir) if noise.std > 0 else None
    seed = config_int(point, "attack_seed")
    report = adversary.evaluate_attack(
        attacker, result.encoder, noise, x_train, x_test, seed=seed, floor=floor
    )
    save_attack(out_dir, manifest.run_id, seed, report)
    accuracy = trainer.evaluate_utility(
        result.encoder, result.decoder, ds, noise, seed=config_int(point, "seed")
    )
    return {
        "variance": variance,
        "rel_cond_entropy": -result.history[-1].l_c if result.history else None,
        "mse_train": report.mse_train,
        "mse_infer": report.mse_infer,
        "accuracy": accuracy,
        "error": "",
    }


def _train_points(points: list[dict]) -> list:
    """Train the sweep points as one stack. Each entry is a point's
    (dataset, training result), or the error its set-up or training
    raised."""
    outcomes: list = [None] * len(points)
    stacked, cfgs, datasets = [], [], []
    for i, point in enumerate(points):
        try:
            ds = build_dataset(point)
            cfgs.append(training_config(point))
        except (CemError, ValueError, OSError) as exc:
            outcomes[i] = exc
            continue
        stacked.append(i)
        datasets.append(ds)
    if stacked:
        try:
            results = trainer.train_many(cfgs, datasets)
        except (CemError, ValueError) as exc:
            results = [exc] * len(stacked)
        for i, ds, result in zip(stacked, datasets, results):
            outcomes[i] = result if isinstance(result, Exception) else (ds, result)
    return outcomes


def _attack_points(points: list[dict], trained: list) -> list:
    """Train the trained sweep points' attackers as one stack, with the
    encoders, datasets and noise in memory. Each (dataset, result) entry of
    ``trained`` becomes (dataset, result, attacker), the attacker being the
    error its attack raised if it failed; errors stay as they are."""
    outcomes = list(trained)
    stacked, runs = [], []
    for i, (point, outcome) in enumerate(zip(points, trained)):
        if isinstance(outcome, Exception):
            continue
        ds, result = outcome
        try:
            cfg = attack_config(point)
        except ValueError as exc:
            outcomes[i] = (ds, result, exc)
            continue
        stacked.append(i)
        runs.append((result.encoder, noise_model(point), ds, cfg))
    if stacked:
        try:
            attackers = adversary.train_attacker_many(*(list(c) for c in zip(*runs)))
        except (CemError, ValueError) as exc:
            attackers = [exc] * len(stacked)
        for i, attacker in zip(stacked, attackers):
            outcomes[i] = (*trained[i], attacker)
    return outcomes


_SWEEP_COLUMNS = ["variance", "rel_cond_entropy", "mse_train", "mse_infer", "accuracy"]


def cmd_sweep(config: dict, grid, out_dir: Path) -> list[dict]:
    """Train one fresh model per noise variance and record the robustness
    curve. The points train together, as one stacked computation, and are
    then attacked together, as another; then, in grid order, each point's
    artifacts and attack report are written, its utility measured, and its
    row appended to sweep.csv, so an interrupted sweep keeps the rows it
    finished."""
    if not grid:
        raise ValueError("sweep grid is empty")
    # Written so that NaN fails too.
    bad = [v for v in grid if not 0 <= v < np.inf]
    if bad:
        raise ValueError(f"grid variances must be finite and nonnegative, got {bad}")
    check_config_keys(config, "the sweep config")
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    header = _csv_text([[*_SWEEP_COLUMNS, "error"]])
    write_atomic(csv_path, f"# run_id={run_id_for(config)}\n" + header)

    points = [dict(config, noise_std=float(np.sqrt(variance))) for variance in grid]
    rows = []
    attacked = _attack_points(points, _train_points(points))
    for i, (variance, point, trained) in enumerate(zip(grid, points, attacked)):
        try:
            row = _sweep_point(point, variance, out_dir / f"point_{i:02d}", trained)
        except (CemError, ValueError, OSError) as exc:
            row = {
                "variance": variance,
                "rel_cond_entropy": None,
                "mse_train": None,
                "mse_infer": None,
                "accuracy": None,
                "error": f"{type(exc).__name__}: {exc}",
            }
        with open(csv_path, "a", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text([[*(_cell(row[c]) for c in _SWEEP_COLUMNS), row["error"]]]))
        rows.append(row)
    return rows


def read_history_csv(path: Path) -> list[dict]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = None
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            values = line.split(",")
            rows.append(
                {k: (float(v) if k != "epoch" else int(v))
                 for k, v in zip(header, values)}
            )
    return rows


def cmd_report(out_dir: Path) -> list[dict]:
    """Aggregate every run manifest beneath a directory into report.csv."""
    entries = []
    for manifest_path in sorted(out_dir.rglob("manifest.json")):
        base = manifest_path.parent
        manifest = RunManifest.load(manifest_path)
        entry = {
            "run_id": manifest.run_id,
            "path": str(base),
            "lam": manifest.config.get("lam"),
            "noise_std": manifest.config.get("noise_std"),
            "seed": manifest.config.get("seed"),
            "final_accuracy": None,
            "final_l_c": None,
            "mse_train": None,
            "mse_infer": None,
            "mi_bound": None,
        }
        history_path = base / manifest.artifacts.get("history", "history.csv")
        if history_path.exists():
            history = read_history_csv(history_path)
            if history:
                entry["final_accuracy"] = history[-1]["accuracy"]
                entry["final_l_c"] = history[-1]["l_c"]
        attack_path = base / "attack_report.json"
        if attack_path.exists():
            with open(attack_path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            entry["mse_train"] = report.get("mse_train")
            entry["mse_infer"] = report.get("mse_infer")
        bounds_path = base / "bounds_report.json"
        if bounds_path.exists():
            with open(bounds_path, "r", encoding="utf-8") as fh:
                entry["mi_bound"] = json.load(fh).get("mi_bound")
        entries.append(entry)

    columns = [
        "run_id", "path", "lam", "noise_std", "seed",
        "final_accuracy", "final_l_c", "mse_train", "mse_infer", "mi_bound",
    ]
    rows = [columns, *([entry[c] for c in columns] for entry in entries)]
    write_atomic(out_dir / "report.csv", _csv_text(rows))
    return entries


def _parse_grid(text: str) -> list[float]:
    try:
        grid = [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from exc
    return grid


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cemlab",
        description="Train split-inference models under an entropy penalty, "
        "evaluate inversion adversaries, and report robustness bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--lambda", dest="lam", type=float)
        p.add_argument("--noise-std", dest="noise_std", type=float)
        p.add_argument("--k", type=int)
        p.add_argument("--epochs", type=int)
        p.add_argument("--out", default="runs/run", help="output directory")

    p_train = sub.add_parser("train", help="run the training loop")
    add_common(p_train)

    p_attack = sub.add_parser("attack", help="train an inversion adversary")
    p_attack.add_argument("run", help="run directory or manifest path")
    p_attack.add_argument("--attack-epochs", dest="attack_epochs", type=int)
    p_attack.add_argument("--attack-lr", dest="attack_lr", type=float)
    p_attack.add_argument("--attack-seed", dest="attack_seed", type=int)

    p_bounds = sub.add_parser("bounds", help="report the information bounds")
    p_bounds.add_argument("run", help="run directory or manifest path")
    p_bounds.add_argument("--h-x-offset", dest="h_x_offset", type=float)

    p_sweep = sub.add_parser("sweep", help="noise-variance robustness sweep")
    add_common(p_sweep)
    p_sweep.add_argument(
        "--grid", default=",".join(str(v) for v in DEFAULT_GRID),
        help="comma-separated noise variances",
    )

    p_report = sub.add_parser("report", help="aggregate run artifacts")
    p_report.add_argument("--out", default="runs", help="directory to scan")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    def merged_config():
        overrides = {
            k: getattr(args, k) for k in ("seed", "lam", "noise_std", "k", "epochs")
        }
        try:
            return load_config(args.config, overrides)
        except ParseError as exc:
            # Config-file problems are usage errors, unlike artifact parse
            # failures at runtime.
            raise ValueError(str(exc)) from exc

    try:
        if args.command == "train":
            manifest = cmd_train(merged_config(), Path(args.out))
            print(f"run {manifest.run_id} complete; artifacts in {args.out}")
        elif args.command == "attack":
            overrides = {
                k: getattr(args, k)
                for k in ("attack_epochs", "attack_lr", "attack_seed")
            }
            report = cmd_attack(args.run, overrides)
            print(
                f"attack mse_train={report.mse_train:.6g} "
                f"mse_infer={report.mse_infer:.6g}"
            )
        elif args.command == "bounds":
            report = cmd_bounds(args.run, args.h_x_offset)
            print(
                f"mi_bound={report.mi_bound:.6g} "
                f"rel_cond_entropy={report.rel_cond_entropy:.6g} "
                f"mse_floor={report.mse_floor:.6g}"
            )
        elif args.command == "sweep":
            rows = cmd_sweep(merged_config(), _parse_grid(args.grid), Path(args.out))
            failures = [r for r in rows if r["error"]]
            print(f"sweep wrote {len(rows)} rows ({len(failures)} failed)")
            if failures:
                return 1
        elif args.command == "report":
            entries = cmd_report(Path(args.out))
            print(f"aggregated {len(entries)} runs into {args.out}/report.csv")
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (CemError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
