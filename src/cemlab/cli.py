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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import adversary, bounds, data, mixture, network, trainer
from .errors import CemError, MissingArtifact, ParseError, ShapeMismatch
from .files import write_atomic

# Each config key's default and kind. An "int" key takes an int or an
# integral float such as 300.0, a "float" key any int or float; a kind
# ending in "?" also takes null. A bool, a string or a fractional integer
# is refused, never cast.
#
# Desk-scale calibration: at a few hundred training samples the entropy
# penalty's per-sample pull (lambda / N) is orders of magnitude stronger
# relative to the task gradient than at dataset sizes in the tens of
# thousands, so the runnable defaults use a smaller step and batch than
# the published large-scale recipe.
_SCHEMA = {
    "lam": (16.0, "float"),
    "noise_std": (0.025, "float"),
    "k": (None, "int?"),
    "epochs": (300, "int"),
    "batch_size": (16, "int"),
    "lr": (0.001, "float"),
    "momentum": (0.0, "float"),
    "seed": (0, "int"),
    "d_z": (8, "int"),
    "hidden": (32, "int"),
    "feature_scale": (2.0, "float"),
    "gmm_iters": (10, "int"),
    "data_kind": ("blobs", "str"),
    "data_classes": (3, "int"),
    "data_dim": (16, "int"),
    "data_per_class": (200, "int"),
    "data_spread": (0.05, "float"),
    "data_csv": (None, "str?"),
    "attack_epochs": (150, "int"),
    "attack_lr": (0.01, "float"),
    "attack_seed": (0, "int"),
    "h_x_offset": (0.0, "float"),
}

_KIND_NAMES = {"float": "a number", "int": "an integer", "str": "a string"}

DEFAULT_CONFIG = {key: default for key, (default, _) in _SCHEMA.items()}

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
            artifacts = doc["artifacts"]
            if not isinstance(artifacts, dict) or not all(
                isinstance(rel, str) and rel and not Path(rel).is_absolute()
                and ".." not in Path(rel).parts for rel in artifacts.values()
            ):
                raise ParseError(
                    f"invalid manifest {path}: artifacts must be a JSON object of "
                    "relative paths inside the run directory"
                )
            return RunManifest(
                run_id=doc["run_id"],
                config=config,
                output_dir=doc["output_dir"],
                artifacts=artifacts,
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


def _read(key: str, value, kind: str):
    """``value`` read as ``kind``, the key's kind in ``_SCHEMA``, or
    ``ValueError`` naming ``key``."""
    base = kind.rstrip("?")
    if value is None and kind != base:
        return None
    if not isinstance(value, bool):
        if base == "int" and (isinstance(value, numbers.Integral)
                              or isinstance(value, float) and value.is_integer()):
            return int(value)
        if base == "float" and isinstance(value, numbers.Real):
            try:
                return float(value)
            except OverflowError:  # an integer beyond the float range
                pass
        if base == "str" and isinstance(value, str):
            return value
    or_null = " or null" if kind != base else ""
    raise ValueError(
        f"config key {key!r} must be {_KIND_NAMES[base]}{or_null}, got {value!r}"
    )


@dataclass(frozen=True)
class RunSpec:
    """A run config that passed :func:`validate`, read once into what the
    commands use."""

    training: trainer.TrainingConfig
    attack: adversary.AttackConfig
    noise: bounds.NoiseModel
    data_dim: int
    h_x_offset: float
    dataset: object  # builds the config's data.Dataset when called


def validate(config: dict) -> RunSpec:
    """Check a complete run config and read it once. A key outside the
    schema raises ``ParseError``; a missing key, a value of the wrong kind
    or one out of range raises ``ValueError``. Each range is checked by the
    dataclass or function that owns the value. ``config`` is not changed,
    so manifests and run ids keep its bytes."""
    check_config_keys(config, "the run config")
    missing = _SCHEMA.keys() - config.keys()
    if missing:
        raise ValueError(f"the run config lacks keys {sorted(missing)}")
    v = {key: _read(key, config[key], kind) for key, (_, kind) in _SCHEMA.items()}
    # No other code owns these two. Written so that NaN fails too.
    for key in ("h_x_offset", "data_spread"):
        if not -np.inf < v[key] < np.inf:
            raise ValueError(f"config key {key!r} must be finite, got {v[key]!r}")
    if v["data_kind"] == "blobs":
        def dataset():
            return data.synth_blobs(
                n_classes=v["data_classes"], d=v["data_dim"],
                per_class=v["data_per_class"], spread=v["data_spread"], seed=v["seed"],
            )
    elif v["data_kind"] != "csv":
        raise ValueError(f"unknown data_kind {v['data_kind']!r}")
    elif not v["data_csv"]:
        raise ValueError("data_kind 'csv' needs data_csv, the path of the CSV file")
    else:
        def dataset():
            ds = data.load_csv(v["data_csv"], v["data_classes"], seed=v["seed"])
            # The MSE floor is taken over data_dim input dimensions.
            if ds.inputs.shape[1] != v["data_dim"]:
                raise ValueError(
                    f"{v['data_csv']} has {ds.inputs.shape[1]} input columns, "
                    f"but data_dim is {v['data_dim']}"
                )
            return ds
    # The floor owns the data_dim range; ask it now rather than after a
    # sweep has written rows.
    bounds.mse_floor(0.0, v["data_dim"])
    training = {f.name: v[f.name] for f in fields(trainer.TrainingConfig)}
    return RunSpec(
        training=trainer.TrainingConfig(**training),
        attack=adversary.AttackConfig(
            epochs=v["attack_epochs"], lr=v["attack_lr"], seed=v["attack_seed"]
        ),
        noise=bounds.NoiseModel(std=v["noise_std"], dim=v["d_z"]),
        data_dim=v["data_dim"], h_x_offset=v["h_x_offset"], dataset=dataset,
    )


def _with(config: dict, overrides: dict) -> dict:
    """A copy of ``config`` with the overrides that are not None."""
    return dict(config, **{k: v for k, v in overrides.items() if v is not None})


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
    """``doc`` as a JSON file's text. NaN and infinities are not JSON, so
    ``json.dumps`` refuses them rather than writing them as bare words."""
    return json.dumps(doc, indent=1, sort_keys=True, allow_nan=False) + "\n"


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
    return _with(config, overrides)


def build_dataset(config: dict) -> data.Dataset:
    """The dataset of a run config that :func:`validate` accepts."""
    return validate(config).dataset()


def write_history_csv(path: Path, run_id: str, history) -> None:
    rows = [["epoch", "l_d", "l_c", "total", "accuracy", "rel_cond_entropy"]]
    rows += [
        [str(row.epoch), *map(_fmt, (row.l_d, row.l_c, row.total, row.accuracy, -row.l_c))]
        for row in history
    ]
    write_atomic(path, f"# run_id={run_id}\n" + _csv_text(rows))


def cmd_train(config: dict, out_dir: Path) -> RunManifest:
    spec = validate(config)
    result = trainer.train(spec.training, spec.dataset())
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


def run_floor(spec: RunSpec, manifest: RunManifest, base: Path) -> float | None:
    """MSE floor at the run's relative-entropy convention (stated offset);
    None for a noise-free run, which has no floor."""
    if spec.noise.std <= 0:
        return None
    mix = mixture.load_mixture(_artifact_path(manifest, base, "mixture"))
    return bounds.bounds_report(mix, spec.noise, spec.h_x_offset, spec.data_dim).mse_floor


def cmd_attack(run: str, attack_overrides: dict | None = None) -> adversary.AttackReport:
    manifest, base = _load_manifest(run)
    spec = validate(_with(manifest.config, attack_overrides or {}))
    ds = spec.dataset()
    encoder = network.load_network(_artifact_path(manifest, base, "encoder"))
    # The layers build_models makes: data_dim -> hidden (relu) -> d_z (identity).
    cfg = spec.training
    layers = [(l.weights.shape, l.activation) for l in encoder.layers]
    expected = [((cfg.hidden, spec.data_dim), "relu"), ((cfg.d_z, cfg.hidden), "identity")]
    if layers != expected:
        raise ShapeMismatch(f"encoder layers {layers} are not the run's {expected}")
    # Read before the attacker trains, so that a bad mixture costs nothing.
    floor = run_floor(spec, manifest, base)
    attacker = adversary.train_attacker(encoder, spec.noise, ds, spec.attack)
    x_train, _ = ds.train_arrays()
    x_test, _ = ds.test_arrays()
    report = adversary.evaluate_attack(
        attacker, encoder, spec.noise, x_train, x_test,
        seed=spec.attack.seed, floor=floor,
    )
    save_attack(base, manifest.run_id, spec.attack.seed, report)
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
    spec = validate(_with(manifest.config, {"h_x_offset": h_x_offset}))
    if spec.noise.std <= 0:
        raise ValueError(
            f"the leakage bound needs noise_std > 0; run {manifest.run_id} "
            f"injects noise_std={spec.noise.std}"
        )
    mix = mixture.load_mixture(_artifact_path(manifest, base, "mixture"))
    report = bounds.bounds_report(mix, spec.noise, spec.h_x_offset, spec.data_dim)
    write_atomic(base / "bounds_report.json", _json_text(report.to_dict()))
    return report


def _sweep_point(point: dict, variance: float, out_dir: Path, trained) -> dict:
    """Write one sweep point's run, evaluate its attacker and measure its
    utility. ``trained`` is the point's (spec, dataset, training result,
    attacker), or the error its training raised, which is raised here; the
    attacker may be the error its attack raised, raised once the run is
    written."""
    if isinstance(trained, Exception):
        raise trained
    spec, ds, result, attacker = trained
    manifest = save_run(point, result, out_dir)
    if isinstance(attacker, Exception):
        raise attacker
    x_train, _ = ds.train_arrays()
    x_test, _ = ds.test_arrays()
    floor = run_floor(spec, manifest, out_dir)
    report = adversary.evaluate_attack(
        attacker, result.encoder, spec.noise, x_train, x_test,
        seed=spec.attack.seed, floor=floor,
    )
    save_attack(out_dir, manifest.run_id, spec.attack.seed, report)
    accuracy = trainer.evaluate_utility(
        result.encoder, result.decoder, ds, spec.noise, seed=spec.training.seed
    )
    return {
        "variance": variance,
        "rel_cond_entropy": -result.history[-1].l_c if result.history else None,
        "mse_train": report.mse_train,
        "mse_infer": report.mse_infer,
        "accuracy": accuracy,
        "error": "",
    }


def _attack_points(specs: list[RunSpec], ds: data.Dataset, trained: list) -> list:
    """Train the trained sweep points' attackers as one stack, with the
    encoders and dataset in memory. Each training result of ``trained``
    becomes (spec, dataset, result, attacker), the attacker being the error
    its attack raised if it failed; errors stay as they are."""
    outcomes = list(trained)
    live = [i for i, result in enumerate(trained) if not isinstance(result, Exception)]
    if live:
        attackers = adversary.train_attacker_many(
            [trained[i].encoder for i in live], [specs[i].noise for i in live],
            [ds] * len(live), [specs[i].attack for i in live],
        )
        for i, attacker in zip(live, attackers):
            outcomes[i] = (specs[i], ds, trained[i], attacker)
    return outcomes


_SWEEP_COLUMNS = ["variance", "rel_cond_entropy", "mse_train", "mse_infer", "accuracy"]


def cmd_sweep(config: dict, grid, out_dir: Path) -> list[dict]:
    """Train one fresh model per noise variance and record the robustness
    curve. The config and every point are validated and the points'
    shared dataset built first; the points train together, as one stacked
    computation, and are then attacked together, as another. Only then is
    anything written: in grid order, each point's artifacts and attack
    report are written, its utility measured, and its row appended to
    sweep.csv, so an interrupted sweep keeps the rows it finished."""
    if not grid:
        raise ValueError("sweep grid is empty")
    # Written so that NaN fails too.
    bad = [v for v in grid if not 0 <= v < np.inf]
    if bad:
        raise ValueError(f"grid variances must be finite and nonnegative, got {bad}")
    validate(config)
    points = [dict(config, noise_std=float(np.sqrt(variance))) for variance in grid]
    specs = [validate(point) for point in points]
    # The points differ only in noise_std, so they share one dataset.
    ds = specs[0].dataset()
    # Each point's training result, or the error its training raised.
    trained = trainer.train_many([spec.training for spec in specs], [ds] * len(specs))
    attacked = _attack_points(specs, ds, trained)

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    header = _csv_text([[*_SWEEP_COLUMNS, "error"]])
    write_atomic(csv_path, f"# run_id={run_id_for(config)}\n" + header)
    rows = []
    for i, (variance, point, trained) in enumerate(zip(grid, points, attacked)):
        try:
            row = _sweep_point(point, variance, out_dir / f"point_{i:02d}", trained)
        except (CemError, OSError) as exc:
            row = dict(dict.fromkeys(_SWEEP_COLUMNS), variance=variance,
                       error=f"{type(exc).__name__}: {exc}")
        with open(csv_path, "a", encoding="utf-8", newline="") as fh:
            fh.write(_csv_text([[*(_cell(row[c]) for c in _SWEEP_COLUMNS), row["error"]]]))
        rows.append(row)
    return rows


def read_history_csv(path: Path) -> list[dict]:
    """The rows of a ``history.csv``; a row whose cells do not match the
    header, or a cell that is not a number, raises :class:`ParseError`."""
    rows, header = [], None
    try:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            values = line.split(",")
            if len(values) != len(header):
                raise ValueError(f"a row of {len(values)} cells under {len(header)} columns")
            rows.append({k: (float(v) if k != "epoch" else int(v))
                         for k, v in zip(header, values)})
    except ValueError as exc:
        raise ParseError(f"invalid history {path}: {exc}") from exc
    return rows


def _report_numbers(path: Path, keys: tuple[str, ...], doc=None) -> list:
    """The entries ``keys`` of an artifact: ``doc``, or else the JSON object
    at ``path``. One that is missing or not a finite number raises
    :class:`ParseError` naming ``path``."""
    try:
        if doc is None:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        values = [doc[key] for key in keys]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"invalid artifact {path}: {exc!r}") from exc
    for key, v in zip(keys, values):
        # Written so that NaN fails too; an integer compares exactly.
        if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) < np.inf:
            raise ParseError(f"invalid artifact {path}: {key} is {v!r}, not a finite number")
    return values


def cmd_report(out_dir: Path) -> list[dict]:
    """Aggregate every run manifest beneath a directory into report.csv; an
    artifact it cannot read raises :class:`ParseError` before any write."""
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
                entry["final_accuracy"], entry["final_l_c"] = _report_numbers(
                    history_path, ("accuracy", "l_c"), history[-1])
        attack_path = base / "attack_report.json"
        if attack_path.exists():
            entry["mse_train"], entry["mse_infer"] = _report_numbers(
                attack_path, ("mse_train", "mse_infer"))
        bounds_path = base / "bounds_report.json"
        if bounds_path.exists():
            [entry["mi_bound"]] = _report_numbers(bounds_path, ("mi_bound",))
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
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad grid {text!r}: {exc}") from exc


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
            keys = ("attack_epochs", "attack_lr", "attack_seed")
            report = cmd_attack(args.run, {k: getattr(args, k) for k in keys})
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
