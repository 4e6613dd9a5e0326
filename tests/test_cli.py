import csv
import json
import os
import warnings


import numpy as np
import pytest
from helpers import (
    UNWRITABLE,
    JointGaussianSpec,
    gaussian_entropy,
    minimal_mse_oracle,
    save_csv,
)

from cemlab.cli import (
    DEFAULT_CONFIG,
    cmd_attack,
    cmd_bounds,
    cmd_report,
    cmd_sweep,
    cmd_train,
    load_config,
    main,
    read_history_csv,
    run_id_for,
)
from cemlab.errors import ParseError
from cemlab.mixture import save_mixture
from cemlab.numerics import Covariance
from cemlab import cli
from cemlab import mixture as mixture_mod

TINY = {
    "epochs": 3,
    "batch_size": 16,
    "lr": 0.001,
    "data_per_class": 20,
    "attack_epochs": 5,
}


def tiny_config(**overrides):
    config = dict(DEFAULT_CONFIG)
    config.update(TINY)
    config.update(overrides)
    return config


def write_config(path, **overrides):
    config = dict(TINY)
    config.update(overrides)
    with open(path, "w") as fh:
        json.dump(config, fh)
    return path


class TestTrainCommand:
    def test_smoke_artifacts_present(self, tmp_path):
        manifest = cmd_train(tiny_config(), tmp_path / "run")
        for rel in manifest.artifacts.values():
            assert (tmp_path / "run" / rel).exists()
        assert (tmp_path / "run" / "manifest.json").exists()

    @pytest.mark.parametrize("overrides, std", [
        ({"noise_std": 0.3}, 0.3),
    ], ids=["noise_only"])
    def test_manifest_records_effective_noise_std(self, tmp_path, overrides, std):
        # The config's noise_std is the noise the run injects; the manifest
        # keeps no second copy of it.
        cmd_train(tiny_config(epochs=1, **overrides), tmp_path / "run")
        doc = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert set(doc) == {"run_id", "config", "output_dir", "artifacts"}
        manifest = cli.RunManifest.load(tmp_path / "run" / "manifest.json")
        assert cli.validate(manifest.config).noise.std == std

    def test_exit_codes_via_main(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json")
        code = main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 0

    def test_missing_config_exit_2(self, tmp_path, capsys):
        code = main(["train", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2
        assert "nope.json" in capsys.readouterr().err

    def test_bad_defense_exit_2(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", defense="warp")
        code = main(["train", "--config", str(cfg_path),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_unknown_key_refused_before_writing(self, tmp_path):
        # A key no code reads, such as the removed `defense`, would be
        # written to a manifest that no command can read back.
        config = tiny_config(defense="none", lam=0.0)
        with pytest.raises(ParseError, match="defense"):
            cmd_train(config, tmp_path / "run")
        with pytest.raises(ParseError, match="defense"):
            cmd_sweep(config, [0.01], tmp_path / "sweep")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("text", ["5", "null", "[]", '"lam"'],
                             ids=["number", "null", "empty-list", "string"])
    def test_config_not_an_object_exit_2_before_writing(self, tmp_path, capsys, text):
        # A number or null once crashed load_config with a TypeError, and an
        # empty list was taken as an empty config.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        with pytest.raises(ParseError):
            load_config(str(cfg_path), {})
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--k", "0"], ["--epochs", "-1"]])
    def test_bad_shape_exit_2_before_writing(self, tmp_path, capsys, flags):
        cfg_path = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--out", str(out), *flags])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_feature_width_in_file_exit_2_before_writing(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path / "cfg.json", d_z=0)
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_odd_hidden_in_file_exit_2_before_writing(self, tmp_path, capsys):
        # The looks-linear encoder pairs its hidden units; an odd width once
        # trained a 32-unit encoder beside a 33-unit decoder.
        cfg_path = write_config(tmp_path / "cfg.json", hidden=33)
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "even hidden" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("epochs", 2.7), ("k", True), ("data_per_class", 20.5), ("seed", "0"),
    ], ids=["fractional-epochs", "boolean-k", "fractional-data-key", "string-seed"])
    def test_non_integer_key_in_file_exit_2_before_writing(
        self, tmp_path, capsys, key, value
    ):
        # int() once read 2.7 epochs as 2 and true as k=1, while the
        # manifest kept the file's values.
        cfg_path = write_config(tmp_path / "cfg.json", **{key: value})
        out = tmp_path / "out"
        code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "config error" in err and repr(key) in err
        assert not out.exists()

    @pytest.mark.parametrize("spread", [-0.05, 1e308])
    def test_spread_that_cannot_make_data_exit_2_before_writing(self, tmp_path, capsys,
                                                               spread):
        # A negative spread was once taken silently, and 1e308 overflowed,
        # after NumPy's warnings, into "training diverged at epoch 0".
        cfg_path = write_config(tmp_path / "cfg.json", data_spread=spread)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "config error: data_spread" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_key_accepted(self, tmp_path):
        cmd_train(tiny_config(epochs=2.0), tmp_path / "run")
        assert len(read_history_csv(tmp_path / "run" / "history.csv")) == 2

    def test_validate_reads_kinds(self):
        for value in (3, 3.0, np.int64(3)):
            assert cli.validate(tiny_config(epochs=value)).training.epochs == 3
        assert cli.validate(tiny_config(seed=-2.0)).training.seed == -2
        for value in (2.7, True, False, "3", None, float("nan"), float("inf"), [3]):
            with pytest.raises(ValueError, match="'epochs' must be an integer, got"):
                cli.validate(tiny_config(epochs=value))
        assert cli.validate(tiny_config(lam=2)).training.lam == 2.0
        for value in (True, "0.1", None, [1.0], 10**400):
            with pytest.raises(ValueError, match="'lam' must be a number, got"):
                cli.validate(tiny_config(lam=value))
        assert cli.validate(tiny_config(k=None)).training.k is None
        with pytest.raises(ValueError, match="'k' must be an integer or null"):
            cli.validate(tiny_config(k="9"))
        with pytest.raises(ValueError, match="'data_kind' must be a string, got None"):
            cli.validate(tiny_config(data_kind=None))
        # The config itself is read, not rewritten: manifests keep its bytes.
        config = tiny_config(epochs=2.0, lam=16)
        cli.validate(config)
        assert config == tiny_config(epochs=2.0, lam=16)
        assert type(config["epochs"]) is float and type(config["lam"]) is int

    def test_zero_epochs_header_only_history(self, tmp_path):
        manifest = cmd_train(tiny_config(epochs=0), tmp_path / "run")
        lines = (tmp_path / "run" / "history.csv").read_text().splitlines()
        assert lines[0].startswith("# run_id=")
        assert lines[1].startswith("epoch,")
        assert len(lines) == 2

    def test_byte_identical_histories(self, tmp_path):
        config = tiny_config()
        cmd_train(config, tmp_path / "a")
        cmd_train(config, tmp_path / "b")
        assert (tmp_path / "a" / "history.csv").read_bytes() == (
            tmp_path / "b" / "history.csv"
        ).read_bytes()

    def test_flag_overrides_file(self, tmp_path):
        cfg_path = write_config(tmp_path / "cfg.json", seed=1)
        config = load_config(str(cfg_path), {"seed": 9, "lam": None})
        assert config["seed"] == 9 and config["epochs"] == 3

    def test_unknown_config_key_rejected(self, tmp_path):
        with open(tmp_path / "cfg.json", "w") as fh:
            json.dump({"learning_rate": 0.1}, fh)
        code = main(["train", "--config", str(tmp_path / "cfg.json"),
                     "--out", str(tmp_path / "out")])
        assert code != 0


    def test_csv_width_other_than_data_dim_exit_2_before_writing(self, tmp_path, capsys):
        # The MSE floor is taken over data_dim dimensions; two runs on one
        # 4-column CSV with data_dim 16 and 4 once gave the same bound and
        # different floors.
        csv_path = tmp_path / "data.csv"
        save_csv(cli.data.synth_blobs(3, 4, 20, 0.05, seed=1), csv_path)
        for argv in (["train"], ["sweep", "--grid", "0.01"]):
            cfg = write_config(tmp_path / "cfg.json", data_kind="csv",
                               data_csv=str(csv_path), data_dim=16)
            out = tmp_path / argv[0]
            assert main([*argv, "--config", str(cfg), "--out", str(out)]) == 2
            assert "4 input columns, but data_dim is 16" in capsys.readouterr().err
            assert not out.exists()
        # A run's manifest whose data_dim no longer matches its CSV.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1, data_kind="csv", data_csv=str(csv_path),
                              data_dim=4), run_dir)
        path = run_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc["config"]["data_dim"] = 16
        path.write_text(json.dumps(doc))
        before = sorted(run_dir.iterdir())
        assert main(["attack", str(run_dir)]) == 2
        assert sorted(run_dir.iterdir()) == before


class TestAttackCommand:
    @pytest.mark.parametrize("value", ["nan", "inf", "-0.5"])
    def test_bad_attack_lr_exit_2_before_training(self, tmp_path, capsys,
                                                   monkeypatch, value):
        # A NaN lr was once reported as "attack diverged", a numeric failure.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1), run_dir)
        before = sorted(run_dir.iterdir())
        trained = []
        monkeypatch.setattr(cli.adversary, "train_attacker",
                            lambda *args: trained.append(args))
        assert main(["attack", str(run_dir), "--attack-lr", value]) == 2
        assert "config error" in capsys.readouterr().err
        assert trained == []
        assert sorted(run_dir.iterdir()) == before

    def test_manifest_with_unknown_key_refused(self, tmp_path, capsys):
        # A run written when the config still had a `defense` key: its
        # noise_std need not be the noise it injected, so no command may
        # read it.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1), run_dir)
        path = run_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc["config"]["defense"] = "none"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="defense"):
            cli.RunManifest.load(path)
        before = sorted(run_dir.iterdir())
        for argv in (["attack", str(run_dir)], ["bounds", str(run_dir)],
                     ["report", "--out", str(tmp_path)]):
            assert main(argv) == 1
            assert "ParseError" in capsys.readouterr().err
        assert sorted(run_dir.iterdir()) == before
        assert not (tmp_path / "report.csv").exists()

    def test_attack_writes_reports(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        report = cmd_attack(str(run_dir))
        assert (run_dir / "attack_report.json").exists()
        assert (run_dir / "attacks.csv").exists()
        assert report.mse_train > 0 and report.floor is not None

    def test_repeated_attack_identical(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        a = cmd_attack(str(run_dir))
        b = cmd_attack(str(run_dir))
        assert a.to_dict() == b.to_dict()

    def test_corrupt_checkpoint_exit_1(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        (run_dir / "encoder.json").write_text("{broken")
        code = main(["attack", str(run_dir)])
        assert code == 1

    def test_missing_manifest_exit_1(self, tmp_path):
        code = main(["attack", str(tmp_path / "void")])
        assert code == 1

    def test_attacks_csv_of_another_run_refused(self, tmp_path, capsys):
        cmd_train(tiny_config(seed=0), tmp_path / "a")
        cmd_train(tiny_config(seed=1), tmp_path / "b")
        cmd_attack(str(tmp_path / "a"))
        foreign = (tmp_path / "a" / "attacks.csv").read_bytes()
        (tmp_path / "b" / "attacks.csv").write_bytes(foreign)
        assert main(["attack", str(tmp_path / "b")]) == 1
        assert "ParseError" in capsys.readouterr().err
        assert (tmp_path / "b" / "attacks.csv").read_bytes() == foreign
        assert not (tmp_path / "b" / "attack_report.json").exists()

    def test_missing_artifact_exit_1(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        (run_dir / "encoder.json").unlink()
        code = main(["attack", str(run_dir)])
        assert code == 1

    @pytest.mark.parametrize("edit", [
        lambda layers: layers.pop(),
        lambda layers: layers[-1].update(activation="sigmoid"),
        lambda layers: layers.append({
            "shape": [8, 8], "activation": "identity",
            "weights": np.eye(8).ravel().tolist(), "bias": [0.0] * 8,
        }),
    ], ids=["last layer dropped", "sigmoid output", "extra layer"])
    def test_encoder_training_could_not_write_refused(self, tmp_path, capsys,
                                                       monkeypatch, edit):
        # Without its last layer, the encoder once fed a 32-wide attacker
        # with noise drawn 32 wide, though the run's d_z is 8.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1), run_dir)
        path = run_dir / "encoder.json"
        doc = json.loads(path.read_text())
        edit(doc["layers"])
        path.write_text(json.dumps(doc))
        trained = []
        monkeypatch.setattr(cli.adversary, "train_attacker",
                            lambda *args: trained.append(args))
        before = sorted(run_dir.iterdir())
        assert main(["attack", str(run_dir), "--attack-epochs", "1"]) == 1
        assert "ShapeMismatch" in capsys.readouterr().err
        assert trained == []
        assert sorted(run_dir.iterdir()) == before

    def test_non_finite_floor_refused_before_training(self, tmp_path, capsys,
                                                       monkeypatch):
        # This once trained the attacker, exited 0, and wrote "floor":
        # Infinity, which is not JSON, and an inf cell into attacks.csv.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1, h_x_offset=1e308), run_dir)
        trained = []
        monkeypatch.setattr(cli.adversary, "train_attacker",
                            lambda *args: trained.append(args))
        before = sorted(run_dir.iterdir())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["attack", str(run_dir), "--attack-epochs", "1"]) == 1
        assert "NonFinite" in capsys.readouterr().err
        assert trained == []
        assert sorted(run_dir.iterdir()) == before


class TestBoundsCommand:
    @pytest.mark.parametrize("case", [
        "negative weight", "zero weight", "nan weight", "weights sum to 3",
        "infinite mean", "negative dataset_size", "fractional dataset_size",
        "fractional dim", "true mean entry",
    ])
    def test_unwritable_mixture_exit_1(self, tmp_path, capsys, monkeypatch, case):
        # Each once passed: bounds_report.json got NaN, which is not JSON,
        # or the bound of weights that sum to more than 3.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1), run_dir)
        path = run_dir / "mixture.json"
        doc = json.loads(path.read_text())
        UNWRITABLE[case](doc)
        path.write_text(json.dumps(doc))
        trained = []
        monkeypatch.setattr(cli.adversary, "train_attacker",
                            lambda *args: trained.append(args))
        before = sorted(run_dir.iterdir())
        for command in ("bounds", "attack"):
            assert main([command, str(run_dir)]) == 1
            assert "ParseError" in capsys.readouterr().err
        assert trained == []
        assert sorted(run_dir.iterdir()) == before

    @pytest.mark.parametrize("artifacts", [
        ["mixture.json"], {"mixture": "/etc/mixture.json"},
        {"mixture": "../run/mixture.json"}, {"mixture": 3}, {"mixture": ""},
    ], ids=["list", "absolute", "parent", "number", "empty"])
    def test_manifest_artifacts_must_be_relative_paths(self, tmp_path, capsys, artifacts):
        # A list here once made `bounds` raise an uncaught TypeError.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1), run_dir)
        path = run_dir / "manifest.json"
        doc = json.loads(path.read_text())
        doc["artifacts"] = artifacts
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="artifacts"):
            cli.RunManifest.load(path)
        assert main(["bounds", str(run_dir)]) == 1
        assert "ParseError" in capsys.readouterr().err
        assert not (run_dir / "bounds_report.json").exists()

    # At 1e308 this once exited 0 and wrote "mse_floor": Infinity, which is
    # not JSON; at 6000 over 16 input dimensions the floor's exp overflows.
    @pytest.mark.parametrize("offset", ["1e308", "6000"])
    def test_non_finite_floor_exit_1(self, tmp_path, capsys, offset):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=1), run_dir)
        before = sorted(run_dir.iterdir())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["bounds", str(run_dir), "--h-x-offset", offset]) == 1
        assert "NonFinite" in capsys.readouterr().err
        assert sorted(run_dir.iterdir()) == before

    def test_attack_floor_equals_bounds_floor(self, tmp_path):
        # The two commands report one run's floor, each from its own call.
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(epochs=2), run_dir)
        for offset in (0.0, 2.5):
            floor = cmd_attack(str(run_dir), {"attack_epochs": 1, "h_x_offset": offset}).floor
            assert floor.hex() == cmd_bounds(str(run_dir), offset).mse_floor.hex()
            attack_doc = json.loads((run_dir / "attack_report.json").read_text())
            bounds_doc = json.loads((run_dir / "bounds_report.json").read_text())
            assert attack_doc["floor"] == bounds_doc["mse_floor"] == floor

    def test_alias_identity_and_file(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        report = cmd_bounds(str(run_dir))
        assert report.cem_loss == report.mi_bound
        doc = json.loads((run_dir / "bounds_report.json").read_text())
        assert doc["cem_loss"] == doc["mi_bound"]
        assert doc["rel_cond_entropy"] == -doc["mi_bound"]

    def test_pointlike_mixture_zero_bound(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        mix = mixture_mod.GaussianMixture(
            components=[
                mixture_mod.GaussianComponent(
                    weight=1.0,
                    mean=np.zeros(DEFAULT_CONFIG["d_z"]),
                    cov=Covariance.diagonal(
                        np.zeros(DEFAULT_CONFIG["d_z"]), ridge=1e-12
                    ),
                )
            ],
            dim=DEFAULT_CONFIG["d_z"],
            dataset_size=10,
        )
        save_mixture(mixture_mod.MixtureState.of(mix), run_dir / "mixture.json")
        report = cmd_bounds(str(run_dir))
        assert report.mi_bound == pytest.approx(0.0, abs=1e-6)

    def test_gaussian_fixture_floor_matches_oracle(self, tmp_path):
        # Isotropic Gaussian world written as a run: x ~ N(0, I_4),
        # z = x + noise. With the true input entropy as offset, the
        # reported floor must equal the analytic posterior MSE.
        from cemlab.bounds import NoiseModel

        d, noise_std = 4, 0.8
        run_dir = tmp_path / "run"
        config = tiny_config(d_z=d, data_dim=d, noise_std=noise_std)
        spec = JointGaussianSpec(
            x_cov=np.eye(d),
            channel=np.eye(d),
            noise=NoiseModel(std=noise_std, dim=d),
        )
        config["h_x_offset"] = gaussian_entropy(spec.x_cov)
        run_dir.mkdir()
        from cemlab.cli import RunManifest, run_id_for

        mix = mixture_mod.GaussianMixture(
            components=[
                mixture_mod.GaussianComponent(
                    weight=1.0,
                    mean=np.zeros(d),
                    cov=Covariance.diagonal(np.ones(d), ridge=0.0),
                )
            ],
            dim=d,
            dataset_size=100,
        )
        save_mixture(mixture_mod.MixtureState.of(mix), run_dir / "mixture.json")
        RunManifest(
            run_id=run_id_for(config),
            config=config,
            output_dir=str(run_dir),
            artifacts={"mixture": "mixture.json"},
        ).save(run_dir / "manifest.json")
        report = cmd_bounds(str(run_dir))
        assert report.mse_floor == pytest.approx(
            minimal_mse_oracle(spec), abs=1e-9
        )

    def test_noise_free_run_is_a_config_error(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(lam=0.0, noise_std=0.0), run_dir)
        with pytest.raises(ValueError, match="noise_std > 0"):
            cmd_bounds(str(run_dir))
        assert main(["bounds", str(run_dir)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not (run_dir / "bounds_report.json").exists()

    def test_defense_none_injects_no_noise(self, tmp_path):
        # The baseline without the defense is a noise_std=0 run: its attack
        # sees the noise-free channel and reports no floor.
        from cemlab.adversary import evaluate_attack, train_attacker
        from cemlab.bounds import NoiseModel
        from cemlab.network import load_network

        config = tiny_config(lam=0.0, noise_std=0.0)
        run_dir = tmp_path / "run"
        cmd_train(config, run_dir)
        report = cmd_attack(str(run_dir))
        assert report.floor is None
        encoder = load_network(run_dir / "encoder.json")
        ds = cli.build_dataset(config)
        noise = NoiseModel(std=0.0, dim=config["d_z"])
        attacker = train_attacker(encoder, noise, ds, cli.validate(config).attack)
        direct = evaluate_attack(
            attacker, encoder, noise, ds.train_arrays()[0], ds.test_arrays()[0],
            seed=config["attack_seed"],
        )
        assert direct.to_dict() == report.to_dict()


def _edit_history_tail(run, edit):
    lines = (run / "history.csv").read_text().splitlines()
    lines[-1] = ",".join(edit(lines[-1].split(",")))
    (run / "history.csv").write_text("\n".join(lines) + "\n")


# Edits of a run's artifacts that `cemlab report` cannot read. A history
# row without its accuracy cell raised an uncaught KeyError; a cell that is
# not a number, or an attack report that is not JSON, exited 2 as a config
# error; a report holding a JSON list raised an uncaught AttributeError; and
# a NaN bound was written into report.csv.
UNREADABLE = {
    "short-history-row": lambda run: _edit_history_tail(run, lambda cells: cells[:3]),
    "non-number-history-cell": lambda run: _edit_history_tail(
        run, lambda cells: [*cells[:-1], "n/a"]),
    "attack-report-not-JSON": lambda run: (run / "attack_report.json").write_text("{"),
    "attack-report-a-list": lambda run: (run / "attack_report.json").write_text("[0.1]"),
    "bounds-report-a-list": lambda run: (run / "bounds_report.json").write_text("[]"),
    "nan-bound": lambda run: (run / "bounds_report.json").write_text('{"mi_bound": NaN}'),
}


class TestSweepAndReport:
    def test_single_point_sweep(self, tmp_path):
        rows = cmd_sweep(tiny_config(), [0.05], tmp_path / "sweep")
        assert len(rows) == 1
        assert rows[0]["error"] == ""
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3  # comment, header, one row

    def test_sweep_appends_rows_in_grid_order(self, tmp_path, monkeypatch):
        csv_path = tmp_path / "sweep" / "sweep.csv"
        lines_before_point = []
        run_point = cli._sweep_point

        def counting_point(point, variance, out_dir, trained):
            lines_before_point.append(len(csv_path.read_text().splitlines()))
            return run_point(point, variance, out_dir, trained)

        monkeypatch.setattr(cli, "_sweep_point", counting_point)
        rows = cmd_sweep(tiny_config(), [0.04, 0.09], tmp_path / "sweep")
        assert [row["variance"] for row in rows] == [0.04, 0.09]
        # The first point's row is on disk before the second point starts.
        assert lines_before_point == [2, 3]
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[2].startswith("0.04,") and lines[3].startswith("0.09,")

    def test_sweep_attacks_match_attack_command(self, tmp_path):
        # The sweep attacks its points in memory, as one stack; the attack
        # command on a point's run must write the same reports.
        out = tmp_path / "sweep"
        cmd_sweep(tiny_config(momentum=0.9), [0.02, 0.3], out)
        for point in ("point_00", "point_01"):
            again = tmp_path / point
            again.mkdir()
            for name in ("manifest.json", "encoder.json", "mixture.json"):
                (again / name).write_bytes((out / point / name).read_bytes())
            cmd_attack(str(again))
            for name in ("attack_report.json", "attacks.csv"):
                assert (again / name).read_bytes() == (out / point / name).read_bytes()

    def test_sweep_failure_recorded(self, tmp_path):
        # per_class=2 cannot support the default component count
        rows = cmd_sweep(
            tiny_config(data_per_class=2, batch_size=2),
            [0.05], tmp_path / "sweep",
        )
        assert len(rows) == 1
        assert rows[0]["error"] != ""
        content = (tmp_path / "sweep" / "sweep.csv").read_text()
        assert "DegenerateData" in content

    @pytest.mark.parametrize("grid", ["-0.01,nan", "0.05,-0.01", "nan", "0.05,inf"])
    def test_sweep_bad_grid_exit_2_before_writing(self, tmp_path, capsys, grid):
        out = tmp_path / "sweep"
        assert main(["sweep", f"--grid={grid}", "--epochs", "2", "--out", str(out)]) == 2
        assert "finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_rejects_bad_variances_before_writing(self, tmp_path):
        # Called directly, as the benchmark and tests call it: the bad
        # variance is named, no square root of it is taken, and nothing is
        # written.
        out = tmp_path / "sweep"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"nonnegative, got \[-0\.01\]"):
                cmd_sweep(tiny_config(), [-0.01, 0.05], out)
        assert not (out / "sweep.csv").exists()

    def test_sweep_error_row_quoted(self, tmp_path):
        # An error message with commas once split its row into 8 fields
        # under the 6-column header. Two samples per class cannot fit the
        # default nine components, a runtime failure of the point.
        out = tmp_path / "sweep"
        config = dict(DEFAULT_CONFIG, data_per_class=2, batch_size=2, epochs=1)
        rows = cmd_sweep(config, [0.01], out)
        message = rows[0]["error"]
        assert message.startswith("DegenerateData: need at least k=9") and "," in message
        with open(out / "sweep.csv", newline="") as fh:
            records = list(csv.reader(fh))
        assert records[0][0].startswith("# run_id=")
        assert [len(r) for r in records[1:]] == [6, 6]
        assert records[2] == ["0.01", "", "", "", "", message]

    def test_report_aggregates_runs(self, tmp_path):
        out = tmp_path / "runs"
        cmd_train(tiny_config(seed=0), out / "r0")
        cmd_train(tiny_config(seed=1), out / "r1")
        cmd_attack(str(out / "r0"))
        cmd_bounds(str(out / "r0"))
        entries = cmd_report(out)
        assert len(entries) == 2
        assert (out / "report.csv").exists()
        by_seed = {e["seed"]: e for e in entries}
        assert by_seed[0]["mse_infer"] is not None
        assert by_seed[1]["mse_infer"] is None

    @pytest.mark.parametrize("edit", UNREADABLE.values(), ids=UNREADABLE.keys())
    def test_unreadable_artifact_exit_1_before_writing(self, tmp_path, capsys, edit):
        out = tmp_path / "runs"
        cmd_train(tiny_config(epochs=2), out / "r0")
        edit(out / "r0")
        assert main(["report", "--out", str(out)]) == 1
        assert "error: ParseError: invalid" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_report_csv_written_atomically(self, tmp_path, monkeypatch):
        out = tmp_path / "runs"
        cmd_train(tiny_config(seed=0), out / "r0")
        cmd_report(out)
        before = (out / "report.csv").read_bytes()
        cmd_train(tiny_config(seed=1), out / "r1")

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cmd_report(out)
        assert (out / "report.csv").read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == ["r0", "r1", "report.csv"]

    def test_report_quotes_a_path_with_a_comma(self, tmp_path):
        out = tmp_path / "runs"
        cmd_train(tiny_config(seed=0), out / "a,b" / "r0")
        cmd_train(tiny_config(seed=1), out / "r1")
        cmd_report(out)
        with open(out / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert [len(row) for row in rows] == [10, 10, 10]
        assert rows[1][1] == str(out / "a,b" / "r0")
        # Rows without a comma keep their unquoted bytes.
        lines = (out / "report.csv").read_text().splitlines()
        assert lines[2].startswith(f"{rows[2][0]},{out / 'r1'},")

    def test_sweep_header_written_atomically(self, tmp_path, monkeypatch):
        out = tmp_path / "sweep"
        cmd_sweep(tiny_config(), [0.05], out)
        before = (out / "sweep.csv").read_bytes()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            cmd_sweep(tiny_config(), [0.05], out)
        assert (out / "sweep.csv").read_bytes() == before
        assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]

    def test_run_id_independent_of_out_dir(self):
        config = tiny_config()
        assert run_id_for(config) == run_id_for(dict(config))

    def test_history_roundtrip(self, tmp_path):
        run_dir = tmp_path / "run"
        cmd_train(tiny_config(), run_dir)
        rows = read_history_csv(run_dir / "history.csv")
        assert len(rows) == 3
        assert rows[0]["epoch"] == 0
        assert rows[-1]["rel_cond_entropy"] == -rows[-1]["l_c"]
