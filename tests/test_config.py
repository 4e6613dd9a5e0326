"""The config schema: every command refuses a bad config with exit 2
before it writes anything, and a config it accepts fails, if at all, only
with a runtime error (a ``CemError``)."""

import contextlib
import csv
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cemlab import cli, data, errors
from cemlab.cli import main

TINY = {
    "epochs": 1,
    "batch_size": 4,
    "data_per_class": 6,
    "data_dim": 4,
    "d_z": 2,
    "hidden": 8,
    "gmm_iters": 1,
    "attack_epochs": 1,
}


def write_config(path, **values):
    path.write_text(json.dumps(dict(TINY, **values)))
    return str(path)


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("values", [
    {"hidden": 33}, {"epochs": 2.7}, {"feature_scale": None},
], ids=["odd-hidden", "fractional-epochs", "null-feature-scale"])
def test_sweep_config_error_exit_2_before_writing(tmp_path, values):
    # The sweep once wrote sweep.csv with one error row per point and
    # exited 1, or crashed after writing it.
    cfg = write_config(tmp_path / "cfg.json", **values)
    out = tmp_path / "sweep"
    code, err = run_main(["sweep", "--config", cfg, "--grid", "0.01,0.02",
                          "--out", str(out)])
    assert code == 2
    assert "config error" in err
    assert not out.exists()


@pytest.mark.parametrize("values", [
    {"lam": None}, {"lam": True}, {"noise_std": "0.1"},
    {"attack_epochs": 0}, {"attack_lr": -1}, {"h_x_offset": "x"},
], ids=["null-lam", "boolean-lam", "string-noise-std",
        "zero-attack-epochs", "negative-attack-lr", "string-h-x-offset"])
def test_train_config_error_exit_2_before_writing(tmp_path, values):
    # A null float key once crashed with a TypeError; the others were
    # written into a manifest that attack or bounds then refused.
    cfg = write_config(tmp_path / "cfg.json", **values)
    out = tmp_path / "run"
    code, err = run_main(["train", "--config", cfg, "--out", str(out)])
    assert code == 2
    assert "config error" in err
    assert not out.exists()


def test_integer_data_csv_exit_2_before_writing(tmp_path):
    # An integer data_csv was once opened as a file descriptor, and the
    # manifest recorded the number, from which no command could rebuild
    # the data.
    csv_path = tmp_path / "data.csv"
    data.save_csv(data.synth_blobs(3, 4, 6, 0.05, seed=0), csv_path)
    fd = os.open(csv_path, os.O_RDONLY)
    try:
        cfg = write_config(tmp_path / "cfg.json", data_kind="csv", data_csv=fd)
        out = tmp_path / "run"
        code, err = run_main(["train", "--config", cfg, "--out", str(out)])
    finally:
        with contextlib.suppress(OSError):
            os.close(fd)
    assert code == 2
    assert "'data_csv' must be a string or null" in err
    assert not out.exists()


# -- property test ---------------------------------------------------------

CSV_FILE = "<a CSV file of this test>"
EDGES = (True, False, None, float("nan"), float("inf"), float("-inf"),
         -1, -0.5, 0, 0.0, 0.5, 2.5, "", "x", "1")
# Valid values of the keys that size arrays or loops come from small
# ranges: a huge size is an unaffordable request, not a config error.
SIZES = {
    "epochs": (0, 2), "attack_epochs": (1, 2), "gmm_iters": (0, 2),
    "data_per_class": (2, 8), "hidden": (2, 10), "d_z": (1, 4),
    "data_dim": (1, 6), "k": (1, 10), "batch_size": (1, 8), "data_classes": (1, 3),
}
VALID = {
    **{key: st.integers(lo, hi) for key, (lo, hi) in SIZES.items()},
    "seed": st.integers(0, 5) | st.just(1e308),
    "attack_seed": st.integers(0, 5) | st.just(1e308),
    "data_kind": st.sampled_from(["blobs", "csv"]),
    "data_csv": st.just(CSV_FILE),
    **{key: st.floats(0.0, 2.0) | st.just(1e308) for key in (
        "lam", "noise_std", "lr", "momentum", "feature_scale", "data_spread",
        "attack_lr", "h_x_offset")},
}
assert VALID.keys() == cli.DEFAULT_CONFIG.keys()
CONFIGS = st.fixed_dictionaries(
    {}, optional={key: valid | st.sampled_from(EDGES) for key, valid in VALID.items()}
)


def is_cem_error(name: str) -> bool:
    cls = getattr(errors, name, None)
    return isinstance(cls, type) and issubclass(cls, errors.CemError)


def runtime_errors(code: int, err: str, out) -> list[str]:
    """The error type names a run that exited ``code`` reported, on stderr
    and in its sweep rows."""
    names = [line.split(": ")[1] for line in err.splitlines()
             if line.startswith("error: ")]
    sweep_csv = out / "sweep.csv"
    if sweep_csv.exists():
        with open(sweep_csv, newline="") as fh:
            names += [row[-1].split(":")[0] for row in list(csv.reader(fh))[2:] if row[-1]]
    assert names or code == 0
    return names


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(CONFIGS)
# Only the MSE floor reads a csv run's data_dim, after a sweep point is
# written; and the square of this noise std overflows a float.
@example({"data_kind": "csv", "data_csv": CSV_FILE, "data_dim": 0})
@example({"noise_std": 1e200})
def test_bad_config_refused_before_writing(drawn):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data.save_csv(data.synth_blobs(3, 4, 6, 0.05, seed=1), tmp / "data.csv")
        config = dict(TINY, **drawn)
        if config.get("data_csv") == CSV_FILE:
            config["data_csv"] = str(tmp / "data.csv")
        (tmp / "cfg.json").write_text(json.dumps(config))
        try:
            cli.validate(dict(cli.DEFAULT_CONFIG, **config))
            refused = False
        except ValueError:
            refused = True
        for i, argv in enumerate((["train"], ["sweep", "--grid", "0.01"])):
            out = tmp / f"out_{i}"
            code, err = run_main([*argv, "--config", str(tmp / "cfg.json"),
                                  "--out", str(out)])
            if refused or code == 2:
                # A range that only the data or the training stack can
                # check (say, data_per_class >= 2 or a batch no larger
                # than the training split) is refused the same way.
                assert code == 2 and "config error" in err, (argv, err)
                assert not out.exists(), argv
            else:
                assert code in (0, 1), (argv, err)
                names = runtime_errors(code, err, out)
                assert all(map(is_cem_error, names)), (argv, err, names)
