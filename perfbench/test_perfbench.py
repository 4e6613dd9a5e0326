"""Tests of the benchmark itself, on smoke-sized inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import hostclock  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

from cemlab import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# sha256 of history.csv for DEFAULT_CONFIG at 40 epochs, seed 0.
HISTORY_40_EPOCHS = "949113028177f883eacbbe20428710ca42bcfe9b5d290c77c1ab8304eec6745e"


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(run.WORKLOAD_NAMES)


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_end_to_end(name, tmp_path):
    result, details, _ = run.run_workload(
        name, seed=3, seconds=0.01, trace=False, size="smoke", out_root=tmp_path
    )
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= run.MIN_OPS
    assert len(details["setup_reps_s"]) == workloads.SIZES["smoke"]["setup_reps"]
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert not any(tmp_path.glob(f"{name}-*")), "working files left behind"


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_smoke_traced(name, tmp_path):
    result, details, tracer = run.run_workload(
        name, seed=3, seconds=0.01, trace=True, size="smoke", out_root=tmp_path
    )
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    for key, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), key
        if key.endswith(".self_s"):
            assert metric["value"] >= 0.0, key
    assert details["nesting_violations"] == 0
    assert all(s >= -1e-9 for _, _, s in tracer.self_times().values())
    # Traced and untraced repetitions wrote the same bytes.
    assert details["op_traced"].count(True) >= 1
    assert not details["problems"]


def test_layer_reached_only_where_expected(tmp_path):
    result, _, _ = run.run_workload(
        "attack", seed=3, seconds=0.01, trace=True, size="smoke", out_root=tmp_path
    )
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["adversary.train_attacker.self_s"] > 0
    assert m["mixture.update_covariance.self_s"] == 0
    assert m["mixture.load_mixture.self_s"] > 0  # run_floor


def test_host_clock_scales_by_surrounding_probes(monkeypatch):
    readings = {"loop": iter([0.05, 0.15, 0.10]), "bulk": iter([0.10, 0.10, 0.20])}
    monkeypatch.setattr(hostclock.HostClock, "_probe_once",
                        lambda self, kind: next(readings[kind]))
    clock = hostclock.HostClock(("bulk", "loop"))
    ref = hostclock.REFERENCE_S
    assert clock.scale(2.0, "loop") == pytest.approx(2.0 * ref / 0.05)
    assert clock.factor("loop") == pytest.approx(ref / 0.10)
    assert clock.factor("bulk") == pytest.approx(ref / 0.15)
    assert [p["loop"] for p in clock.probes] == pytest.approx([0.05, 0.15, 0.10])
    with pytest.raises(ValueError):
        hostclock.HostClock(("nonesuch",))


def test_nesting_check_fires():
    tracer = Tracer()
    tracer._name_id("parent")
    tracer._name_id("child")
    for name, parent, start, end in ((0, -1, 0.0, 1.0), (1, 0, 0.5, 1.5)):
        tracer.span_name.append(name)
        tracer.span_parent.append(parent)
        tracer.span_op.append(0)
        tracer.span_thread.append(0)
        tracer.span_start.append(start)
        tracer.span_end.append(end)
    assert tracer.nesting_violations() == 1


def _history_digest(out: Path) -> str:
    return hashlib.sha256((out / "history.csv").read_bytes()).hexdigest()


def test_tracing_keeps_history_bytes(tmp_path):
    config = dict(cli.DEFAULT_CONFIG, epochs=40)
    cli.cmd_train(config, tmp_path / "plain")
    tracer = Tracer()
    with tracer.active():
        cli.cmd_train(config, tmp_path / "traced")
    assert tracer.self_times()["mixture.assign_nearest"][0] == 40 * 30
    assert _history_digest(tmp_path / "plain") == HISTORY_40_EPOCHS
    assert _history_digest(tmp_path / "traced") == HISTORY_40_EPOCHS
    # Every binding is restored on exit.
    from cemlab import mixture, trainer
    assert trainer.assign_nearest is mixture.assign_nearest
    assert trainer.assign_nearest.__module__ == "cemlab.mixture"
    assert not hasattr(trainer.assign_nearest, "__wrapped__")


@pytest.fixture(scope="module")
def good_history(tmp_path_factory):
    out = tmp_path_factory.mktemp("hist")
    cli.cmd_train(workloads.base_config(5, 2), out)
    return (out / "history.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[:-1],                                   # an epoch missing
    lambda rows: rows[:-1] + [rows[-1].replace(rows[-1].split(",")[1], "nan")],
    lambda rows: rows[:-1] + [",".join(rows[-1].split(",")[:4] + ["1.5", "0.0"])],
    lambda rows: rows[:-1] + [rows[-1] + ",extra"],
])
def test_history_check_fires(good_history, corrupt, tmp_path):
    path = tmp_path / "history.csv"
    path.write_text(good_history, encoding="utf-8")
    assert workloads.check_history(path, 2) == []
    lines = good_history.splitlines()
    path.write_text("\n".join(lines[:2] + corrupt(lines[2:])) + "\n", encoding="utf-8")
    assert workloads.check_history(path, 2)


def test_sweep_and_oracle_checks_fire(tmp_path):
    path = tmp_path / "sweep.csv"
    header = "# run_id=x\nvariance,rel_cond_entropy,mse_train,mse_infer,accuracy,error\n"
    path.write_text(header + "0.1,-1.0,0.02,0.03,0.9,\n", encoding="utf-8")
    assert workloads.check_sweep(path, 1) == []
    path.write_text(header + "0.1,,,,,NonFinite: diverged\n", encoding="utf-8")
    assert workloads.check_sweep(path, 1)
    path.write_text(header + "0.1,-1.0,0.02,0.03,1.2,\n", encoding="utf-8")
    assert workloads.check_sweep(path, 1)
    assert workloads.check_oracle(2.0, 2.1, 0.05, "ok") == []
    assert workloads.check_oracle(2.0, 2.5, 0.05, "low bound")
    assert workloads.check_oracle(math.nan, 2.0, 0.05, "nan")


def test_changed_output_counts_as_failed(tmp_path, monkeypatch):
    real_op = workloads.TrainWorkload.op
    calls = []

    def flaky_op(self, rep_dir):
        res = real_op(self, rep_dir)
        calls.append(rep_dir)
        if len(calls) == 2:
            with open(rep_dir / "history.csv", "a", encoding="utf-8") as fh:
                fh.write("\n")
            res.digests = {"history.csv": workloads.sha256_file(rep_dir / "history.csv")}
        return res

    monkeypatch.setattr(workloads.TrainWorkload, "op", flaky_op)
    result, details, _ = run.run_workload(
        "train", seed=3, seconds=0.01, trace=False, size="smoke", out_root=tmp_path
    )
    assert result["failed"] == 1 and not result["correct"]
    assert result["metrics"]["ok_op_share"]["value"] < 1.0
    assert "outputs differ from the first repetition" in details["problems"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "train", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
