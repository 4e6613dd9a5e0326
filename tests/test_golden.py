"""Run artifacts must stay byte-identical to the committed goldens in
``tests/golden/`` (see the README there for how they were captured).

``tests/golden/regenerate.py`` writes the goldens with the functions and
overrides defined here."""

from pathlib import Path

import pytest

from cemlab.cli import DEFAULT_CONFIG, cmd_attack, cmd_bounds, cmd_train

GOLDEN = Path(__file__).parent / "golden"

# (golden file, DEFAULT_CONFIG overrides) of each cmd_train history.
HISTORIES = [
    ("history_e5_lam16.csv", {"epochs": 5}),
    ("history_e5_lam0.csv", {"epochs": 5, "lam": 0.0}),
    ("history_e50_lam16.csv", {"epochs": 50}),
]

# (DEFAULT_CONFIG overrides, {cmd_train artifact: golden file}) of each run
# whose checkpoints are pinned. Momentum takes its own path through the
# SGD step, so one run trains with it.
CHECKPOINTS = [
    ({"epochs": 5}, {
        "encoder.json": "encoder_e5_lam16.json",
        "decoder.json": "decoder_e5_lam16.json",
    }),
    ({"epochs": 5, "momentum": 0.9}, {
        "history.csv": "history_e5_lam16_m09.csv",
        "encoder.json": "encoder_e5_lam16_m09.json",
        "decoder.json": "decoder_e5_lam16_m09.json",
    }),
]

# The run the reports come from, and (artifact, golden file) per report.
REPORT_OVERRIDES = {"epochs": 5, "attack_epochs": 20}
REPORTS = [
    ("bounds_report.json", "bounds_report_e5.json"),
    ("attack_report.json", "attack_report_e5_a20.json"),
]


def make_history(overrides: dict, run_dir: Path) -> Path:
    """Train a run with ``overrides`` into ``run_dir``; its history.csv."""
    cmd_train(dict(DEFAULT_CONFIG, **overrides), run_dir)
    return run_dir / "history.csv"


def make_checkpoints(overrides: dict, artifacts: dict, run_dir: Path) -> dict[str, Path]:
    """Train a run with ``overrides`` into ``run_dir``; each golden's name
    in ``artifacts`` with the artifact to compare it with."""
    cmd_train(dict(DEFAULT_CONFIG, **overrides), run_dir)
    return {golden: run_dir / artifact for artifact, golden in artifacts.items()}


def make_reports(run_dir: Path) -> dict[str, Path]:
    """Train, bound and attack the report run in ``run_dir``; each report
    golden's name with the artifact to compare it with."""
    cmd_train(dict(DEFAULT_CONFIG, **REPORT_OVERRIDES), run_dir)
    cmd_bounds(str(run_dir))
    cmd_attack(str(run_dir))
    return {golden: run_dir / artifact for artifact, golden in REPORTS}


@pytest.mark.parametrize("name, overrides", HISTORIES)
def test_history_matches_golden(tmp_path, name, overrides):
    history = make_history(overrides, tmp_path)
    assert history.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "overrides, artifacts", CHECKPOINTS, ids=["e5_lam16", "e5_lam16_momentum0.9"]
)
def test_checkpoints_match_golden(tmp_path, overrides, artifacts):
    for golden, artifact in make_checkpoints(overrides, artifacts, tmp_path).items():
        assert artifact.read_bytes() == (GOLDEN / golden).read_bytes(), golden


def test_reports_match_golden(tmp_path):
    for golden, artifact in make_reports(tmp_path).items():
        assert artifact.read_bytes() == (GOLDEN / golden).read_bytes(), golden
