"""Run artifacts must stay byte-identical to the committed goldens in
``tests/golden/`` (see the README there for how they were captured)."""

from pathlib import Path

import pytest

from cemlab.cli import DEFAULT_CONFIG, cmd_attack, cmd_bounds, cmd_train

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name, overrides", [
    ("history_e5_lam16.csv", {"epochs": 5}),
    ("history_e5_lam0.csv", {"epochs": 5, "lam": 0.0}),
    ("history_e50_lam16.csv", {"epochs": 50}),
])
def test_history_matches_golden(tmp_path, name, overrides):
    cmd_train(dict(DEFAULT_CONFIG, **overrides), tmp_path)
    assert (tmp_path / "history.csv").read_bytes() == (GOLDEN / name).read_bytes()


def test_reports_match_golden(tmp_path):
    cmd_train(dict(DEFAULT_CONFIG, epochs=5, attack_epochs=20), tmp_path)
    cmd_bounds(str(tmp_path))
    cmd_attack(str(tmp_path))
    for artifact, golden in [
        ("bounds_report.json", "bounds_report_e5.json"),
        ("attack_report.json", "attack_report_e5_a20.json"),
    ]:
        assert (tmp_path / artifact).read_bytes() == (GOLDEN / golden).read_bytes()
