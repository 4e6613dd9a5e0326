"""The README's library example runs as written."""

import re
from pathlib import Path

from cemlab import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    # Two epochs instead of the default's 300 keep it well under a second.
    monkeypatch.setitem(cli.DEFAULT_CONFIG, "epochs", 2)
    exec(compile(blocks[0], str(README), "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2
    assert printed[0].startswith("LossBreakdown(epoch=1,")
    assert 0.0 <= float(printed[1]) <= 1.0
