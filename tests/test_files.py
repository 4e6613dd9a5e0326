"""Whole-file artifact writes are atomic: a write that fails leaves the
previous file and no temporary file behind."""

import os

import pytest

from cemlab.files import write_atomic
from cemlab.network import init_network, save_network


def test_write_replaces_file(tmp_path):
    path = tmp_path / "doc.json"
    write_atomic(path, "old\n")
    write_atomic(path, "new\n")
    assert path.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_write_keeps_previous_file(tmp_path):
    path = tmp_path / "doc.json"
    write_atomic(path, "old\n")
    # The text cannot be encoded past its first part, so the write raises
    # midway.
    with pytest.raises(UnicodeEncodeError):
        write_atomic(path, "partial \ud800 rest\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["doc.json"]


def test_failed_replace_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "encoder.json"
    save_network(init_network([3, 2], ["identity"], seed=0), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        save_network(init_network([3, 2], ["identity"], seed=1), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["encoder.json"]
