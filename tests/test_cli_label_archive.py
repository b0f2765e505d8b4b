"""CLI integration tests for the `label-archive` subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.runner import worker as worker_module


@pytest.fixture
def out_dir(tmp_path):
    return tmp_path / "out"


def _label_archive(out_dir, *extra: str) -> int:
    return main(
        [
            "label-archive",
            "--seed",
            "7",
            "--duration",
            "15",
            "--start",
            "2004-06-01",
            "--months",
            "2",
            "--out-dir",
            str(out_dir),
            *extra,
        ]
    )


def test_label_archive_writes_csvs_and_report(out_dir, tmp_path, capsys):
    code = _label_archive(out_dir, "--cache-dir", str(tmp_path / "cache"))
    assert code == 0
    assert (out_dir / "labels-2004-06-01.csv").is_file()
    assert (out_dir / "labels-2004-07-01.csv").is_file()
    header = (out_dir / "labels-2004-06-01.csv").read_text().splitlines()[0]
    assert header.startswith("community,taxonomy,")
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["n_completed"] == 2
    assert payload["n_failed"] == 0
    assert payload["cache_misses"] == 2
    out = capsys.readouterr().out
    assert "2004-06-01" in out and "2004-07-01" in out


def test_label_archive_explicit_dates_and_workers(out_dir):
    code = _label_archive(
        out_dir,
        "--date",
        "2005-03-01",
        "--date",
        "2005-03-02",
        "--workers",
        "2",
    )
    assert code == 0
    assert (out_dir / "labels-2005-03-01.csv").is_file()
    assert (out_dir / "labels-2005-03-02.csv").is_file()


def test_label_archive_resume_skips_existing(out_dir):
    assert _label_archive(out_dir) == 0
    first = (out_dir / "labels-2004-06-01.csv").read_bytes()
    assert _label_archive(out_dir, "--resume") == 0
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["n_skipped"] == 2
    assert payload["n_completed"] == 0
    assert (out_dir / "labels-2004-06-01.csv").read_bytes() == first


def test_label_archive_failure_sets_exit_code(out_dir, monkeypatch, capsys):
    def boom(task):
        raise RuntimeError("worker exploded")

    monkeypatch.setattr(worker_module, "_run_task_inner", boom)
    code = _label_archive(out_dir)
    assert code == 1
    payload = json.loads((out_dir / "report.json").read_text())
    assert payload["n_failed"] == 2
    assert "worker exploded" in capsys.readouterr().out
