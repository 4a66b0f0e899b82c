"""Seed-42 output of every paper artifact, byte-compared to its golden.

Each artifact's stdout is compared, and so are the files written by
``repro trace`` (Chrome trace JSON) and ``repro record`` (flight-record
JSONL) for ``table1``, ``table2`` and ``figure1``, and the stdout of
``repro report`` and ``repro metrics``.  The report's Utilization table
is the only CLI output built from the CPU's ``utilization`` and
``run_queue`` monitors.

The goldens under ``benchmarks/goldens/`` are the behaviour contract:
a change to the model layer that moves any printed digit fails here.
They were recorded before the change they guard; regenerate one only
for a deliberate change of the model's output, and say why.
"""

import os

import pytest

from repro.cli import main

_GOLDENS = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "benchmarks", "goldens")


def _golden(name: str) -> bytes:
    with open(os.path.join(_GOLDENS, name), "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("artifact", ["table1", "table2", "figure1",
                                      "ablations", "fleet", "overlay",
                                      "migration"])
def test_stdout_matches_golden(artifact, capsys):
    assert main([artifact, "--seed", "42"]) == 0
    golden = _golden("%s-seed42.txt" % artifact).decode("utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("command, target", [
    ("report", "figure1"),
    ("report", "table2"),
    ("metrics", "table1"),
    ("metrics", "table2"),
])
def test_observability_stdout_matches_golden(command, target, capsys):
    assert main([command, target, "--seed", "42"]) == 0
    golden = _golden("%s-%s-seed42.txt" % (command, target)).decode("utf-8")
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize("command, target, golden", [
    ("trace", "table1", "table1-trace-seed42.json"),
    ("record", "table2", "table2-record-seed42.jsonl"),
    ("trace", "figure1", "figure1-trace-seed42.json"),
    ("trace", "table2", "table2-trace-seed42.json"),
    ("record", "table1", "table1-record-seed42.jsonl"),
    ("record", "figure1", "figure1-record-seed42.jsonl"),
])
def test_written_file_matches_golden(command, target, golden, tmp_path,
                                     capsys):
    out = tmp_path / golden
    assert main([command, target, "--seed", "42", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == _golden(golden)
