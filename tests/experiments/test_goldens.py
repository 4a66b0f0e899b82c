"""Seed-42 stdout of every paper artifact, byte-compared to its golden.

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


@pytest.mark.parametrize("artifact", ["table1", "table2", "figure1",
                                      "ablations", "fleet"])
def test_stdout_matches_golden(artifact, capsys):
    assert main([artifact, "--seed", "42"]) == 0
    path = os.path.join(_GOLDENS, "%s-seed42.txt" % artifact)
    with open(path, encoding="utf-8") as handle:
        golden = handle.read()
    assert capsys.readouterr().out == golden
