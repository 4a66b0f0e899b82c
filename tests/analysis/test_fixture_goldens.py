"""The fixture-package findings are the contract of every simlint family.

Each file under ``tests/analysis/golden/`` is the complete
``--deep --shard --scale --format json`` output for one package under
``tests/analysis/fixtures/``, run from the fixtures directory so the
paths it records are relative to it.  Any change to the analysis that
adds, drops or rewords a finding on these packages fails here; an
intended change regenerates the golden with the command above.
"""

import os

import pytest

from repro.analysis.cli import main as simlint_main

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden")

#: Package -> the number of findings its golden holds.
PACKAGES = {"collectorpkg": 2, "scalepkg": 10, "shardchanpkg": 4,
            "shardpkg": 15, "taintpkg": 13}


@pytest.mark.parametrize("package", sorted(PACKAGES))
def test_fixture_findings_match_golden(package, monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    status = simlint_main(["--deep", "--shard", "--scale",
                           "--format", "json", package])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, package + ".json"),
              encoding="utf-8") as handle:
        golden = handle.read()
    assert out == golden
    assert status == 1
    assert ('"count": %d' % PACKAGES[package]) in out
