"""The simlint CLI: exit codes, output formats, selection, self-lint."""

import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.analysis import analyze_paths
from repro.analysis.cli import main

#: One seeded violation for each of the nine rules.
VIOLATIONS = '''\
import heapq
import random
import time


def draw():
    return random.uniform(0, 1)              # R1


def stamp():
    return time.time()                       # R2


def drain(pending):
    for item in set(pending):                # R3
        print(item)                          # R9


def proc(sim):
    sim.timeout(1.0)                         # R4
    time.sleep(0.1)                          # R5
    yield sim.timeout(1.0)


def due(sim, deadline):
    return sim.now == deadline               # R6


def collect(results=[]):                     # R7
    return results


def push(queue, when, event):
    heapq.heappush(queue, (when, event))     # R8
'''

ALL_CODES = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9"]


@pytest.fixture
def violations_file(tmp_path):
    path = tmp_path / "violations.py"
    path.write_text(VIOLATIONS)
    return str(path)


def test_every_rule_fires_on_the_fixture(violations_file):
    found = sorted({f.code for f in analyze_paths([violations_file])})
    assert found == ALL_CODES


def test_cli_exit_nonzero_on_findings(violations_file, capsys):
    assert main([violations_file]) == 1
    out = capsys.readouterr().out
    assert "violations.py" in out
    for code in ALL_CODES:
        assert code in out


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "clean.py"
    clean.write_text("def f(sim):\n    yield sim.timeout(1.0)\n")
    assert main([str(clean)]) == 0
    assert "0 findings" in capsys.readouterr().out


def test_cli_json_output(violations_file, capsys):
    assert main([violations_file, "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"])
    assert {f["code"] for f in payload["findings"]} == set(ALL_CODES)
    first = payload["findings"][0]
    assert {"path", "line", "col", "code", "name", "message"} \
        <= set(first)


def test_cli_select_restricts_rules(violations_file, capsys):
    assert main([violations_file, "--select=R1"]) == 1
    out = capsys.readouterr().out
    assert "R1" in out and "R2" not in out


def test_cli_disable_skips_rules(violations_file, capsys):
    assert main([violations_file,
                 "--disable=R2,R3,R4,R5,R6,R7,R8"]) == 1
    out = capsys.readouterr().out
    assert "R1" in out and "R8[" not in out


def test_cli_empty_selection_is_usage_error(violations_file):
    assert main([violations_file, "--select=R1", "--disable=R1"]) == 2


def test_cli_missing_path_is_usage_error(tmp_path, capsys):
    assert main([str(tmp_path / "nope.py")]) == 2
    assert "cannot read" in capsys.readouterr().err


def _listed_codes(out):
    return [line.split()[0] for line in out.splitlines()]


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ALL_CODES:
        assert code in out
    assert "global-random" in out
    assert _listed_codes(out) == ALL_CODES + ["R10", "R20", "R21"]


def test_cli_list_rules_every_family_once_in_code_order(capsys):
    assert main(["--deep", "--shard", "--scale", "--list-rules"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _listed_codes("\n".join(lines)) == \
        ["R%d" % n for n in range(1, 27)]
    # One layout for every family: names and summaries start in the
    # same columns on every line.
    for columns in (r"R\d+ +", r"R\d+ +\S+ +"):
        assert len({re.match(columns, line).end() for line in lines}) == 1


def test_unparsable_file_is_one_parse_error_for_every_family(tmp_path,
                                                            capsys):
    (tmp_path / "bad.py").write_text("def broken(:\n")
    assert main(["--deep", "--shard", "--scale", "--format=json",
                 str(tmp_path)]) == 1
    findings = json.loads(capsys.readouterr().out)["findings"]
    assert [(f["code"], f["line"], f["col"]) for f in findings] == \
        [("E0", 1, 13)]


def test_directory_walk_is_recursive_and_sorted(tmp_path):
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "b.py").write_text("import random\nrandom.random()\n")
    sub = package / "sub"
    sub.mkdir()
    (sub / "a.py").write_text("import time\nt = time.time()\n")
    findings = analyze_paths([str(package)])
    assert [f.code for f in findings] == ["R1", "R2"]
    assert findings[0].path.endswith("b.py")


def test_repro_package_is_simlint_clean():
    """The acceptance gate: the shipped tree has zero findings."""
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    findings = analyze_paths([package_dir])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_module_entrypoint(violations_file):
    """``python -m repro.analysis`` works and exits non-zero on findings."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis", violations_file],
        capture_output=True, text=True,
        env={**env, "PYTHONPATH": src + os.pathsep
             + env.get("PYTHONPATH", "")})
    assert result.returncode == 1
    assert "R1" in result.stdout


def test_main_cli_analyze_subcommand(violations_file, capsys):
    from repro.cli import main as repro_main

    assert repro_main(["analyze", "--path", violations_file]) == 1
    assert "R4" in capsys.readouterr().out

    clean_dir = os.path.join(
        os.path.dirname(os.path.abspath(repro.__file__)), "analysis")
    assert repro_main(["analyze", "--path", clean_dir, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 0
