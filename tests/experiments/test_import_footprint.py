"""The paper artifacts import and run on the standard library alone.

numpy serves only the AR predictor's least-squares fit and networkx
only the routing tests, so neither may load when an artifact runs:
each costs start-up time and resident memory on every run.  The check
runs in a fresh interpreter because the test session itself imports
both.
"""

import os
import subprocess
import sys

_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")

_PROBE = """
import sys

import repro.experiments.figure1
import repro.experiments.fleet
import repro.experiments.table1
import repro.experiments.table2

repro.experiments.table2.run_table2(seed=1, samples=1)
print(" ".join(name for name in ("numpy", "networkx")
               if name in sys.modules))
"""


def test_artifacts_load_neither_numpy_nor_networkx():
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, "-c", _PROBE], capture_output=True, text=True,
        env={**env, "PYTHONPATH": os.path.abspath(_SRC) + os.pathsep
             + env.get("PYTHONPATH", "")})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == ""
