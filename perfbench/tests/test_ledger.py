"""The traced run's ledger: results unchanged, counts right, clean exit."""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.experiments import fleet, table2
from repro.experiments.testbed import IMAGE_BYTES
from repro.simulation import workerpool
from repro.storage import cache as cache_module

from ledger import Ledger

BENCH = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture
def ledger():
    installed = Ledger()
    installed.install()
    try:
        yield installed
    finally:
        installed.uninstall()


def test_traced_table2_equals_untraced_and_counts_writes(ledger):
    traced = table2.run_table2(samples=1, seed=3)
    ledger.harvest()
    counts = dict(ledger.counts)
    writes = list(ledger.persistent_writes)
    ledger.uninstall()
    assert table2.run_table2(samples=1, seed=3) == traced
    assert len(writes) == 2 and min(writes) >= IMAGE_BYTES
    assert counts["disk.ops"] > 0 and counts["cache.evictions"] > 0
    assert ledger.tracer.events > 0 and ledger.tracer.resumes > 0
    by_layer = dict(zip(ledger.layers, ledger.self_time))
    assert by_layer["storage.localfs"] > 0 and by_layer["hardware.disk"] > 0


def test_uninstall_restores_every_attribute(ledger):
    from repro.simulation.kernel import Simulation

    assert "__wrapped__" in vars(table2.run_table2)
    ledger.uninstall()
    assert "__wrapped__" not in vars(table2.run_table2)
    assert "__wrapped__" not in vars(Simulation.__init__)
    assert Simulation().trace.enabled is False


def test_evictions_are_counted_from_outside(ledger):
    cache = cache_module.BlockCache(4 * 4096, block_size=4096)
    cache.insert_run("f", range(3))        # 3 fresh, no eviction
    cache.insert_run("f", range(2, 6))     # 1 present, 3 fresh, 2 evicted
    cache.insert("g", 0)                   # 1 evicted
    cache.insert("g", 0)                   # present: none
    assert ledger.counts["cache.evictions"] == 3
    cache.lookup("g", 0)
    cache.lookup("f", 0)
    ledger.harvest()
    assert ledger.counts["cache.hits"] == 1
    assert ledger.counts["cache.misses"] == 1


def test_shard_workers_ship_their_counts_back(ledger):
    kwargs = dict(sites=2, sessions=3, seed=5, arrival_every=6.0)
    one = fleet.run_fleet(shards=1, **kwargs)
    ledger.harvest()
    alone = (ledger.tracer.events, dict(ledger.counts))
    ledger.reset()
    two = fleet.run_fleet(shards=2, **kwargs)
    ledger.harvest()
    workerpool.shutdown_warm_group()
    assert two.render() == one.render()
    assert (ledger.tracer.events, dict(ledger.counts)) == alone
    assert all("_perfbench_ledger" not in two.run.results[site]
               for site in two.sites)


def test_run_prints_one_result_line_and_passes_checks():
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "table2_startup", "--seed", "3", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 30
    assert set(result["metrics"]) == {"setup_s", "run_s", "cpu_s",
                                      "peak_rss_mb"}


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = dict(os.environ, PYTHONPATH="")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table2_startup",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
