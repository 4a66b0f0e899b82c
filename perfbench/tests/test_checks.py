"""Each correctness check passes a real artifact and refuses a broken one.

Artifacts come from the program at small sizes; each corruption breaks
exactly the property its check guards.
"""

import dataclasses

import pytest

from repro.experiments.figure1 import run_figure1
from repro.experiments.fleet import run_fleet
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.experiments.testbed import IMAGE_BYTES, compute_node_spec

import checks

FLOOR = IMAGE_BYTES / compute_node_spec().disk_transfer_rate


@pytest.fixture(scope="module")
def table2_rows():
    return run_table2(samples=1, seed=3)


@pytest.fixture(scope="module")
def figure1_results():
    return run_figure1(samples=5, seed=3)


@pytest.fixture(scope="module")
def table1_rows():
    return run_table1(scale=0.02, seed=3)


@pytest.fixture(scope="module")
def fleet_data():
    result = run_fleet(sites=2, sessions=3, seed=5, arrival_every=6.0)
    return {site: result.site_data(site) for site in result.sites}


def _replace(rows, match, **changes):
    return [dataclasses.replace(row, **changes) if match(row) else row
            for row in rows]


def test_table2_real_artifact_passes(table2_rows):
    assert checks.check_table2(table2_rows, FLOOR) == []


def test_table2_refuses_min_above_mean(table2_rows):
    rows = _replace(table2_rows, lambda r: r.start_mode == "reboot"
                    and r.storage_mode == "nonpersistent-diskfs",
                    minimum=1e6)
    assert checks.check_table2(rows, FLOOR)


def test_table2_refuses_nonpositive_cell(table2_rows):
    rows = _replace(table2_rows, lambda r: r.storage_mode
                    == "nonpersistent-diskfs", minimum=0.0)
    assert checks.check_table2(rows, FLOOR)


def test_table2_refuses_restore_not_below_reboot(table2_rows):
    reboot = {r.storage_mode: r for r in table2_rows
              if r.start_mode == "reboot"}
    rows = _replace(table2_rows, lambda r: r.start_mode == "restore"
                    and r.storage_mode == "nonpersistent-loopbacknfs",
                    mean=reboot["nonpersistent-loopbacknfs"].mean,
                    maximum=reboot["nonpersistent-loopbacknfs"].mean)
    assert any("not below reboot" in f
               for f in checks.check_table2(rows, FLOOR))


def test_table2_refuses_persistent_not_above_nonpersistent(table2_rows):
    rows = _replace(table2_rows, lambda r: r.start_mode == "restore"
                    and r.storage_mode == "nonpersistent-diskfs",
                    mean=1e4, maximum=1e4)
    assert any("not above nonpersistent-diskfs" in f
               for f in checks.check_table2(rows, FLOOR))


def test_table2_refuses_persistent_sample_below_copy_floor(table2_rows):
    rows = _replace(table2_rows, lambda r: r.storage_mode == "persistent",
                    minimum=FLOOR - 1.0)
    assert any("image copy" in f for f in checks.check_table2(rows, FLOOR))


def test_table2_writes_refuses_short_write():
    assert checks.check_table2_writes([IMAGE_BYTES] * 2, 2, IMAGE_BYTES) \
        == []
    assert checks.check_table2_writes([IMAGE_BYTES, IMAGE_BYTES - 1], 2,
                                      IMAGE_BYTES)
    assert checks.check_table2_writes([IMAGE_BYTES], 2, IMAGE_BYTES)


def test_figure1_real_artifact_passes(figure1_results):
    assert checks.check_figure1(figure1_results) == []


def test_figure1_refuses_slowdown_below_one(figure1_results):
    results = _replace(figure1_results, lambda r: r.load_level == "light"
                       and r.test_on == "physical" and r.load_on == "vm",
                       mean_slowdown=0.99)
    assert any("below 1" in f for f in checks.check_figure1(results))


def test_figure1_tolerates_float_rounding_of_one(figure1_results):
    results = _replace(figure1_results, lambda r: r.load_level == "none"
                       and r.test_on == "physical" and r.load_on == "vm",
                       mean_slowdown=0.9999999999999999)
    assert checks.check_figure1(results) == []


def test_figure1_refuses_inexact_unloaded_baseline(figure1_results):
    results = _replace(figure1_results, lambda r: r.load_level == "none"
                       and r.test_on == "physical"
                       and r.load_on == "physical", std_slowdown=1e-6)
    assert any("exactly 1" in f for f in checks.check_figure1(results))


def test_figure1_refuses_vm_faster_than_physical(figure1_results):
    results = _replace(figure1_results, lambda r: r.load_level == "heavy"
                       and r.test_on == "vm" and r.load_on == "physical",
                       mean_slowdown=1.0)
    assert any("test in VM" in f for f in checks.check_figure1(results))


def test_table1_real_artifact_passes(table1_rows):
    assert checks.check_table1([(3, table1_rows)]) == []


def test_table1_refuses_pvfs_not_slowest(table1_rows):
    rows = _replace(table1_rows, lambda r: r.application == "SPECclimate"
                    and r.resource == "vm-pvfs", total_time=1.0)
    failures = checks.check_table1([(3, table1_rows), (4, rows)])
    assert len(failures) == 1 and "seed 4 SPECclimate" in failures[0]


def test_bytes_agree_refuses_mismatch_and_nothing():
    assert checks.check_bytes_agree(4096.0, 4096.0) == []
    assert checks.check_bytes_agree(4096.0, 8192.0)
    assert checks.check_bytes_agree(0, 0)


def test_fleet_real_artifact_passes(fleet_data):
    assert checks.check_fleet(fleet_data, 2, 3) == []


def test_fleet_refuses_missing_session(fleet_data):
    data = dict(fleet_data)
    data["site01"] = dict(data["site01"],
                          sessions=list(data["site01"]["sessions"])[1:])
    failures = checks.check_fleet(data, 2, 3)
    assert any("missing [0]" in f for f in failures)
    assert any("5 sessions completed" in f for f in failures)


def test_fleet_refuses_short_application_phase(fleet_data):
    data = dict(fleet_data)
    rows = [dict(row) for row in data["site00"]["sessions"]]
    rows[2]["app_done"] = rows[2]["ready"] + 2.0  # demand is 2.5 s
    data["site00"] = dict(data["site00"], sessions=rows)
    assert any("shorter than" in f for f in checks.check_fleet(data, 2, 3))


def test_fleet_refuses_missing_remote_job(fleet_data):
    data = dict(fleet_data)
    data["site00"] = dict(data["site00"],
                          remote=list(data["site00"]["remote"])[:-1])
    assert any("remote jobs" in f for f in checks.check_fleet(data, 2, 3))


def test_check_same_refuses_difference():
    assert checks.check_same("a", "a", "x") == []
    assert checks.check_same("a", "b", "x") == ["x differ"]
