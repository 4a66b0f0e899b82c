"""The fleet scenario: byte-identity across shard counts, end to end.

This is the acceptance test of the sharded engine's determinism
contract on a real model workload: every artifact a fleet run produces
— the rendered tables, the merged partition-keyed metrics registry,
the merged flight record — must be byte-identical for shards in
{1, 2, 4}, where 1 runs everything inline and the rest spread the
site kernels over persistent worker processes.
"""

import pytest

from repro.cli import main
from repro.experiments.fleet import (fleet_lookaheads, fleet_sites,
                                     run_fleet)
from repro.simulation.workerpool import shutdown_warm_group


def teardown_module(_module):
    shutdown_warm_group()


@pytest.fixture(scope="module")
def runs():
    """One small fleet run per shard count (module-scoped: the runs
    are the expensive part, the assertions are cheap)."""
    return {shards: run_fleet(sites=4, sessions=2, seed=42,
                              shards=shards)
            for shards in (1, 2, 4)}


def test_fleet_tables_byte_identical_across_shards(runs):
    renders = {s: r.render() for s, r in runs.items()}
    assert renders[1] == renders[2] == renders[4]
    assert "Fleet sessions" in renders[1]
    assert "Fleet remote dispatches" in renders[1]


def test_fleet_metrics_byte_identical_across_shards(runs):
    payloads = {s: r.merged_metrics().to_json() for s, r in runs.items()}
    assert payloads[1] == payloads[2] == payloads[4]
    # Partition keying: every site's shard carried its own keys.
    for site in fleet_sites(4):
        assert "fleet.sessions[%s]" % site in payloads[1]


def test_fleet_flight_records_byte_identical_across_shards(runs):
    records = {s: r.merged_recorder().to_jsonl() for s, r in runs.items()}
    assert records[1] == records[2] == records[4]
    assert records[1].count("\n") > 10


def test_fleet_round_schedule_is_placement_invariant(runs):
    reference = runs[1].run
    for shards in (2, 4):
        run = runs[shards].run
        assert run.rounds == reference.rounds
        assert run.messages_delivered == reference.messages_delivered
        assert run.end_time == reference.end_time
        assert run.events == reference.events
    assert reference.messages_delivered == 4 * 2  # one per session, ring


def test_fleet_sessions_all_complete(runs):
    for site in fleet_sites(4):
        data = runs[1].site_data(site)
        assert [row["session"] for row in data["sessions"]] == [0, 1]
        # Each site received its ring neighbor's two dispatches.
        assert sorted(row["job"] for row in data["remote"]) == [0, 1]
        for row in data["sessions"]:
            assert row["end"] > row["app_done"] > row["ready"] \
                > row["start"]


def test_fleet_lookaheads_come_from_the_reference_topology():
    labels = fleet_sites(3)
    matrix = fleet_lookaheads(labels)
    # Ring edges only, all positive, symmetric star topology -> equal.
    assert set(matrix) == {("site00", "site01"), ("site01", "site02"),
                           ("site02", "site00")}
    values = set(matrix.values())
    assert len(values) == 1
    assert values.pop() == pytest.approx(2 * 0.015 + 2 * 5e-5)
    assert fleet_lookaheads(fleet_sites(1)) == {}


def test_single_site_fleet_degenerates_cleanly():
    result = run_fleet(sites=1, sessions=1, seed=7, shards=4)
    assert result.run.workers == 1
    assert result.run.messages_delivered == 0
    assert result.site_data("site00")["remote"] == []
    assert len(result.site_data("site00")["sessions"]) == 1


# -- CLI plumbing ------------------------------------------------------------


def test_cli_fleet_output_identical_across_shards(tmp_path, capsys):
    outputs = {}
    flights = {}
    for shards in (1, 2):
        out = tmp_path / ("flight-%d.jsonl" % shards)
        assert main(["fleet", "--sites", "3", "--sessions", "1",
                     "--seed", "42", "--shards", str(shards),
                     "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        outputs[shards] = printed.replace(str(out), "FLIGHT")
        flights[shards] = out.read_bytes()
    assert outputs[1] == outputs[2]
    assert flights[1] == flights[2]
    assert "Fleet run" in outputs[1]
    assert "Fleet metrics" in outputs[1]


@pytest.mark.parametrize("argv", [
    ["table2", "--samples", "0"],
    ["figure1", "--workers", "0"],
    ["fleet", "--shards", "0"],
    ["fleet", "--sites", "0"],
    ["fleet", "--sessions", "-1"],
    ["fleet", "--sites", "two"],
    ["table2", "--samples", "2", "--shards", "4"],
    ["record", "table2", "--shards", "3"],
    ["table1", "--shard-model", "host"],
], ids=lambda argv: " ".join(argv))
def test_cli_usage_errors_exit_2(argv, capsys):
    """Bad counts, --shards outside fleet and unknown options such as
    --shard-model are usage errors: exit 2 and one ``error:`` line,
    never a traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert len([line for line in err.splitlines() if "error:" in line]) == 1
    assert "Traceback" not in err


def test_fleet_rejects_degenerate_parameters():
    from repro.simulation.kernel import SimulationError

    with pytest.raises(SimulationError):
        run_fleet(sites=0)
    with pytest.raises(SimulationError):
        run_fleet(sessions=0)


# -- adaptive windows (regression guard wired into `make check`) ---------------


def _strip_rounds(text):
    """A fleet render minus the one row adaptive scheduling may change."""
    return "\n".join(line for line in text.splitlines()
                     if "rounds" not in line)


def test_adaptive_windows_reduce_fleet_rounds(runs):
    """The regression guard: adaptive windows must never cost rounds,
    and on the fleet's forecastable announce schedule they must win
    some — a regression to the fixed round count fails here."""
    fixed = run_fleet(sites=4, sessions=2, seed=42, adaptive=False)
    adaptive = runs[1]
    assert adaptive.run.rounds < fixed.run.rounds
    # Everything except the reported round count is byte-identical:
    # window *sizes* changed, delivered stamps and artifacts did not.
    assert _strip_rounds(adaptive.render()) == _strip_rounds(fixed.render())
    assert adaptive.run.end_time == fixed.run.end_time
    assert adaptive.run.messages_delivered == fixed.run.messages_delivered
    assert adaptive.merged_metrics().to_json() \
        == fixed.merged_metrics().to_json()


def test_adaptive_rounds_placement_invariant(runs):
    """Adaptive scheduling stays deterministic: the grown windows are
    computed from reported promises, not from worker placement."""
    assert runs[1].run.rounds == runs[2].run.rounds == runs[4].run.rounds
    assert runs[1].run.adaptive and runs[4].run.adaptive

