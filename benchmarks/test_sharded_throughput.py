"""Sharded engine throughput: critical-path speedup over shard counts.

The workload is the fleet, the multi-site scenario (four sites, 48
sessions each, ring dispatch traffic): coupled shards exchanging real
cross-shard messages, the one world the sharded engine runs.  The run
is identical at every shard count (the determinism contract, asserted
below), so the benchmark measures pure engine scaling.  A second
section records what adaptive windows buy on the fleet's round
schedule versus fixed lookahead windows.

**Methodology — critical path, not wall clock.**  The reference
container exposes a single CPU core, so the worker processes of a
multi-shard run time-slice one core and wall clock cannot show the
speedup a multi-core host realizes.  CPU time can: every shard round
reports its own ``time.process_time`` consumption, so for each shard
count we reconstruct the parallel schedule's critical path

    makespan = max over workers(sum of that worker's shard CPU)
               + coordinator CPU

which is exactly the elapsed time of the run on a host with one idle
core per worker (transport overlap ignored on both sides of the
ratio).  Speedup at N shards is ``makespan(1) / makespan(N)``.  Wall
clock is recorded alongside for honesty; on a single-core host it
shows no speedup and ``host_cpu_cores`` in the archived JSON says why.

The measured speedups and critical-path events/sec are merged into
``BENCH_sharded.json`` at the repo root (``make bench`` regenerates
it; each test owns its own top-level section).
"""

import json
import os
import pathlib
import time

import pytest

from repro.experiments.fleet import run_fleet
from repro.simulation.workerpool import shutdown_warm_group

pytestmark = pytest.mark.bench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCH_PATH = REPO_ROOT / "BENCH_sharded.json"

#: The fleet shape: heavy per-site tails, a short announce phase, a
#: coarse flight-recorder grid (the recorder is model payload, not
#: engine work, so the benchmark keeps it out of the numerator).
FLEET = dict(sites=4, sessions=48, seed=42, arrival_every=6.0,
             interval=10.0, capacity=64)

SHARD_COUNTS = (1, 2, 4)

#: Acceptance floors from the sharding work's design targets.
MIN_SPEEDUP = {"fleet": {2: 1.6, 4: 2.5}}

ROUNDS = 3

_METHODOLOGY = (
    "critical path: makespan = max over workers of summed per-shard "
    "round CPU (time.process_time) + coordinator CPU; speedup = "
    "makespan(1 shard) / makespan(N); best of %d runs; wall clock "
    "recorded for reference only" % ROUNDS)


def _critical_path(run) -> float:
    """Elapsed seconds of the run's schedule on one core per worker."""
    buckets = [[] for _ in range(run.workers)]
    for index, group in enumerate(run.plan.groups):
        buckets[index % run.workers].append(group)
    worker_cpu = [sum(run.cpu[group] for group in bucket)
                  for bucket in buckets]
    return max(worker_cpu) + run.coordinator_cpu


def _merge_bench(section: str, payload: dict) -> None:
    """Update one top-level section of the archived JSON in place."""
    record = {}
    if BENCH_PATH.exists():
        record = json.loads(BENCH_PATH.read_text())
    record["methodology"] = _METHODOLOGY
    record["host_cpu_cores"] = os.cpu_count()
    record[section] = payload
    BENCH_PATH.write_text(json.dumps(record, indent=2) + "\n")


def _measure(factory) -> dict:
    """Best-of-N critical path (and the matching wall clock) for one
    shard count; ``factory()`` runs the workload and returns its
    ShardRunResult."""
    best = None
    for _round in range(ROUNDS):
        start = time.perf_counter()
        run = factory()
        wall = time.perf_counter() - start
        sample = {
            "makespan_sec": _critical_path(run),
            "wall_sec": wall,
            "events": run.total_events,
            "rounds": run.rounds,
            "workers": run.workers,
            "coordinator_cpu_sec": run.coordinator_cpu,
        }
        if best is None or sample["makespan_sec"] < best["makespan_sec"]:
            best = sample
    best["events_per_sec"] = best["events"] / best["makespan_sec"]
    return best


def _speedup_section(samples: dict, workload: str) -> tuple:
    """(per-shard JSON dict, speedups) plus the determinism assertions."""
    events = {s["events"] for s in samples.values()}
    rounds = {s["rounds"] for s in samples.values()}
    assert len(events) == 1 and len(rounds) == 1, workload

    base = samples[1]["makespan_sec"]
    speedups = {shards: base / samples[shards]["makespan_sec"]
                for shards in SHARD_COUNTS}
    payload = {
        "workload": workload,
        "shards": {
            str(shards): {
                "makespan_sec": round(sample["makespan_sec"], 4),
                "critical_path_events_per_sec":
                    round(sample["events_per_sec"], 1),
                "wall_sec": round(sample["wall_sec"], 3),
                "coordinator_cpu_sec":
                    round(sample["coordinator_cpu_sec"], 4),
                "workers": sample["workers"],
                "speedup_vs_1_shard": round(speedups[shards], 3),
            }
            for shards, sample in samples.items()
        },
        "events_per_run": samples[1]["events"],
        "rounds_per_run": samples[1]["rounds"],
    }
    return payload, speedups


def _report_speedups(report, title: str, samples: dict, speedups: dict):
    lines = ["%s (critical path, best of %d):" % (title, ROUNDS)]
    for shards in SHARD_COUNTS:
        sample = samples[shards]
        lines.append(
            "  %d shard%s: makespan %6.3fs  %8.0f ev/s  "
            "speedup %.2fx  (wall %6.3fs)"
            % (shards, " " if shards == 1 else "s",
               sample["makespan_sec"], sample["events_per_sec"],
               speedups[shards], sample["wall_sec"]))
    report("\n".join(lines))


def _assert_floors(workload: str, speedups: dict):
    for shards, floor in MIN_SPEEDUP[workload].items():
        assert speedups[shards] >= floor, (
            "%s: %d-shard critical-path speedup %.2fx is below the "
            "%.1fx floor" % (workload, shards, speedups[shards], floor))


def test_sharded_throughput_fleet(report):
    try:
        samples = {
            shards: _measure(
                lambda shards=shards: run_fleet(shards=shards,
                                                **FLEET).run)
            for shards in SHARD_COUNTS}
    finally:
        shutdown_warm_group()

    payload, speedups = _speedup_section(
        samples, "fleet: %(sites)d sites x %(sessions)d sessions, "
                 "seed %(seed)d" % FLEET)
    payload["min_speedup_required"] = {
        str(k): v for k, v in MIN_SPEEDUP["fleet"].items()}
    _merge_bench("fleet", payload)
    _report_speedups(report, "Sharded engine throughput [fleet]",
                     samples, speedups)
    _assert_floors("fleet", speedups)


def test_adaptive_window_rounds(report):
    """Record what earliest-cross-send forecasts buy the fleet's round
    schedule; the fast regression guard lives in the tier-1 suite
    (tests/experiments/test_fleet.py), this archives the numbers."""
    try:
        fixed = run_fleet(adaptive=False, **FLEET).run
        adaptive = run_fleet(adaptive=True, **FLEET).run
    finally:
        shutdown_warm_group()

    assert adaptive.end_time == fixed.end_time
    assert adaptive.messages_delivered == fixed.messages_delivered
    assert adaptive.rounds <= fixed.rounds
    payload = {
        "workload": "fleet: %(sites)d sites x %(sessions)d sessions, "
                    "seed %(seed)d" % FLEET,
        "rounds_fixed_windows": fixed.rounds,
        "rounds_adaptive_windows": adaptive.rounds,
        "rounds_saved": fixed.rounds - adaptive.rounds,
        "coordinator_cpu_fixed_sec": round(fixed.coordinator_cpu, 4),
        "coordinator_cpu_adaptive_sec":
            round(adaptive.coordinator_cpu, 4),
    }
    _merge_bench("adaptive_windows", payload)
    report("Adaptive windows [fleet]: %d rounds fixed -> %d adaptive "
           "(%d saved)" % (fixed.rounds, adaptive.rounds,
                           payload["rounds_saved"]))
