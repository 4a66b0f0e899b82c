"""The benchmark's four workloads, each one paper artifact.

A workload turns ``--seed`` into the program's inputs once (its set-up),
then runs the whole artifact per round through the program's public
entry points.  Every round of a run computes the same artifact from the
same inputs, so rounds are repeats for timing and ``attempted`` grows by
the same number of operations (simulated worlds or sessions) each round.

The program's functions are reached through their modules
(``table2.run_table2``), never through names imported here, so a traced
run goes through the wrapped versions.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Any, Dict, List

from repro.experiments import figure1, fleet, table1, table2, testbed
from repro.simulation import workerpool

import checks

__all__ = ["WORKLOADS", "make"]


def derive_seeds(name: str, seed: int, count: int) -> List[int]:
    """``count`` program seeds, a pure function of (workload, seed)."""
    rng = random.Random("%s/%d" % (name, seed))
    return [rng.randrange(1, 1_000_000) for _ in range(count)]


class Workload:
    """One artifact: inputs from a seed, a run, its correctness checks."""

    name = ""
    #: Simulated worlds or sessions one round attempts.
    ops_per_round = 0
    #: True when a round keeps every core busy (worker processes), so
    #: the host's speed is probed on each core, not only on this one.
    every_core = False

    def run(self) -> Any:
        raise NotImplementedError

    def key(self, artifact: Any) -> Any:
        """Plain data that equals for equal artifacts."""
        return [dataclasses.astuple(row) for row in artifact]

    def check(self, artifact: Any) -> List[str]:
        return []

    def check_trace(self, ledger) -> List[str]:
        """Checks that need the traced run's counts."""
        return []

    def final_check(self, key: Any) -> List[str]:
        """Checks run once per run, after the timed rounds, given the
        :meth:`key` of the first round's artifact."""
        return []

    def release(self) -> None:
        """Stop any worker processes the program keeps warm."""

    def describe(self) -> Dict[str, Any]:
        return {}

    def paper_error(self, artifact: Any) -> Dict[str, float]:
        return {}


class Table2Startup(Workload):
    """Table 2's six cells at a fixed sample count, one process."""

    name = "table2_startup"
    SAMPLES = 5
    #: The paper's Table 2 means, seconds (EXPERIMENTS.md).
    PAPER = {("reboot", "persistent"): 273.0,
             ("reboot", "nonpersistent-diskfs"): 69.2,
             ("reboot", "nonpersistent-loopbacknfs"): 74.5,
             ("restore", "persistent"): 269.0,
             ("restore", "nonpersistent-diskfs"): 12.4,
             ("restore", "nonpersistent-loopbacknfs"): 29.2}

    def __init__(self, seed: int):
        (self.seed,) = derive_seeds(self.name, seed, 1)
        self.ops_per_round = 6 * self.SAMPLES
        # The copy floor, from the testbed constants alone.
        self.persistent_floor = (testbed.IMAGE_BYTES
                                 / testbed.compute_node_spec()
                                 .disk_transfer_rate)

    def run(self):
        return table2.run_table2(samples=self.SAMPLES, seed=self.seed,
                                 workers=1)

    def check(self, artifact):
        return checks.check_table2(artifact, self.persistent_floor)

    def check_trace(self, ledger):
        return checks.check_table2_writes(ledger.persistent_writes,
                                          2 * self.SAMPLES,
                                          testbed.IMAGE_BYTES)

    def describe(self):
        return {"samples_per_cell": self.SAMPLES, "program_seed": self.seed,
                "persistent_floor_s": self.persistent_floor}

    def paper_error(self, artifact):
        return {"%s/%s" % (row.start_mode, row.storage_mode):
                row.mean / self.PAPER[(row.start_mode, row.storage_mode)]
                - 1.0 for row in artifact}


class Figure1Slowdown(Workload):
    """Figure 1's twelve scenarios at the paper's 1000 samples."""

    name = "figure1_slowdown"
    SAMPLES = 1000
    ops_per_round = 12

    def __init__(self, seed: int):
        (self.seed,) = derive_seeds(self.name, seed, 1)

    def run(self):
        return figure1.run_figure1(samples=self.SAMPLES, seed=self.seed,
                                   workers=1)

    def check(self, artifact):
        return checks.check_figure1(artifact)

    def describe(self):
        return {"samples": self.SAMPLES, "program_seed": self.seed}


class Table1Wan(Workload):
    """Table 1's six macro runs, repeated over several seeds."""

    name = "table1_wan"
    SEEDS = 8
    ops_per_round = 6 * SEEDS
    #: The paper's Table 1 user+sys totals, seconds (EXPERIMENTS.md).
    PAPER = {("SPECseis", "physical"): 16414.0,
             ("SPECseis", "vm-localdisk"): 16617.0,
             ("SPECseis", "vm-pvfs"): 16750.0,
             ("SPECclimate", "physical"): 9307.0,
             ("SPECclimate", "vm-localdisk"): 9679.0,
             ("SPECclimate", "vm-pvfs"): 9702.0}

    def __init__(self, seed: int):
        self.seeds = derive_seeds(self.name, seed, self.SEEDS)

    def run(self):
        return [(seed, table1.run_table1(scale=1.0, seed=seed))
                for seed in self.seeds]

    def key(self, artifact):
        return [(seed, [dataclasses.astuple(row) for row in rows])
                for seed, rows in artifact]

    def check(self, artifact):
        return checks.check_table1(artifact)

    def check_trace(self, ledger):
        return checks.check_bytes_agree(
            ledger.counts.get("nfs.bytes_served", 0),
            ledger.counts.get("flows.delivered_bytes", 0))

    def describe(self):
        return {"scale": 1.0, "program_seeds": self.seeds}

    def paper_error(self, artifact):
        _seed, rows = artifact[0]
        return {"%s/%s" % (row.application, row.resource):
                row.total_time / self.PAPER[(row.application, row.resource)]
                - 1.0 for row in rows}


class FleetSessions(Workload):
    """The multi-site fleet of full sessions, on two shards."""

    name = "fleet_sessions"
    SITES = 4
    SESSIONS = 192
    #: Arrival spacing, simulated seconds: wide enough that each site's
    #: two hosts never hold more guests than the VMM admits.
    ARRIVAL_EVERY = 6.0
    SHARDS = 2
    ops_per_round = SITES * SESSIONS
    every_core = True

    def __init__(self, seed: int):
        (self.seed,) = derive_seeds(self.name, seed, 1)

    def _run(self, shards: int):
        return fleet.run_fleet(sites=self.SITES, sessions=self.SESSIONS,
                               seed=self.seed, shards=shards,
                               arrival_every=self.ARRIVAL_EVERY)

    def run(self):
        return self._run(self.SHARDS)

    def key(self, artifact):
        return artifact.render()

    def check(self, artifact):
        data = {site: artifact.site_data(site) for site in artifact.sites}
        return checks.check_fleet(data, self.SITES, self.SESSIONS)

    def final_check(self, key):
        one = self._run(1)
        return checks.check_same(one.render(), key,
                                 "fleet artifacts on one and two shards")

    def release(self):
        workerpool.shutdown_warm_group()

    def describe(self):
        return {"sites": self.SITES, "sessions": self.SESSIONS,
                "arrival_every": self.ARRIVAL_EVERY, "shards": self.SHARDS,
                "program_seed": self.seed}


WORKLOADS = {cls.name: cls for cls in (Table2Startup, Figure1Slowdown,
                                       Table1Wan, FleetSessions)}


def make(name: str, seed: int) -> Workload:
    """The named workload, its inputs derived from ``seed``."""
    return WORKLOADS[name](seed)
