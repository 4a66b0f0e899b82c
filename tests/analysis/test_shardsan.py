"""The runtime shard-affinity sanitizer (``--shard-model``)."""

import pytest

from repro.analysis.shardsan import (
    SHARD_CROSSING,
    SHARD_VIOLATION,
    ShardAffinitySanitizer,
)
from repro.cli import main as repro_main
from repro.obs.runner import build_scenario, run_scenario
from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.monitor import StatAccumulator

#: Three hosts across two sites: h1/h3 share site-a, h2 is site-b.
_PARTITIONS = {"h1": "site-a", "h2": "site-b", "h3": "site-a"}


def _sanitized_sim(model="site"):
    sanitizer = ShardAffinitySanitizer(shard_model=model)
    sim = Simulation(seed=7, tracer=sanitizer)
    # What grid.partitions(model) would hand bind_grid for this map.
    sanitizer.host_partition = dict(_PARTITIONS) if model == "site" \
        else {host: host for host in _PARTITIONS}
    return sim, sanitizer


def _wait(sim, event):
    def waiter(_sim):
        yield event

    sim.spawn(waiter(sim))


def _deliver(delay, produce_track, consume_track, model="site"):
    """Schedule inside one host span, fire inside another; finish."""
    sim, sanitizer = _sanitized_sim(model)
    span = sanitizer.begin("vmm", "produce", track=produce_track)
    event = sim.timeout(delay)
    _wait(sim, event)
    sanitizer.end(span)
    span = sanitizer.begin("vmm", "consume", track=consume_track)
    sim.run()
    sanitizer.end(span)
    sanitizer.finish()
    return sanitizer


class TestConstruction:
    def test_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            ShardAffinitySanitizer(shard_model="core")

    def test_unknown_partition_model_rejected_by_grid(self):
        sim = Simulation(seed=0)
        grid, _config, _app = build_scenario("table1", sim, seed=0)
        with pytest.raises(SimulationError):
            grid.partitions("core")

    def test_grid_partition_maps(self):
        sim = Simulation(seed=0)
        grid, _config, _app = build_scenario("table1", sim, seed=0)
        assert grid.partitions("site") == {
            "compute1": "uf", "images1": "nw", "data1": "nw"}
        assert grid.partitions("host") == {
            name: name for name in ("compute1", "data1", "images1")}


class TestEventDelivery:
    def test_zero_delay_cross_partition_is_violation(self):
        sanitizer = _deliver(0.0, ("host:h1", "vm:a"), ("host:h2", "vm:b"))
        kinds = [hazard.kind for hazard in sanitizer.hazards]
        assert kinds.count(SHARD_VIOLATION) == 1
        message = next(h.message for h in sanitizer.hazards
                       if h.kind == SHARD_VIOLATION)
        assert "'site-a'" in message and "'site-b'" in message
        assert not sanitizer.crossings

    def test_positive_delay_cross_partition_is_crossing(self):
        sanitizer = _deliver(1.5, ("host:h1", "vm:a"), ("host:h2", "vm:b"))
        assert not [h for h in sanitizer.hazards
                    if h.kind == SHARD_VIOLATION]
        assert [h.kind for h in sanitizer.crossings] == [SHARD_CROSSING]
        assert "1.5" in sanitizer.crossings[0].message

    def test_same_partition_hosts_are_silent_under_site_model(self):
        sanitizer = _deliver(0.0, ("host:h1", "vm:a"), ("host:h3", "vm:c"))
        assert not [h for h in sanitizer.hazards
                    if h.kind == SHARD_VIOLATION]
        assert not sanitizer.crossings

    def test_host_model_splits_colocated_hosts(self):
        sanitizer = _deliver(0.0, ("host:h1", "vm:a"), ("host:h3", "vm:c"),
                             model="host")
        assert [h.kind for h in sanitizer.hazards
                if h.kind == SHARD_VIOLATION] == [SHARD_VIOLATION]

    def test_unowned_context_stays_silent(self):
        sanitizer = _deliver(0.0, ("sched", "gram:g"), ("host:h2", "vm:b"))
        assert not [h for h in sanitizer.hazards
                    if h.kind == SHARD_VIOLATION]
        assert not sanitizer.crossings


class TestResources:
    class _Resource:
        name = "scratch-disk"

    class _Request:
        owner = None
        resource = None

    def test_foreign_acquisition_is_a_crossing(self):
        sim, sanitizer = _sanitized_sim()
        resource = self._Resource()
        span = sanitizer.begin("vmm", "a", track=("host:h1", "vm:a"))
        sanitizer.on_resource_acquired(sim, resource, self._Request())
        sanitizer.end(span)
        span = sanitizer.begin("vmm", "b", track=("host:h2", "vm:b"))
        sanitizer.on_resource_acquired(sim, resource, self._Request())
        sanitizer.end(span)
        sanitizer.finish()
        assert len(sanitizer.crossings) == 1
        assert "scratch-disk" in sanitizer.crossings[0].message
        assert "'site-a'" in sanitizer.crossings[0].message

    def test_same_partition_reacquisition_is_silent(self):
        sim, sanitizer = _sanitized_sim()
        resource = self._Resource()
        for host in ("h1", "h3"):
            span = sanitizer.begin("vmm", host,
                                   track=("host:%s" % host, "vm:x"))
            sanitizer.on_resource_acquired(sim, resource, self._Request())
            sanitizer.end(span)
        sanitizer.finish()
        assert not sanitizer.crossings


class TestMergeAudit:
    def test_cross_partition_merge_is_violation(self):
        sim, sanitizer = _sanitized_sim()
        target = StatAccumulator("total")
        part_a, part_b = StatAccumulator("a"), StatAccumulator("b")
        part_a.add(1.0)
        part_b.add(2.0)
        span = sanitizer.begin("vmm", "a", track=("host:h1", "vm:a"))
        target.merge(part_a)
        sanitizer.end(span)
        span = sanitizer.begin("vmm", "b", track=("host:h2", "vm:b"))
        target.merge(part_b)
        sanitizer.end(span)
        hazards = sanitizer.finish()
        violations = [h for h in hazards if h.kind == SHARD_VIOLATION]
        assert len(violations) == 1 and "total" in violations[0].message

    def test_coordinator_merges_are_fine(self):
        sim, sanitizer = _sanitized_sim()
        target = StatAccumulator("total")
        for value in (1.0, 2.0):
            part = StatAccumulator()
            part.add(value)
            target.merge(part)  # no host span open: coordinator fold
        assert not [h for h in sanitizer.finish()
                    if h.kind == SHARD_VIOLATION]


class TestScenarios:
    @pytest.mark.parametrize("target", ["table2", "table1"])
    def test_replay_is_clean_and_byte_identical(self, target):
        sanitizer = ShardAffinitySanitizer(shard_model="site")
        sim = run_scenario(target, seed=42, tracer=sanitizer)
        assert sanitizer.finish() == []
        plain = run_scenario(target, seed=42)
        assert sim.now == plain.now
        assert sim.metrics.to_json() == plain.metrics.to_json()

    def test_bind_grid_learns_the_topology(self):
        sanitizer = ShardAffinitySanitizer(shard_model="site")
        run_scenario("table1", seed=42, tracer=sanitizer)
        assert sanitizer.host_partition["compute1"] == "uf"
        assert sanitizer.host_partition["images1"] == "nw"

    @pytest.mark.parametrize("model", [[], ["--shard-model", "site"]],
                             ids=["plain", "site"])
    def test_cli_shard_model_exits_clean(self, model, capsys):
        assert repro_main(["sanitize", "table2", "--seed", "42"]
                          + model) == 0
        out = capsys.readouterr().out
        assert " 0 hazard(s)" in out
        assert "identical to untraced run" in out
        if model:
            assert "under the site model" in out
