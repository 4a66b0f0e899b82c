"""Unit tests for the sharded conservative-parallel engine."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import FlightRecorder
from repro.simulation import Simulation
from repro.simulation.sharded import (ShardError, ShardKernel,
                                      ShardMessage, ShardPlan,
                                      ShardWorld, ShardedSimulation,
                                      deliver_order)
from repro.simulation.workerpool import (WorkerGroupError,
                                         shutdown_warm_group)

#: Fixed per-group seeds (never hash(): it varies across interpreter
#: runs and would make the expected values flaky).
_SEEDS = {"a": 11, "b": 23, "c": 47}


def teardown_module(_module):
    shutdown_warm_group()


# -- toy builders (module-level: they cross process boundaries by name) ------


def build_ring_world(group, lookaheads, groups, hops, latency=0.5,
                     with_recorder=False, interval=1.0):
    """A token ring: each world forwards an incrementing token."""
    registry = MetricsRegistry(partition=group)
    sim = Simulation(seed=_SEEDS[group], metrics=registry)
    recorder = None
    if with_recorder:
        recorder = FlightRecorder(sim, interval=interval,
                                  registry=registry,
                                  include_kernel=False)
    world = ShardWorld(sim, group, lookaheads, recorder=recorder)
    order = list(groups)
    ring_next = order[(order.index(group) + 1) % len(order)]
    log = []
    tokens = registry.counter("ring.tokens")

    def on_token(w, message):
        log.append((w.sim.now, message.sender, message.payload))
        tokens.inc()
        if message.payload < hops:
            w.send(ring_next, "token", message.payload + 1,
                   latency=latency)
        else:
            w.close_outbound()

    world.on_message("token", on_token)
    if order.index(group) == 0:
        def kick(_sim):
            world.send(ring_next, "token", 1, latency=latency)

        sim.call_at(0.25, kick)
    world.collect = lambda w: list(log)
    return world


def build_silent_world(group, lookaheads):
    """No events at all: the engine must terminate immediately."""
    world = ShardWorld(Simulation(seed=_SEEDS[group]), group, lookaheads)
    world.collect = lambda w: "silent"
    return world


def build_exploding_world(group, lookaheads):
    if group == "b":
        raise RuntimeError("boom in %s" % group)
    return ShardWorld(Simulation(seed=_SEEDS[group]), group, lookaheads)


def build_boundary_world(group, lookaheads):
    """Sender emits at *exactly* the lookahead; receiver has a local
    event at exactly the delivery instant (the zero-remainder case)."""
    sim = Simulation(seed=_SEEDS[group])
    world = ShardWorld(sim, group, lookaheads)
    log = []
    if group == "a":
        def kick(_sim):
            world.send("b", "edge", "on-the-boundary", latency=1.0)
            world.close_outbound()

        sim.call_at(1.0, kick)  # deliver lands exactly at t=2.0
    else:
        world.close_outbound()

        def local(_sim):
            log.append(("local", sim.now))

        sim.call_at(2.0, local)  # same instant as the delivery

        def on_edge(w, message):
            log.append(("edge", w.sim.now, message.payload))

        world.on_message("edge", on_edge)
    world.collect = lambda w: list(log)
    return world


def _run_ring(shards, hops=9, **kwargs):
    groups = ["a", "b", "c"]
    plan = ShardPlan.uniform(groups, 0.5)
    engine = ShardedSimulation(build_ring_world, plan, shards=shards,
                               kwargs=dict(groups=groups, hops=hops,
                                           **kwargs))
    return engine.run()


# -- messages and plans ------------------------------------------------------


def test_message_sort_key_orders_by_stamp():
    msgs = [ShardMessage("d", "ch", None, 2.0, 1.0, "b", 0),
            ShardMessage("d", "ch", None, 1.0, 0.5, "b", 1),
            ShardMessage("d", "ch", None, 1.0, 0.5, "a", 0),
            ShardMessage("d", "ch", None, 1.0, 0.2, "c", 4)]
    ordered = deliver_order(msgs)
    assert [(m.deliver_time, m.send_time, m.sender, m.seq)
            for m in ordered] == [(1.0, 0.2, "c", 4), (1.0, 0.5, "a", 0),
                                  (1.0, 0.5, "b", 1), (2.0, 1.0, "b", 0)]


def test_plan_groups_are_canonically_sorted():
    plan = ShardPlan(["c", "a", "b"], {("a", "b"): 0.1})
    assert plan.groups == ("a", "b", "c")
    assert plan.lookahead("a", "b") == 0.1
    assert plan.lookahead("b", "a") == float("inf")
    assert plan.row("a") == {"b": 0.1}


def test_plan_rejects_bad_matrices():
    with pytest.raises(ShardError):
        ShardPlan([])
    with pytest.raises(ShardError):
        ShardPlan(["a", "a"])
    with pytest.raises(ShardError):
        ShardPlan(["a", "b"], {("a", "b"): 0.0})  # zero-delay coupling
    with pytest.raises(ShardError):
        ShardPlan(["a", "b"], {("a", "ghost"): 0.1})
    with pytest.raises(ShardError):
        ShardPlan(["a", "b"], {("a", "a"): 0.1})


def test_single_group_plan_and_shards_validation():
    plan = ShardPlan.single("grid")
    assert plan.groups == ("grid",)
    # A one-group plan runs inline whatever the shard count asked for.
    engine = ShardedSimulation(build_silent_world, ShardPlan.single("a"),
                               shards=4)
    assert engine.workers == 1
    assert engine.run().data("a") == "silent"
    with pytest.raises(ShardError):
        ShardedSimulation(build_silent_world, plan, shards=0)


# -- world-side channel API --------------------------------------------------


def test_send_enforces_the_conservative_contract():
    world = ShardWorld(Simulation(), "a", {"b": 0.5})
    with pytest.raises(ShardError):
        world.send("b", "ch", None, latency=0.4)  # undercuts lookahead
    with pytest.raises(ShardError):
        world.send("a", "ch", None, latency=0.5)  # to itself
    with pytest.raises(ShardError):
        world.send("ghost", "ch", None, latency=0.5)  # no channel
    message = world.send("b", "ch", "ok", latency=0.5)
    assert message.deliver_time == 0.5 and message.seq == 0
    assert world.send("b", "ch", "ok", latency=0.7).seq == 1
    world.close_outbound()
    with pytest.raises(ShardError):
        world.send("b", "ch", None, latency=0.5)


def test_world_rejects_nonpositive_lookaheads_and_dup_handlers():
    with pytest.raises(ShardError):
        ShardWorld(Simulation(), "a", {"b": 0.0})
    with pytest.raises(ShardError):
        ShardWorld(Simulation(), "a", {"a": 0.5})
    world = ShardWorld(Simulation(), "a", {})
    world.on_message("ch", lambda w, m: None)
    with pytest.raises(ShardError):
        world.on_message("ch", lambda w, m: None)


def test_world_rejects_started_recorder():
    sim = Simulation()
    recorder = FlightRecorder(sim, interval=1.0)
    recorder.start()
    with pytest.raises(ShardError):
        ShardWorld(sim, "a", {}, recorder=recorder)


def test_dispatch_without_handler_is_an_error():
    world = ShardWorld(Simulation(), "a", {})
    kernel = ShardKernel(world)
    message = ShardMessage("a", "ghost", None, 1.0, 0.5, "b", 0)
    with pytest.raises(ShardError):
        kernel.round({"horizon": 2.0, "messages": [message]})


# -- the engine --------------------------------------------------------------


def test_ring_is_identical_for_every_shard_count():
    results = {shards: _run_ring(shards) for shards in (1, 2, 3)}
    reference = results[1]
    assert reference.messages_delivered == 9
    assert reference.total_events > 0
    for result in results.values():
        assert result.rounds == reference.rounds
        assert result.end_time == reference.end_time
        for group in "abc":
            assert result.data(group) == reference.data(group)
            assert result.results[group]["now"] \
                == reference.results[group]["now"]
            assert result.results[group]["events"] \
                == reference.results[group]["events"]


def test_shards_cap_at_group_count():
    result = _run_ring(16)
    assert result.workers == 3
    assert result.shards == 16


def test_merged_metrics_equal_across_placements():
    merged = {shards: _run_ring(shards).merged_metrics().to_json()
              for shards in (1, 3)}
    assert merged[1] == merged[3]
    assert '"ring.tokens[a]"' in merged[1]


def test_recorders_align_and_merge_across_shard_counts():
    outs = {}
    for shards in (1, 2):
        result = _run_ring(shards, with_recorder=True)
        merged = result.merged_recorder()
        outs[shards] = merged.to_jsonl()
        # Every shard sampled the identical heartbeat grid up to the
        # global end, plus the final beat exactly at it.
        times = [entry.time for entry in merged.entries]
        assert times == sorted(times)
        assert times[-1] == result.end_time
    assert outs[1] == outs[2]


def test_silent_worlds_terminate_without_rounds():
    plan = ShardPlan.uniform(["a", "b"], 0.5)
    engine = ShardedSimulation(build_silent_world, plan, shards=1)
    result = engine.run()
    assert result.rounds == 0
    assert result.end_time == 0.0
    assert result.data("a") == "silent"


def test_boundary_delivery_at_exact_lookahead():
    """deliver_time == horizon == a local event's time: the message
    must land once, at its stamp, after the same-instant local event
    (older queue entries fire first)."""
    plan = ShardPlan(["a", "b"], {("a", "b"): 1.0})
    for shards in (1, 2):
        engine = ShardedSimulation(build_boundary_world, plan,
                                   shards=shards)
        result = engine.run()
        assert result.data("b") == [("local", 2.0),
                                    ("edge", 2.0, "on-the-boundary")]


def test_worker_failure_propagates_with_context():
    plan = ShardPlan.uniform(["a", "b"], 0.5)
    engine = ShardedSimulation(build_exploding_world, plan, shards=2)
    with pytest.raises(WorkerGroupError, match="boom in b"):
        engine.run()
    # Local mode surfaces the original exception directly.
    engine = ShardedSimulation(build_exploding_world, plan, shards=1)
    with pytest.raises(RuntimeError, match="boom in b"):
        engine.run()


def test_engine_rejects_unpicklable_builders():
    plan = ShardPlan.single()
    with pytest.raises(ShardError):
        ShardedSimulation(lambda group, lookaheads: None, plan)
    with pytest.raises(ShardError):
        ShardedSimulation(build_silent_world, plan, shards=0)


def test_round_robin_assignment_is_canonical():
    plan = ShardPlan.uniform(["a", "b", "c", "d", "e"], 0.1)
    engine = ShardedSimulation(build_silent_world, plan, shards=2)
    assert engine._assignment() == [["a", "c", "e"], ["b", "d"]]


# -- adaptive windows (earliest-cross-send forecasts) -------------------------


#: The forecast scenario's announce instants (known to "a" in advance).
_FORECAST_SENDS = (1.0, 2.0)


def build_forecast_world(group, lookaheads, ticks=40, step=0.05,
                         promise=True):
    """'a' announces at instants it can forecast; 'b' is dense with
    internal work, never sends, and logs what it receives."""
    sim = Simulation(seed=_SEEDS[group])
    world = ShardWorld(sim, group, lookaheads)
    log = []
    for k in range(1, ticks + 1):  # both shards busy with local events
        sim.call_at(step * k, lambda _sim: None)
    if group == "a":
        if promise:
            world.promise_no_send_before(_FORECAST_SENDS[0])

        def announce(index):
            def fire(_sim):
                world.send("b", "tok", index, latency=0.1)
                if index + 1 < len(_FORECAST_SENDS):
                    if promise:
                        world.promise_no_send_before(
                            _FORECAST_SENDS[index + 1])
                else:
                    world.close_outbound()
            return fire

        for i, when in enumerate(_FORECAST_SENDS):
            sim.call_at(when, announce(i))
    else:
        if promise:
            # Open but forecast-silent: the adaptive coordinator treats
            # this like a close while the channel stays usable.
            world.promise_no_send_before(float("inf"))
        world.on_message("tok",
                         lambda w, m: log.append((w.sim.now, m.payload)))
    world.collect = lambda w: list(log)
    return world


def _run_forecast(adaptive, shards=1, **kwargs):
    plan = ShardPlan.uniform(["a", "b"], 0.1)
    engine = ShardedSimulation(build_forecast_world, plan, shards=shards,
                               kwargs=kwargs, adaptive=adaptive)
    return engine.run()


def test_promise_is_monotone_and_binding():
    world = ShardWorld(Simulation(), "a", {"b": 0.5})
    world.promise_no_send_before(2.0)
    world.promise_no_send_before(1.0)  # never retreats
    assert world.send_promise == 2.0
    with pytest.raises(ShardError):
        world.send("b", "ch", None, latency=0.5)  # now=0 < promise
    # A past promise is inert: sim.now == 0 >= 0.0.
    fresh = ShardWorld(Simulation(), "a", {"b": 0.5})
    fresh.promise_no_send_before(0.0)
    assert fresh.send("b", "ch", "ok", latency=0.5).seq == 0


def test_status_and_round_report_the_promise():
    sim = Simulation()
    world = ShardWorld(sim, "a", {})
    world.promise_no_send_before(3.5)
    kernel = ShardKernel(world)
    assert kernel.status()["promise"] == 3.5
    report = kernel.round({"horizon": 1.0, "messages": []})
    assert report["promise"] == 3.5


def test_adaptive_windows_cut_rounds_with_identical_artifacts():
    fixed = _run_forecast(adaptive=False)
    adaptive = _run_forecast(adaptive=True)
    # Same run, bit for bit: deliveries, end time, per-shard events.
    expected = [(1.1, 0), (2.1, 1)]
    for result in (fixed, adaptive):
        assert result.data("a") == []
        assert result.data("b") == expected
        assert result.end_time == fixed.end_time
        assert result.results["b"]["events"] \
            == fixed.results["b"]["events"]
    # The whole point: forecasts collapse the lockstep window march.
    assert adaptive.rounds < fixed.rounds
    assert fixed.rounds > 10  # the fixed schedule really is lockstep


def test_adaptive_run_identical_across_shard_counts():
    results = {shards: _run_forecast(adaptive=True, shards=shards)
               for shards in (1, 2)}
    assert results[1].data("b") == results[2].data("b")
    assert results[1].rounds == results[2].rounds
    assert results[1].end_time == results[2].end_time


def test_adaptive_without_promises_matches_fixed_schedule():
    """Worlds that never forecast run the exact fixed round count:
    adaptive mode only acts on explicit promises."""
    fixed = _run_forecast(adaptive=False, promise=False)
    adaptive = _run_forecast(adaptive=True, promise=False)
    assert adaptive.rounds == fixed.rounds
    assert adaptive.data("b") == fixed.data("b")


def test_broken_promise_is_an_error():
    sim = Simulation()
    world = ShardWorld(sim, "a", {"b": 0.5})
    world.promise_no_send_before(5.0)

    def early(_sim):
        world.send("b", "ch", None, latency=0.5)

    sim.call_at(1.0, early)
    kernel = ShardKernel(world)
    with pytest.raises(ShardError, match="breaking its promise"):
        kernel.round({"horizon": 2.0, "messages": []})
