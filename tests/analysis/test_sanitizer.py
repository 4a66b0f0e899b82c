"""simsan: each hazard class fires on an injected bug and stays silent
on clean runs, and sanitized runs never change simulation results."""

import pytest

from repro.analysis.sanitizer import (
    LOST_EVENT,
    MERGE_ORDER,
    ORDERING_RACE,
    RESOURCE_LEAK,
    DeterminismSanitizer,
)
from repro.experiments.runner import merge_accumulators
from repro.simulation import monitor as monitor_module
from repro.simulation.kernel import Simulation
from repro.simulation.monitor import StatAccumulator
from repro.simulation.resources import Resource


def sanitized_sim(seed=0):
    sanitizer = DeterminismSanitizer()
    return Simulation(seed=seed, tracer=sanitizer), sanitizer


@pytest.fixture(autouse=True)
def _no_leftover_audit():
    yield
    # A test that fails before finish() must not leak the merge audit
    # into the rest of the suite.
    monitor_module.set_merge_audit(None)


class TestOrderingRace:
    def test_same_instant_any_of_is_a_hazard(self):
        sim, sanitizer = sanitized_sim()

        def racer(sim):
            yield sim.any_of([sim.timeout(5.0), sim.timeout(5.0)])

        sim.spawn(racer(sim))
        sim.run()
        hazards = sanitizer.finish()
        assert [h.kind for h in hazards] == [ORDERING_RACE]
        assert hazards[0].time == 5.0

    def test_race_reported_once_per_condition(self):
        sim, sanitizer = sanitized_sim()

        def racer(sim):
            yield sim.any_of([sim.timeout(2.0) for _ in range(4)])

        sim.spawn(racer(sim))
        sim.run()
        assert len(sanitizer.finish()) == 1

    def test_staggered_any_of_is_clean(self):
        sim, sanitizer = sanitized_sim()

        def waiter(sim):
            yield sim.any_of([sim.timeout(5.0), sim.timeout(7.0)])

        sim.spawn(waiter(sim))
        sim.run()
        assert sanitizer.finish() == []

    def test_all_of_same_instant_is_clean(self):
        # all_of consumes every sub-event: order cannot change the
        # outcome, so identical timestamps are fine.
        sim, sanitizer = sanitized_sim()

        def waiter(sim):
            yield sim.all_of([sim.timeout(5.0), sim.timeout(5.0)])

        sim.spawn(waiter(sim))
        sim.run()
        assert sanitizer.finish() == []

    def test_same_time_different_conditions_is_clean(self):
        sim, sanitizer = sanitized_sim()

        def waiter(sim):
            first = sim.any_of([sim.timeout(3.0), sim.timeout(4.0)])
            second = sim.any_of([sim.timeout(3.0), sim.timeout(6.0)])
            yield sim.all_of([first, second])

        sim.spawn(waiter(sim))
        sim.run()
        assert sanitizer.finish() == []


class TestResourceLeak:
    def test_terminating_while_holding_is_a_hazard(self):
        sim, sanitizer = sanitized_sim()
        resource = Resource(sim, capacity=1)

        def leaker(sim):
            request = resource.request()
            yield request
            yield sim.timeout(1.0)

        sim.spawn(leaker(sim), name="leaky")
        sim.run()
        hazards = sanitizer.finish()
        assert [h.kind for h in hazards] == [RESOURCE_LEAK]
        assert "leaky" in hazards[0].message

    def test_release_in_finally_is_clean(self):
        sim, sanitizer = sanitized_sim()
        resource = Resource(sim, capacity=1)

        def worker(sim):
            request = resource.request()
            yield request
            try:
                yield sim.timeout(1.0)
            finally:
                resource.release(request)

        sim.spawn(worker(sim))
        sim.run()
        assert sanitizer.finish() == []

    def test_queued_grant_is_charged_to_the_requester(self):
        # The slot is granted inside the *releaser's* wake-up loop; the
        # hazard must still name the waiter that leaked it.
        sim, sanitizer = sanitized_sim()
        resource = Resource(sim, capacity=1)

        def polite(sim):
            request = resource.request()
            yield request
            yield sim.timeout(1.0)
            resource.release(request)

        def rude(sim):
            request = resource.request()
            yield request
            yield sim.timeout(1.0)

        sim.spawn(polite(sim), name="polite")
        sim.spawn(rude(sim), name="rude")
        sim.run()
        hazards = sanitizer.finish()
        assert [h.kind for h in hazards] == [RESOURCE_LEAK]
        assert "rude" in hazards[0].message


class TestLostEvent:
    def test_unobserved_fired_event_is_a_hazard(self):
        sim, sanitizer = sanitized_sim()

        def loser(sim):
            sim.timeout(3.0)  # never yielded: fires into the void
            yield sim.timeout(1.0)

        sim.spawn(loser(sim))
        sim.run()
        hazards = sanitizer.finish()
        assert [h.kind for h in hazards] == [LOST_EVENT]
        assert hazards[0].time == 3.0

    def test_late_observation_retires_the_candidate(self):
        sim, sanitizer = sanitized_sim()

        def late(sim):
            probe = sim.timeout(1.0)
            yield sim.timeout(2.0)  # probe fires unobserved meanwhile
            yield probe             # ...then is consumed after the fact

        sim.spawn(late(sim))
        sim.run()
        assert sanitizer.finish() == []

    def test_process_termination_events_are_exempt(self):
        sim, sanitizer = sanitized_sim()

        def worker(sim):
            yield sim.timeout(1.0)

        sim.spawn(worker(sim))  # nobody waits for the process: fine
        sim.run()
        assert sanitizer.finish() == []

    def test_span_context_attached(self):
        sim, sanitizer = sanitized_sim()

        def loser(sim):
            span = sim.trace.begin("phase", "boot")
            sim.timeout(3.0)
            yield sim.timeout(5.0)
            sim.trace.end(span)

        sim.spawn(loser(sim))
        sim.run()
        hazards = sanitizer.finish()
        assert hazards[0].spans == ("phase/boot",)
        assert "phase/boot" in hazards[0].render()


class TestMergeOrder:
    def test_out_of_order_fold_is_a_hazard(self):
        sim, sanitizer = sanitized_sim()
        parts = [StatAccumulator("p%d" % i) for i in range(3)]
        for part in parts:
            part.add(1.0)
        merge_accumulators([parts[1], parts[0], parts[2]])
        hazards = sanitizer.finish()
        assert [h.kind for h in hazards] == [MERGE_ORDER]
        del sim

    def test_double_merge_is_a_hazard(self):
        sim, sanitizer = sanitized_sim()
        part = StatAccumulator("part")
        part.add(1.0)
        total = StatAccumulator("total")
        total.merge(part)
        total.merge(part)
        hazards = sanitizer.finish()
        assert [h.kind for h in hazards] == [MERGE_ORDER]
        assert "twice" in hazards[0].message
        del sim

    def test_task_order_fold_is_clean(self):
        sim, sanitizer = sanitized_sim()
        parts = [StatAccumulator("p%d" % i) for i in range(4)]
        for part in parts:
            part.add(2.0)
        merge_accumulators(parts)
        assert sanitizer.finish() == []
        del sim

    def test_unpickled_parts_are_not_compared(self):
        import pickle

        sim, sanitizer = sanitized_sim()
        parts = []
        for i in range(2):
            part = StatAccumulator("w%d" % i)
            part.add(float(i))
            parts.append(pickle.loads(pickle.dumps(part)))
        assert all(part._seq is None for part in parts)
        merge_accumulators(list(reversed(parts)))
        assert sanitizer.finish() == []
        del sim

    def test_audit_uninstalled_after_finish(self):
        sim, sanitizer = sanitized_sim()
        sanitizer.finish()
        assert monitor_module._merge_audit is None
        del sim


class TestPureObserver:
    def test_sanitized_run_matches_plain_run(self):
        def build(tracer):
            sim = Simulation(seed=7, tracer=tracer)
            resource = Resource(sim, capacity=2)
            results = []

            def worker(sim, index):
                request = resource.request()
                yield request
                try:
                    delay = sim.streams.stream("svc").expovariate(1.0)
                    yield sim.timeout(delay)
                    results.append((index, sim.now))
                finally:
                    resource.release(request)

            for index in range(6):
                sim.spawn(worker(sim, index), name="w%d" % index)
            sim.run()
            return sim.now, results

        sanitizer = DeterminismSanitizer()
        sanitized = build(sanitizer)
        assert sanitizer.finish() == []
        plain = build(None)
        assert sanitized == plain

    def test_finish_is_idempotent(self):
        sim, sanitizer = sanitized_sim()

        def loser(sim):
            sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.spawn(loser(sim))
        sim.run()
        assert sanitizer.finish() == sanitizer.finish()
        assert len(sanitizer.finish()) == 1

    @pytest.mark.parametrize("scenario", ["figure1", "table1", "table2"])
    def test_obs_scenarios_are_hazard_free_and_identical(self, scenario):
        from repro.obs.runner import run_scenario

        sanitizer = DeterminismSanitizer()
        sim = run_scenario(scenario, seed=42, tracer=sanitizer)
        assert sanitizer.finish() == []
        plain = run_scenario(scenario, seed=42)
        assert sim.now == plain.now
        assert sim.metrics.to_json() == plain.metrics.to_json()

    def test_cli_sanitize_exits_clean(self, capsys):
        from repro.cli import main as repro_main

        assert repro_main(["sanitize", "table2", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert " 0 hazard(s)" in out
        assert "identical to untraced run" in out
