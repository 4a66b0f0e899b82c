"""The kernel's end-of-instant hook (``Simulation.at_instant_end``)."""

import pytest

from repro.simulation import Simulation
from repro.simulation.kernel import SimulationError


def _touching(sim, log, hook, times):
    """A process that registers ``hook`` twice at each of ``times``."""
    for when in times:
        yield sim.timeout(when - sim.now)
        log.append(("touch", sim.now))
        sim.at_instant_end(hook)
        yield sim.timeout(0)
        log.append(("touch", sim.now))
        sim.at_instant_end(hook)


def _rig():
    sim = Simulation()
    log = []

    def hook():
        log.append(("hook", sim.now))

    return sim, log, hook


def _assert_settled_once_per_instant(log):
    """One hook call per touched instant, after all of its touches and
    before the clock moved on."""
    hooks = [when for kind, when in log if kind == "hook"]
    assert hooks == sorted(set(hooks))
    assert set(hooks) == {when for kind, when in log if kind == "touch"}
    for index, (kind, when) in enumerate(log):
        if kind == "hook":
            earlier = [w for k, w in log[:index] if k == "touch"]
            later = [w for k, w in log[index + 1:] if k == "touch"]
            assert max(earlier) == when
            assert all(w > when for w in later)


def test_hook_runs_once_per_instant_under_run():
    sim, log, hook = _rig()
    sim.spawn(_touching(sim, log, hook, [0.0, 1.0, 2.5]))
    sim.run()
    assert [e for e in log if e[0] == "hook"] == [
        ("hook", 0.0), ("hook", 1.0), ("hook", 2.5)]
    _assert_settled_once_per_instant(log)


def test_hook_runs_before_a_bounded_run_moves_the_clock():
    sim, log, hook = _rig()
    sim.spawn(_touching(sim, log, hook, [0.0, 1.0, 5.0]))
    sim.run(until=3.0)
    assert sim.now == 3.0
    assert [e for e in log if e[0] == "hook"] == [("hook", 0.0),
                                                  ("hook", 1.0)]
    sim.run(until=5.0)
    # The instant at 5.0 is settled before run() returns.
    assert log[-1] == ("hook", 5.0)
    _assert_settled_once_per_instant(log)


def test_hook_runs_under_run_until_complete():
    sim, log, hook = _rig()
    proc = sim.spawn(_touching(sim, log, hook, [0.5, 1.5]))
    sim.run_until_complete(proc)
    # The last instant is settled before the caller reads the model.
    assert [e for e in log if e[0] == "hook"] == [("hook", 0.5),
                                                  ("hook", 1.5)]
    _assert_settled_once_per_instant(log)


def test_step_processes_a_pending_hook_as_one_step():
    sim, log, hook = _rig()
    sim.spawn(_touching(sim, log, hook, [1.0]))
    sim.timeout(2.0)
    steps = 0
    while not log or log[-1] != ("hook", 1.0):
        sim.step()
        steps += 1
        assert sim.now <= 1.0
    # Nothing else is pending at 1.0: the step ran only the hook.
    assert sim.peek() == 2.0
    sim.step()
    assert sim.now == 2.0
    assert [e for e in log if e[0] == "hook"] == [("hook", 1.0)]


def test_peek_reports_now_while_a_call_is_pending():
    sim, log, hook = _rig()
    sim.timeout(4.0)
    assert sim.peek() == 4.0
    sim.at_instant_end(hook)
    assert sim.peek() == sim.now == 0.0
    sim.run(until=0.0)
    assert log == [("hook", 0.0)]
    assert sim.peek() == 4.0


def test_zero_delay_event_from_the_hook_runs_in_the_same_instant():
    sim = Simulation()
    log = []

    def second():
        log.append(("second", sim.now))

    def first():
        log.append(("first", sim.now))
        timer = sim.timeout(0)
        timer.callbacks.append(
            lambda _e: (log.append(("timer", sim.now)),
                        sim.at_instant_end(second)))

    sim.timeout(1.0).callbacks.append(lambda _e: sim.at_instant_end(first))
    sim.timeout(2.0)
    sim.run()
    assert log == [("first", 1.0), ("timer", 1.0), ("second", 1.0)]


def test_reregistering_moves_a_pending_call_to_the_back():
    sim = Simulation()
    order = []

    def a():
        order.append("a")

    def b():
        order.append("b")

    sim.at_instant_end(a)
    sim.at_instant_end(b)
    sim.at_instant_end(a)
    sim.run()
    assert order == ["b", "a"]


def test_pending_hook_can_break_a_deadlock():
    """A hook that schedules the event a process waits on is not a
    deadlock: run_until_complete runs it before giving up."""
    sim = Simulation()
    gate = sim.event()

    def waiter():
        yield gate
        return "open"

    proc = sim.spawn(waiter())
    sim.at_instant_end(lambda: gate.succeed())
    assert sim.run_until_complete(proc) == "open"

    def forever():
        yield sim.event()

    with pytest.raises(SimulationError):
        sim.run_until_complete(sim.spawn(forever()))
