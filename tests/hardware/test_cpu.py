"""Unit and property tests for the processor-sharing CPU model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import CpuTask, ProcessorSharingCpu
from repro.simulation import Simulation, SimulationError


def make_cpu(sim, cores=1, **kwargs):
    # Zero switch cost by default so timing assertions are exact.
    kwargs.setdefault("context_switch_cost", 0.0)
    return ProcessorSharingCpu(sim, cores=cores, **kwargs)


def run_tasks(cores, tasks, context_switch_cost=0.0, speed=1.0, quantum=0.01):
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=cores, speed=speed, quantum=quantum,
                              context_switch_cost=context_switch_cost)
    for task in tasks:
        cpu.submit(task)
    sim.run()
    return sim, cpu


def test_single_task_runs_at_full_speed():
    task = CpuTask("t", work=10.0)
    sim, _cpu = run_tasks(cores=1, tasks=[task])
    assert task.finished_at == pytest.approx(10.0)
    assert task.elapsed == pytest.approx(10.0)


def test_speed_scales_service_time():
    task = CpuTask("t", work=10.0)
    sim, _cpu = run_tasks(cores=1, tasks=[task], speed=2.0)
    assert task.finished_at == pytest.approx(5.0)


def test_two_tasks_share_one_core_equally():
    a = CpuTask("a", work=5.0)
    b = CpuTask("b", work=5.0)
    sim, _cpu = run_tasks(cores=1, tasks=[a, b])
    assert a.finished_at == pytest.approx(10.0)
    assert b.finished_at == pytest.approx(10.0)


def test_two_tasks_on_two_cores_do_not_interfere():
    a = CpuTask("a", work=5.0)
    b = CpuTask("b", work=7.0)
    sim, _cpu = run_tasks(cores=2, tasks=[a, b])
    assert a.finished_at == pytest.approx(5.0)
    assert b.finished_at == pytest.approx(7.0)


def test_short_task_departure_speeds_up_survivor():
    # a and b share a core; once a (1s of work) leaves at t=2, b runs alone.
    a = CpuTask("a", work=1.0)
    b = CpuTask("b", work=4.0)
    sim, _cpu = run_tasks(cores=1, tasks=[a, b])
    assert a.finished_at == pytest.approx(2.0)
    # b got 1s of service by t=2, then 3s more alone.
    assert b.finished_at == pytest.approx(5.0)


def test_late_arrival_slows_down_running_task():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)
    a = CpuTask("a", work=4.0)
    cpu.submit(a)

    def arrive_later(sim):
        yield sim.timeout(2.0)
        cpu.submit(CpuTask("b", work=1.0))

    sim.spawn(arrive_later(sim))
    sim.run()
    # a runs alone [0,2] (2s done), shares [2,4] (1s done), alone after b
    # finishes at t=4, finishing its last 1s at t=5.
    assert a.finished_at == pytest.approx(5.0)


def test_weighted_sharing():
    a = CpuTask("a", work=6.0, weight=2.0)
    b = CpuTask("b", work=6.0, weight=1.0)
    sim, _cpu = run_tasks(cores=1, tasks=[a, b])
    # a gets 2/3 of the core: finishes at 9.0; b then has 3.0 left of its
    # work after receiving 1/3*9=3.0, finishing at 12.0.
    assert a.finished_at == pytest.approx(9.0)
    assert b.finished_at == pytest.approx(12.0)


def test_rate_factor_dilates_execution():
    task = CpuTask("vm", work=10.0, rate_factor=0.5)
    sim, _cpu = run_tasks(cores=1, tasks=[task])
    assert task.finished_at == pytest.approx(20.0)


def test_max_rate_caps_service():
    task = CpuTask("capped", work=2.0, max_rate=0.25)
    sim, _cpu = run_tasks(cores=1, tasks=[task])
    assert task.finished_at == pytest.approx(8.0)


def test_capped_task_leaves_capacity_to_others():
    capped = CpuTask("capped", work=2.0, max_rate=0.5)
    other = CpuTask("other", work=3.0)
    sim, _cpu = run_tasks(cores=1, tasks=[capped, other])
    # Water-filling: capped pinned at 0.5 core, other gets the rest.
    assert capped.finished_at == pytest.approx(4.0)
    # other runs at 0.5 until t=4 (2s done), then alone: 1s more.
    assert other.finished_at == pytest.approx(5.0)


def test_single_task_is_never_taxed_by_switch_cost():
    task = CpuTask("t", work=1.0)
    sim, _cpu = run_tasks(cores=1, tasks=[task], context_switch_cost=1e-3)
    assert task.finished_at == pytest.approx(1.0)


def test_contended_core_pays_context_switch_tax():
    # Two tasks, one core, 1 ms switch on a 10 ms quantum: 10% tax.
    a = CpuTask("a", work=1.0)
    b = CpuTask("b", work=1.0)
    sim, _cpu = run_tasks(cores=1, tasks=[a, b], context_switch_cost=1e-3,
                          quantum=0.01)
    assert a.finished_at == pytest.approx(2.0 / 0.9, rel=1e-6)


def test_extra_switch_cost_models_world_switch():
    # The VM task pays a bigger preemption price than the plain task.
    vm = CpuTask("vm", work=1.0, extra_switch_cost=1e-3)
    plain = CpuTask("plain", work=1.0)
    other = CpuTask("other", work=10.0)
    sim_vm, _ = run_tasks(cores=1, tasks=[vm, other],
                          context_switch_cost=1e-3, quantum=0.01)
    sim_plain, _ = run_tasks(cores=1, tasks=[plain, CpuTask("o", work=10.0)],
                             context_switch_cost=1e-3, quantum=0.01)
    assert vm.finished_at > plain.finished_at


def test_two_tasks_on_two_cores_pay_no_tax():
    a = CpuTask("a", work=1.0)
    b = CpuTask("b", work=1.0)
    sim, _cpu = run_tasks(cores=2, tasks=[a, b], context_switch_cost=1e-3)
    assert a.finished_at == pytest.approx(1.0)
    assert b.finished_at == pytest.approx(1.0)


def test_zero_work_task_completes_immediately():
    sim = Simulation()
    cpu = make_cpu(sim)
    task = CpuTask("empty", work=0.0)
    cpu.submit(task)
    sim.run()
    assert task.finished_at == 0.0


def test_cancel_returns_remaining_work():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)
    task = CpuTask("t", work=10.0)
    cpu.submit(task)
    remaining = {}

    def canceller(sim):
        yield sim.timeout(4.0)
        remaining["value"] = cpu.cancel(task)

    sim.spawn(canceller(sim))
    sim.run()
    assert remaining["value"] == pytest.approx(6.0)
    assert task.finished_at is None


def test_cancel_unknown_task_is_error():
    sim = Simulation()
    cpu = make_cpu(sim)
    with pytest.raises(SimulationError):
        cpu.cancel(CpuTask("ghost", work=1.0))


def test_resubmitting_task_is_error():
    sim = Simulation()
    cpu = make_cpu(sim)
    task = CpuTask("t", work=1.0)
    cpu.submit(task)
    with pytest.raises(SimulationError):
        cpu.submit(task)


def test_update_task_rate_factor_midway():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)
    task = CpuTask("t", work=10.0)
    cpu.submit(task)

    def slow_down(sim):
        yield sim.timeout(5.0)
        cpu.update_task(task, rate_factor=0.5)

    sim.spawn(slow_down(sim))
    sim.run()
    # 5s at full rate, remaining 5s at half rate = 10 more seconds.
    assert task.finished_at == pytest.approx(15.0)


def test_update_max_rate_midway():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)
    task = CpuTask("t", work=4.0)
    cpu.submit(task)

    def throttle(sim):
        yield sim.timeout(2.0)
        cpu.update_task(task, max_rate=0.5)

    sim.spawn(throttle(sim))
    sim.run()
    assert task.finished_at == pytest.approx(6.0)


def test_clear_max_rate():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)
    task = CpuTask("t", work=4.0, max_rate=0.5)
    cpu.submit(task)

    def unthrottle(sim):
        yield sim.timeout(4.0)
        cpu.update_task(task, clear_max_rate=True)

    sim.spawn(unthrottle(sim))
    sim.run()
    # 2.0 work done capped by t=4, remaining 2.0 at full speed.
    assert task.finished_at == pytest.approx(6.0)


def test_run_helper_returns_task():
    sim = Simulation()
    cpu = make_cpu(sim)

    def runner(sim):
        task = yield from cpu.run(CpuTask("t", work=2.0))
        return task.finished_at

    proc = sim.spawn(runner(sim))
    assert sim.run_until_complete(proc) == pytest.approx(2.0)


def test_utilization_monitor_tracks_busy_and_idle():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)
    cpu.submit(CpuTask("t", work=5.0))
    sim.run()
    # Busy on [0, 5], idle afterwards.
    assert cpu.utilization.value_at(1.0) == pytest.approx(1.0)
    assert cpu.utilization.last_value == pytest.approx(0.0)


def test_second_settle_in_an_instant_overwrites_its_sample():
    """run_until_complete settles the instant it returns in; work
    submitted afterwards at the same time settles again, and the
    monitors keep one sample for the instant, holding its final value."""
    sim = Simulation()
    cpu = make_cpu(sim, cores=2)

    def first(sim):
        yield cpu.submit(CpuTask("a", work=1.0))

    sim.run_until_complete(sim.spawn(first(sim)))
    assert cpu.utilization.times[-1] == 1.0
    assert cpu.utilization.last_value == 0.0
    cpu.submit(CpuTask("b", work=1.0))
    sim.run()
    for monitor in (cpu.utilization, cpu.run_queue):
        assert monitor.times == [0.0, 1.0, 2.0]
    assert cpu.utilization.values == [0.5, 0.5, 0.0]
    assert cpu.run_queue.values == [1.0, 1.0, 0.0]
    assert cpu.utilization.time_average() == pytest.approx(0.5)


def test_invalid_parameters_rejected():
    sim = Simulation()
    with pytest.raises(SimulationError):
        ProcessorSharingCpu(sim, cores=0)
    with pytest.raises(SimulationError):
        ProcessorSharingCpu(sim, speed=0.0)
    with pytest.raises(SimulationError):
        CpuTask("t", work=-1.0)
    with pytest.raises(SimulationError):
        CpuTask("t", work=1.0, weight=0.0)
    with pytest.raises(SimulationError):
        CpuTask("t", work=1.0, rate_factor=0.0)
    with pytest.raises(SimulationError):
        CpuTask("t", work=1.0, rate_factor=1.5)


@settings(max_examples=30, deadline=None)
@given(works=st.lists(st.floats(min_value=0.1, max_value=20.0),
                      min_size=1, max_size=6),
       cores=st.integers(min_value=1, max_value=4))
def test_property_total_service_conserved(works, cores):
    """Sum of work equals integral of delivered service (no tax case)."""
    tasks = [CpuTask("t%d" % i, work=w) for i, w in enumerate(works)]
    sim, cpu = run_tasks(cores=cores, tasks=tasks)
    for task in tasks:
        assert task.remaining == pytest.approx(0.0, abs=1e-6)
        assert task.finished_at is not None
    # Makespan is bounded below by max(work) and total/cores.
    makespan = max(t.finished_at for t in tasks)
    assert makespan >= max(works) - 1e-6
    assert makespan >= sum(works) / cores - 1e-6
    # And above by running everything serially.
    assert makespan <= sum(works) + 1e-6


@settings(max_examples=30, deadline=None)
@given(works=st.lists(st.floats(min_value=0.1, max_value=10.0),
                      min_size=2, max_size=5))
def test_property_equal_tasks_finish_together(works):
    """Identical concurrent tasks on one core finish simultaneously."""
    work = works[0]
    tasks = [CpuTask("t%d" % i, work=work) for i in range(len(works))]
    sim, cpu = run_tasks(cores=1, tasks=tasks)
    finish_times = {round(t.finished_at, 6) for t in tasks}
    assert len(finish_times) == 1
    assert tasks[0].finished_at == pytest.approx(work * len(tasks))


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=5.0),
                min_size=1, max_size=5),
       st.floats(min_value=0.1, max_value=1.0))
def test_property_rate_factor_never_speeds_up(works, factor):
    plain = [CpuTask("p%d" % i, work=w) for i, w in enumerate(works)]
    dilated = [CpuTask("d%d" % i, work=w, rate_factor=factor)
               for i, w in enumerate(works)]
    _, _ = run_tasks(cores=2, tasks=plain)
    _, _ = run_tasks(cores=2, tasks=dilated)
    for p, d in zip(plain, dilated):
        assert d.finished_at >= p.finished_at - 1e-9
