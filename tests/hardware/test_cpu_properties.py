"""Property-based tests of the hierarchical CPU's fairness invariants."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.hardware import CpuTask, ProcessorSharingCpu, TaskGroup
from repro.hardware.cpu import _waterfill
from repro.simulation import Simulation


# ---------------------------------------------------------------------------
# _waterfill: the allocation core used at both scheduling levels
# ---------------------------------------------------------------------------

item_strategy = st.tuples(
    st.floats(min_value=0.1, max_value=10.0),   # weight
    st.floats(min_value=0.0, max_value=2.0),    # cap
)


@settings(max_examples=200, deadline=None)
@given(items=st.lists(item_strategy, min_size=1, max_size=8),
       capacity=st.floats(min_value=0.0, max_value=8.0))
def test_waterfill_conserves_and_respects_caps(items, capacity):
    keyed = [(i, weight, cap) for i, (weight, cap) in enumerate(items)]
    shares = _waterfill(keyed, capacity)
    # Every item allocated, no cap violated, nothing negative.
    assert set(shares) == set(range(len(items)))
    for key, weight, cap in keyed:
        assert -1e-9 <= shares[key] <= cap + 1e-9
    # Total never exceeds capacity.
    assert sum(shares.values()) <= capacity + 1e-6
    # Work-conserving: if demand (sum of caps) >= capacity, all of the
    # capacity is handed out.
    total_cap = sum(cap for _k, _w, cap in keyed)
    if total_cap >= capacity:
        assert sum(shares.values()) == pytest.approx(
            min(capacity, total_cap), rel=1e-6, abs=1e-6)
    else:
        assert sum(shares.values()) == pytest.approx(total_cap, abs=1e-6)


@settings(max_examples=100, deadline=None)
@given(weights=st.lists(st.floats(min_value=0.1, max_value=10.0),
                        min_size=2, max_size=6))
def test_waterfill_uncapped_shares_proportional_to_weights(weights):
    keyed = [(i, w, float("inf")) for i, w in enumerate(weights)]
    shares = _waterfill(keyed, 1.0)
    total_weight = sum(weights)
    for i, weight in enumerate(weights):
        assert shares[i] == pytest.approx(weight / total_weight, rel=1e-6)


# ---------------------------------------------------------------------------
# End-to-end CPU invariants with groups
# ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(group_sizes=st.lists(st.integers(min_value=1, max_value=3),
                            min_size=1, max_size=3),
       singles=st.integers(min_value=0, max_value=2),
       cores=st.integers(min_value=1, max_value=4))
def test_property_group_work_conservation(group_sizes, singles, cores):
    """All submitted work completes; makespan is physically sensible."""
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=cores, context_switch_cost=0.0)
    tasks = []
    for g, size in enumerate(group_sizes):
        group = TaskGroup("g%d" % g)
        for m in range(size):
            task = CpuTask("g%d-t%d" % (g, m), work=2.0, group=group)
            tasks.append(task)
            cpu.submit(task)
    for s in range(singles):
        task = CpuTask("s%d" % s, work=2.0)
        tasks.append(task)
        cpu.submit(task)
    sim.run()
    total_work = 2.0 * len(tasks)
    makespan = max(t.finished_at for t in tasks)
    assert all(t.remaining == pytest.approx(0.0, abs=1e-6) for t in tasks)
    # Lower bound: total work over all cores; per-vCPU group ceilings
    # can only stretch it further.
    assert makespan >= total_work / cores - 1e-6
    # Upper bound: fully serialized execution.
    assert makespan <= total_work + 1e-6


@settings(max_examples=25, deadline=None)
@given(members=st.integers(min_value=1, max_value=5),
       cores=st.integers(min_value=1, max_value=4))
def test_property_group_never_exceeds_vcpu_ceiling(members, cores):
    """N guest tasks in a 1-vCPU group take >= N*work wall seconds."""
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=cores, context_switch_cost=0.0)
    group = TaskGroup("vm", vcpus=1)
    tasks = [CpuTask("t%d" % i, work=1.0, group=group)
             for i in range(members)]
    for task in tasks:
        cpu.submit(task)
    sim.run()
    makespan = max(t.finished_at for t in tasks)
    assert makespan >= members * 1.0 - 1e-6


@settings(max_examples=20, deadline=None)
@given(cap=st.floats(min_value=0.1, max_value=0.9))
def test_property_group_cap_is_exact(cap):
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=1, context_switch_cost=0.0)
    group = TaskGroup("vm", max_rate=cap)
    task = CpuTask("t", work=1.0, group=group)
    cpu.submit(task)
    sim.run()
    assert task.finished_at == pytest.approx(1.0 / cap, rel=1e-6)


# ---------------------------------------------------------------------------
# A live CPU under churn: invariants at the end of every instant
# ---------------------------------------------------------------------------

#: One step of churn: wait ``dt`` (0 keeps the instant), then act.
churn_step = st.tuples(
    st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0]),
    st.sampled_from(["submit", "submit", "cancel", "update_task",
                     "update_group", "freeze", "unfreeze"]),
    st.integers(min_value=0, max_value=7),              # task/group pick
    st.sampled_from([0.0, 0.5, 1.0, 2.5]),              # work
    st.sampled_from([None, 0.3, 0.8, 3.0]),             # max_rate
    st.sampled_from([0.5, 1.0, 2.0]),                   # weight
)


def _churn(sim, cpu, groups, steps, submitted):
    for dt, op, pick, work, max_rate, weight in steps:
        if dt:
            yield sim.timeout(dt)
        live = cpu.active_tasks
        group = groups[pick % len(groups)]
        if op == "submit":
            task = CpuTask("t%d" % len(submitted), work=work, weight=weight,
                           max_rate=max_rate,
                           group=None if pick % 3 == 0 else group)
            submitted.append(task)
            cpu.submit(task)
        elif op == "cancel" and live:
            cpu.cancel(live[pick % len(live)])
        elif op == "update_task" and live:
            cpu.update_task(live[pick % len(live)], weight=weight,
                            max_rate=max_rate,
                            clear_max_rate=max_rate is None)
        elif op == "update_group":
            cpu.update_group(group, weight=weight, max_rate=max_rate,
                             clear_max_rate=max_rate is None)
        elif op == "freeze":
            cpu.update_group(group, max_rate=0.0)
        elif op == "unfreeze":
            cpu.update_group(group, clear_max_rate=True)
    # Lift every cap at a later instant, so the run drains.
    yield sim.timeout(1.0)
    for group in groups:
        cpu.update_group(group, clear_max_rate=True)


def _check_instant(cpu, samples):
    """The end-of-instant invariants; returns nothing, asserts all."""
    sim = cpu.sim
    now = sim.now
    shares = cpu._shares()
    rates = cpu._rates()
    assert sum(shares.values()) <= cpu.cores + 1e-9
    by_group = {}
    for task, share in shares.items():
        cap = 1.0 if task.max_rate is None \
            else min(1.0, task.max_rate / cpu.speed)
        assert -1e-12 <= share <= cap + 1e-9
        if task.group is not None:
            by_group.setdefault(task.group, []).append(share)
    for group, member_shares in by_group.items():
        assert sum(member_shares) <= min(group.vcpus,
                                         len(member_shares)) + 1e-9
    # Exactly one live completion timer while work progresses, at the
    # earliest projected completion; none otherwise.
    timer = cpu._timer
    entries = [entry for entry in list(sim._queue) + list(sim._immediate)
               if entry[3] is timer]
    horizons = [task.remaining / rate for task, rate in rates.items()
                if rate > 0]
    if horizons:
        assert timer is not None and not timer.processed
        assert len(entries) == 1
        assert entries[0][0] == pytest.approx(now + min(horizons))
    else:
        assert timer is None
    # One monitor sample per instant, the instant's final value.
    for monitor in (cpu.utilization, cpu.run_queue):
        assert monitor.times[-1] == now
        assert all(a < b for a, b in zip(monitor.times, monitor.times[1:]))
    busy = sum(shares.values()) / cpu.cores
    if samples and samples[-1][0] == now:
        samples[-1] = (now, busy)
    else:
        samples.append((now, busy))


def _integrate(samples, end):
    start = samples[0][0]
    total = 0.0
    for (t, value), (t_next, _v) in zip(samples, samples[1:] + [(end, 0)]):
        total += value * (t_next - t)
    return total / (end - start)


@example(cores=1, steps=[(0.0, "submit", 1, 1.0, None, 1.0),
                         (0.0, "freeze", 1, 0.0, None, 1.0),
                         (0.5, "unfreeze", 1, 0.0, None, 1.0)])
@example(cores=2, steps=[(0.0, "submit", 0, 0.0, None, 1.0),
                         (0.0, "submit", 1, 0.5, 0.3, 2.0),
                         (0.0, "cancel", 0, 0.0, None, 1.0)])
@settings(max_examples=60, deadline=None)
@given(cores=st.integers(min_value=1, max_value=3),
       steps=st.lists(churn_step, min_size=1, max_size=30))
def test_property_live_cpu_invariants_under_churn(cores, steps):
    """Submit/cancel/update/freeze churn on one live CPU: after every
    instant the shares fit, one timer is armed at the earliest
    completion, and the utilization monitor integrates Σshares/cores."""
    sim = Simulation()
    cpu = ProcessorSharingCpu(sim, cores=cores, speed=1.0)
    groups = [TaskGroup("g0"), TaskGroup("g1", vcpus=2)]
    samples = []
    settle = cpu._settle_cb
    settles = []

    def checked_settle():
        settle()
        settles.append(sim.now)
        _check_instant(cpu, samples)

    cpu._settle_cb = checked_settle
    submitted = []
    sim.spawn(_churn(sim, cpu, groups, steps, submitted))
    sim.run()
    assert cpu.active_tasks == []
    # The hook settled the CPU once per instant it changed in.
    assert len(settles) == len(set(settles))
    for task in submitted:
        if task.finished_at is not None:
            assert task.done.triggered and task.remaining == 0.0
    if samples:
        end = samples[-1][0] + 1.0
        assert cpu.utilization.time_average(end=end) == pytest.approx(
            _integrate(samples, end), rel=1e-12, abs=1e-15)
