"""A multi-core CPU modelled as a hierarchical processor-sharing server.

Rather than simulating every scheduler quantum as a discrete event (which
would make hour-long SPEC runs intractable), the CPU advances all runnable
tasks fluidly between *membership changes*.  Whenever a task arrives,
finishes, is cancelled, or has its parameters changed, the model at once

1. charges every active task for the work it received since the last
   change (``remaining -= elapsed * rate``), and
2. completes every task whose work has run out.

Everything that depends only on the population the instant ends with is
paid once per instant, from the kernel's end-of-instant hook
(:meth:`~repro.simulation.kernel.Simulation.at_instant_end`), however
many changes the instant held:

3. each task's service rate is looked up for the new population,
4. the ``utilization`` and ``run_queue`` monitors take one sample, and
5. one completion timer is armed at the earliest projected completion
   (a timer armed earlier and since superseded fires as a no-op).

Scheduling is two-level, which is exactly what a classic VMM needs: a
:class:`TaskGroup` represents one virtual machine monitor process — the
host scheduler sees it as a *single entity* no matter how many guest
processes run inside, and the group's members then share the group's
allocation (the virtual CPU) among themselves.  Ungrouped tasks are
ordinary host processes.

Scheduler overheads are folded into the rates as *taxes* computed from
event frequencies times per-event costs — the same arithmetic the paper
uses to explain VMM overheads:

* a **context-switch tax** of ``switch_cost / quantum`` applies to every
  top-level entity while more entities are runnable than there are cores;
* a group's **extra switch cost** models the VMM *world switch* (the
  paper: "world switches preempt the VMM when load is applied to the
  physical machine") — preempting a VMM costs far more than preempting
  an ordinary process, so groups carry a larger per-preemption price;
* a group's **member switch cost** models emulated *guest context
  switches* (the paper: "guest context switches involve the execution of
  privileged instructions that are trapped and emulated by the VMM") —
  paid while more than one member shares the virtual CPU;
* a per-task **rate factor** models steady trap-and-emulate dilation
  (syscalls, page faults, timer interrupts).

Shares follow weighted max-min fairness (water-filling) at both levels;
each task can use at most one core, and each group at most ``vcpus``
cores (VMware Workstation-era VMs are uniprocessor).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

from repro.simulation.kernel import (Event, Simulation, SimulationError,
                                     Timeout)
from repro.simulation.monitor import TimeSeriesMonitor

__all__ = ["CpuTask", "TaskGroup", "ProcessorSharingCpu"]

#: Tolerance below which remaining work counts as finished (CPU-seconds).
_WORK_EPSILON = 1e-9

#: Retention window (simulated seconds) for the CPU's utilization and
#: run-queue monitors.  Generous — an hour covers every experiment in
#: the suite, so point queries behave as before — but it bounds memory
#: on long steady-state runs; full-range ``time_average`` stays exact
#: across evictions (the monitor carries the dropped integral).
MONITOR_WINDOW = 3600.0


class TaskGroup:
    """A scheduling container: one host-visible entity, many member tasks.

    Used by the VMM to make a whole virtual machine compete for the host
    CPU as a single process.
    """

    def __init__(self, name: str, weight: float = 1.0, vcpus: int = 1,
                 max_rate: Optional[float] = None,
                 extra_switch_cost: float = 0.0,
                 member_switch_cost: float = 0.0,
                 member_quantum: float = 0.01):
        if weight <= 0:
            raise SimulationError("group weight must be positive")
        if vcpus < 1:
            raise SimulationError("group needs at least one vcpu")
        if member_quantum <= 0:
            raise SimulationError("member quantum must be positive")
        self.name = name
        self.weight = float(weight)
        self.vcpus = int(vcpus)
        self.max_rate = max_rate
        self.extra_switch_cost = float(extra_switch_cost)
        self.member_switch_cost = float(member_switch_cost)
        self.member_quantum = float(member_quantum)
        #: Cumulative host CPU-seconds delivered to this group across
        #: its whole life, all hosts included (the metering basis for
        #: the paper's per-user resource accounting).
        self.cpu_consumed = 0.0
        #: Scheduling-parameter signature, kept current by
        #: ``ProcessorSharingCpu.update_group`` (the only mutator).
        self._sig = (self.vcpus, self.weight, self.max_rate,
                     self.extra_switch_cost, self.member_switch_cost,
                     self.member_quantum)

    def __repr__(self) -> str:
        return "<TaskGroup %s vcpus=%d>" % (self.name, self.vcpus)


class CpuTask:
    """A single-threaded demand for CPU service.

    Parameters
    ----------
    name:
        Identifier used in traces and error messages.
    work:
        Demand in CPU-seconds of a dedicated core at native speed.
    weight:
        Proportional-share weight (relative to sibling tasks/entities).
    rate_factor:
        Progress per second of host CPU actually granted; below 1.0 this
        charges steady virtualization dilation.
    max_rate:
        Optional hard cap on the task's service rate in core-equivalents
        (resource control, Section 3.2 of the paper).
    extra_switch_cost:
        Additional seconds charged per preemption while time-sliced, on
        top of the CPU's base context-switch cost.
    group:
        The :class:`TaskGroup` (virtual machine) this task runs inside,
        or ``None`` for an ordinary host process.
    """

    def __init__(self, name: str, work: float, weight: float = 1.0,
                 rate_factor: float = 1.0, max_rate: Optional[float] = None,
                 extra_switch_cost: float = 0.0,
                 group: Optional[TaskGroup] = None):
        if work < 0:
            raise SimulationError("task work must be non-negative")
        if weight <= 0:
            raise SimulationError("task weight must be positive")
        if not 0.0 < rate_factor <= 1.0:
            raise SimulationError("rate_factor must be in (0, 1]")
        if max_rate is not None and max_rate < 0:
            raise SimulationError("max_rate must be non-negative")
        self.name = name
        self.work = float(work)
        self.remaining = float(work)
        self.weight = float(weight)
        self.rate_factor = float(rate_factor)
        self.max_rate = max_rate
        self.extra_switch_cost = float(extra_switch_cost)
        self.group = group
        #: Event fired when the task's work reaches zero.
        self.done: Optional[Event] = None
        #: Simulation times bracketing the task's service.
        self.started_at: Optional[float] = None
        self.finished_at: Optional[float] = None
        #: Host CPU seconds consumed (shares actually granted).
        self.cpu_consumed = 0.0
        #: Scheduling-parameter signature, kept current by
        #: ``ProcessorSharingCpu.update_task`` (the only mutator).
        self._sig = (self.weight, self.max_rate, self.rate_factor,
                     self.extra_switch_cost)

    @property
    def elapsed(self) -> Optional[float]:
        """Wall-clock service duration, once finished."""
        if self.started_at is None or self.finished_at is None:
            return None
        return self.finished_at - self.started_at

    def __repr__(self) -> str:
        return "<CpuTask %s %.3f/%.3fs>" % (self.name,
                                            self.work - self.remaining,
                                            self.work)


def _waterfill(items: Sequence[Tuple[object, float, float]],
               capacity: float) -> Dict[object, float]:
    """Weighted max-min shares: ``items`` are (key, weight, cap) triples."""
    shares: Dict[object, float] = {}
    unfixed = list(items)
    capacity = max(capacity, 0.0)
    if len(unfixed) == 1:
        # Single entity (the common case): same arithmetic as one round
        # of the general loop below, without the bookkeeping.
        key, weight, cap = unfixed[0]
        proportional = capacity * weight / weight
        shares[key] = cap if proportional >= cap - 1e-15 else proportional
        return shares
    while unfixed:
        total_weight = sum(weight for _key, weight, _cap in unfixed)
        pinned = []
        for entry in unfixed:
            key, weight, cap = entry
            proportional = capacity * weight / total_weight
            if proportional >= cap - 1e-15:
                shares[key] = cap
                pinned.append(entry)
        if not pinned:
            for key, weight, _cap in unfixed:
                shares[key] = capacity * weight / total_weight
            break
        for entry in pinned:
            unfixed.remove(entry)
            capacity -= shares[entry[0]]
        capacity = max(capacity, 0.0)
    return shares


class ProcessorSharingCpu:
    """A ``cores``-way CPU shared among tasks and task groups."""

    def __init__(self, sim: Simulation, cores: int = 1, speed: float = 1.0,
                 quantum: float = 0.01, context_switch_cost: float = 5e-6,
                 name: str = "cpu"):
        if cores < 1:
            raise SimulationError("cpu needs at least one core")
        if speed <= 0:
            raise SimulationError("cpu speed must be positive")
        if quantum <= 0:
            raise SimulationError("scheduler quantum must be positive")
        self.sim = sim
        self.name = name
        self.cores = int(cores)
        self.speed = float(speed)
        self.quantum = float(quantum)
        self.context_switch_cost = float(context_switch_cost)
        # Insertion-ordered dict-as-set: iteration stays arrival order
        # while membership tests and removals are O(1) in the task
        # population.
        self._active: Dict[CpuTask, None] = {}
        self._last_update = sim.now
        #: The live completion timer; a fired timer that is not this one
        #: was superseded and does nothing.
        self._timer: Optional[Timeout] = None
        # Bound once: the kernel keys pending end-of-instant calls by it.
        self._settle_cb = self._settle
        #: CPU-level half of the population signature (immutable).
        self._param_sig = (self.cores, self.speed, self.quantum,
                           self.context_switch_cost)
        #: Simulation-owned memo of (shares, rates, share_sum) per
        #: population signature — see ``_sched_state``.  Values are
        #: pure functions of the key; owning the memo by the simulation
        #: (not the module) keeps its lifetime one world's, so shards
        #: and co-resident replications can never couple through it.
        #: Bounded: cleared wholesale if an adversarial workload
        #: produces thousands of distinct signatures.
        self._epoch_cache: Dict[Tuple, Tuple] = \
            sim.model_cache("cpu.sched_epochs")
        #: Memoized (singles, groups, share_vals, rate_vals, share_sum,
        #: items, order) for the current task population; ``None`` after
        #: any membership or parameter change.  ``_advance``,
        #: ``_settle`` and ``current_rate`` all read this one copy.
        self._sched_cache: Optional[Tuple] = None
        #: Fraction of total capacity in use, sampled once at the end of
        #: every instant with a membership change.
        self.utilization = TimeSeriesMonitor(name + ".utilization",
                                             window=MONITOR_WINDOW)
        #: Number of host-schedulable entities, sampled likewise.
        self.run_queue = TimeSeriesMonitor(name + ".runqueue",
                                           window=MONITOR_WINDOW)

    # -- public API ---------------------------------------------------------

    @property
    def active_tasks(self) -> List[CpuTask]:
        """Snapshot of the tasks currently receiving service."""
        return list(self._active)

    def submit(self, task: CpuTask) -> Event:
        """Start serving ``task``; the returned event fires at completion.

        A task with zero work completes immediately (at the current time).
        """
        if task.done is not None:
            raise SimulationError("task %s was already submitted" % task.name)
        task.done = Event(self.sim)
        task.started_at = self.sim.now
        self._advance()
        if task.remaining <= _WORK_EPSILON:
            task.finished_at = self.sim.now
            task.done.succeed(task)
        else:
            self._active[task] = None
            self._sched_cache = None
        self._complete_finished()
        return task.done

    def run(self, task: CpuTask):
        """Process-style helper: ``yield from cpu.run(task)``."""
        yield self.submit(task)
        return task

    def cancel(self, task: CpuTask) -> float:
        """Remove an unfinished task, returning its remaining work.

        Used for VM suspend and migration: the remaining demand is carried
        to the destination and resubmitted there.
        """
        self._advance()
        if task not in self._active:
            raise SimulationError("task %s is not active" % task.name)
        del self._active[task]
        self._sched_cache = None
        self._complete_finished()
        return task.remaining

    def update_task(self, task: CpuTask, rate_factor: Optional[float] = None,
                    max_rate: Optional[float] = None,
                    weight: Optional[float] = None,
                    clear_max_rate: bool = False) -> None:
        """Change a running task's scheduling parameters mid-flight."""
        self._advance()
        if task not in self._active:
            raise SimulationError("task %s is not active" % task.name)
        if rate_factor is not None:
            if not 0.0 < rate_factor <= 1.0:
                raise SimulationError("rate_factor must be in (0, 1]")
            task.rate_factor = rate_factor
        if clear_max_rate:
            task.max_rate = None
        elif max_rate is not None:
            task.max_rate = max_rate
        if weight is not None:
            if weight <= 0:
                raise SimulationError("weight must be positive")
            task.weight = weight
        task._sig = (task.weight, task.max_rate, task.rate_factor,
                     task.extra_switch_cost)
        self._sched_cache = None
        self._complete_finished()

    def update_group(self, group: TaskGroup,
                     max_rate: Optional[float] = None,
                     weight: Optional[float] = None,
                     clear_max_rate: bool = False) -> None:
        """Change a group's scheduling parameters mid-flight.

        This is the hook the paper's resource-control toolchain uses: a
        compiled owner constraint becomes a cap or weight on the VM's
        group (see :mod:`repro.scheduling`).
        """
        self._advance()
        if clear_max_rate:
            group.max_rate = None
        elif max_rate is not None:
            group.max_rate = max_rate
        if weight is not None:
            if weight <= 0:
                raise SimulationError("weight must be positive")
            group.weight = weight
        group._sig = (group.vcpus, group.weight, group.max_rate,
                      group.extra_switch_cost, group.member_switch_cost,
                      group.member_quantum)
        self._sched_cache = None
        self._complete_finished()

    def group_tasks(self, group: TaskGroup) -> List[CpuTask]:
        """The group's active tasks, in arrival order (a snapshot)."""
        return list(self._sched_state()[1].get(group, ()))

    def current_rate(self, task: CpuTask) -> float:
        """The task's instantaneous service rate in native CPU-seconds/s."""
        return self._rates().get(task, 0.0)

    def sync(self) -> None:
        """Bring every task's ``remaining`` up to the current time.

        Progress normally advances lazily at membership changes; call
        this before reading ``task.remaining`` mid-run (monitors,
        experiment harnesses).
        """
        self._advance()
        self._complete_finished()

    # -- internals ----------------------------------------------------------

    def _sched_state(self) -> Tuple:
        """(singles, groups, share_vals, rate_vals, share_sum, items,
        order), per epoch.

        Valid until the next membership/parameter change; every mutator
        clears ``_sched_cache`` after touching scheduling state, and the
        hot callers read the cache before calling this.
        ``order`` is the canonical task ordering (singles, then group
        members); ``share_vals``/``rate_vals`` are positional over it;
        ``share_sum`` is their total and ``items`` binds
        ``(task, rate, share)`` per task, so the advance/horizon loops
        and utilization samples reuse the epoch's arithmetic instead of
        re-deriving it at every reschedule.  Iterating ``items`` in
        canonical rather than arrival order is float-safe: per-task
        updates are independent, and a group's members keep their
        relative arrival order, so ``group.cpu_consumed`` accumulates
        in the same sequence either way.
        """
        state = self._sched_cache
        if state is None:
            singles: List[CpuTask] = []
            groups: Dict[TaskGroup, List[CpuTask]] = {}
            for task in self._active:  # simlint: disable=R22  processor sharing recomputes shares over the host's runnable set; per-host multiprogramming, memoized per epoch
                group = task.group
                if group is None:
                    singles.append(task)
                else:
                    members = groups.get(group)
                    if members is None:
                        groups[group] = [task]
                    else:
                        members.append(task)
            # Shares and rates are pure functions of the numeric
            # population signature below; the same few signatures recur
            # across epochs *and* replications, so the results are
            # memoized process-wide (positionally, keyed by value — the
            # task objects differ per world, the arithmetic does not).
            # Per-entity ``_sig`` tuples are prebuilt at construction
            # and refreshed by ``update_task``/``update_group``.
            if groups:
                sig = (self._param_sig,
                       tuple([t._sig for t in singles]),
                       tuple([(g._sig, tuple([m._sig for m in members]))
                              for g, members in groups.items()]))
                order = singles + [m for members in groups.values()
                                   for m in members]
            else:
                sig = (self._param_sig,
                       tuple([t._sig for t in singles]), ())
                order = singles
            epochs = self._epoch_cache
            hit = epochs.get(sig)
            if hit is None:
                shares = self._compute_shares(singles, groups)
                rates = self._compute_rates(shares, singles, groups)
                share_sum = sum(shares.values())
                share_vals = tuple([shares[t] for t in order])
                rate_vals = tuple([rates[t] for t in order])
                if len(epochs) >= 4096:
                    epochs.clear()
                epochs[sig] = (share_vals, rate_vals, share_sum)
            else:
                share_vals, rate_vals, share_sum = hit
            items = list(zip(order, rate_vals, share_vals))
            state = self._sched_cache = (singles, groups, share_vals,
                                         rate_vals, share_sum, items,
                                         order)
        return state

    def _shares(self) -> Dict[CpuTask, float]:
        state = self._sched_state()
        return dict(zip(state[6], state[2]))

    def _compute_shares(self, singles: List[CpuTask],
                        groups: Dict[TaskGroup, List[CpuTask]]
                        ) -> Dict[CpuTask, float]:
        """Two-level weighted max-min fair core shares."""
        if not self._active:
            return {}
        entities: List[Tuple[object, float, float]] = []
        for task in singles:
            cap = 1.0
            if task.max_rate is not None:
                cap = min(cap, task.max_rate / self.speed)
            entities.append((task, task.weight, cap))
        for group, members in groups.items():
            cap = float(min(group.vcpus, len(members)))
            if group.max_rate is not None:
                cap = min(cap, group.max_rate / self.speed)
            entities.append((group, group.weight, cap))
        top = _waterfill(entities, float(self.cores))

        shares: Dict[CpuTask, float] = {}
        for task in singles:
            shares[task] = top[task]
        for group, members in groups.items():
            member_items = []
            for task in members:
                cap = 1.0
                if task.max_rate is not None:
                    cap = min(cap, task.max_rate / self.speed)
                member_items.append((task, task.weight, cap))
            shares.update(_waterfill(member_items, top[group]))
        return shares

    def _rates(self) -> Dict[CpuTask, float]:
        state = self._sched_state()
        return dict(zip(state[6], state[3]))

    def _compute_rates(self, shares: Dict[CpuTask, float],
                       singles: List[CpuTask],
                       groups: Dict[TaskGroup, List[CpuTask]]
                       ) -> Dict[CpuTask, float]:
        """Instantaneous service rate per task, after overhead taxes."""
        entity_count = len(singles) + len(groups)
        contended = entity_count > self.cores
        rates: Dict[CpuTask, float] = {}
        for task, share in shares.items():
            rate = share * self.speed * task.rate_factor
            if contended:
                extra = (task.group.extra_switch_cost if task.group
                         else task.extra_switch_cost)
                per_switch = self.context_switch_cost + extra
                rate *= (1.0 - min(0.9, per_switch / self.quantum))
            if task.group is not None:
                members = groups[task.group]
                if len(members) > task.group.vcpus \
                        and task.group.member_switch_cost > 0:
                    member_tax = min(0.9, task.group.member_switch_cost
                                     / task.group.member_quantum)
                    rate *= (1.0 - member_tax)
            if task.max_rate is not None:
                rate = min(rate, task.max_rate)
            rates[task] = rate
        return rates

    def _advance(self) -> None:
        """Charge all active tasks for service since the last update.

        Runs before any mutation, so the memoized state still describes
        the population the elapsed interval was served under.
        """
        now = self.sim.now
        elapsed = now - self._last_update
        if elapsed > 0 and self._active:
            items = (self._sched_cache or self._sched_state())[5]
            speed = self.speed
            for task, rate, share in items:
                task.remaining = max(0.0,
                                     task.remaining - elapsed * rate)
                consumed = elapsed * share * speed
                task.cpu_consumed += consumed
                group = task.group
                if group is not None:
                    group.cpu_consumed += consumed
        self._last_update = now

    def _complete_finished(self) -> None:
        """Complete the tasks whose work has run out; settle at instant end.

        Runs after every change, straight after :meth:`_advance`, so a
        completion fires at the instant its work ran out and in the
        order the tasks arrived.
        """
        finished = [t for t in self._active if t.remaining <= _WORK_EPSILON]  # simlint: disable=R22  completion sweep over the per-host runnable set; see _sched_state
        if finished:
            now = self.sim.now
            for task in finished:
                del self._active[task]
                task.remaining = 0.0
                task.finished_at = now
                task.done.succeed(task)
            self._sched_cache = None
        self.sim.at_instant_end(self._settle_cb)

    def _settle(self) -> None:
        """End of an instant with changes: sample, then arm one timer.

        Each monitor gets one sample per instant, appended inline with
        :meth:`TimeSeriesMonitor.record`'s window rule (this runs once
        per instant on the busiest path of the CPU-bound artifacts).  If
        the CPU changes again after settling in the same instant (a
        zero-delay timer, or work resumed after
        :meth:`~repro.simulation.kernel.Simulation.run_until_complete`
        returned), the second settle overwrites the instant's sample,
        found through the monitors' non-decreasing time order: an
        appended sample would only add a zero-width segment, which every
        time-weighted average skips.
        """
        now = self.sim.now
        state = self._sched_cache or self._sched_state()
        share_sum, items = state[4], state[5]
        for monitor, value in (
                (self.utilization,
                 share_sum / self.cores if self._active else 0.0),
                (self.run_queue, float(len(state[0]) + len(state[1])))):
            times = monitor.times
            if times and times[-1] >= now:
                monitor.values[-1] = value
                continue
            if monitor._origin_time is None:
                monitor._origin_time = now
            times.append(now)
            monitor.values.append(value)
            if len(times) > 1 and times[1] <= now - monitor.window:
                monitor._trim()

        horizon = math.inf
        for task, rate, _share in items:
            if rate > 0:
                horizon = min(horizon, task.remaining / rate)
        if horizon is math.inf:
            self._timer = None
            return
        timer = self._timer = Timeout(self.sim, max(horizon, 0.0))
        timer.callbacks.append(self._on_timer)

    def _on_timer(self, event: Event) -> None:
        """A completion timer fired: advance and complete, unless superseded."""
        if event is self._timer:
            self._advance()
            self._complete_finished()

    def __repr__(self) -> str:
        return "<ProcessorSharingCpu %s cores=%d active=%d>" % (
            self.name, self.cores, len(self._active))
