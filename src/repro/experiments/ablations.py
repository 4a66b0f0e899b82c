"""Ablation experiments for the design choices DESIGN.md calls out.

* **A1 — proxy cache** (Section 3.1, image management): "read-only
  sharing patterns can be exploited by proxy-based virtual file
  systems".  Instantiate the same warm image repeatedly through a PVFS
  proxy, with and without the proxy's disk cache.
* **A2 — scheduler mechanisms** (Section 3.2): enforce the same
  compiled owner policy (local work reserved half the machine, two VMs
  sharing the grid half 3:1) with every mechanism the paper lists and
  compare accuracy.
* **A3 — staging versus on-demand** (Section 3.1): "the transfer of
  entire VM states can lead to unnecessary traffic due to the copying
  of unused data" — sweep the fraction of the image actually touched
  and find the crossover between GridFTP whole-file staging and
  on-demand NFS block access.
* **A4 — VMM cost sensitivity** (Section 2.3): "previous experience
  with successful VMM architectures has shown that such overheads can
  be made smaller with implementation optimizations ... VM assists and
  in-memory network hyper-sockets" — sweep the trap-and-emulate costs
  and watch the macro overhead scale with them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.runner import run_replications
from repro.experiments.testbed import (
    GUEST_MEMORY_MB,
    IMAGE_BYTES,
    MB,
    compute_node_spec,
    guest_profile,
    vmm_costs,
)
from repro.gridnet.flows import FlowEngine
from repro.gridnet.topology import Network
from repro.guestos.interface import PhysicalHost
from repro.hardware.cpu import CpuTask, ProcessorSharingCpu, TaskGroup
from repro.hardware.machine import PhysicalMachine
from repro.scheduling.lottery import LotteryScheduler
from repro.scheduling.modulation import DutyCycleModulator
from repro.scheduling.realtime import PeriodicEnforcer
from repro.scheduling.wfq import WfqScheduler
from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.randomness import RandomStreams
from repro.storage.nfs import NfsClient, NfsServer
from repro.storage.pvfs import PvfsProxy
from repro.storage.transfer import FileStager
from repro.vmm.disk_image import DiskImage
from repro.vmm.monitor import VirtualMachineMonitor
from repro.vmm.virtual_machine import VmConfig

__all__ = [
    "ProxyCacheResult",
    "SchedulerAblationRow",
    "StagingPoint",
    "VmmCostPoint",
    "run_proxy_cache_ablation",
    "run_scheduler_ablation",
    "run_staging_ablation",
    "run_vmm_cost_sensitivity",
]

_IMAGE = "rh72.img"
_MEMSTATE = "rh72.memstate"


# ---------------------------------------------------------------------------
# A1: proxy cache
# ---------------------------------------------------------------------------

@dataclass
class ProxyCacheResult:
    """Startup latencies of successive instantiations of one image."""

    proxy_cache: bool
    startup_times: List[float]

    @property
    def cold(self) -> float:
        return self.startup_times[0]

    @property
    def warm_mean(self) -> float:
        tail = self.startup_times[1:]
        return sum(tail) / len(tail) if tail else float("nan")


def _proxy_cache_world(cache_on: bool, instantiations: int,
                       seed: int) -> ProxyCacheResult:
    """One cache configuration: a fresh WAN world, repeated restores."""
    sim = Simulation()
    streams = RandomStreams(seed)
    net = Network.two_site_wan(sim, "uf", ["compute"], "nw", ["image"])
    engine = FlowEngine(sim, net)
    compute = PhysicalMachine(sim, "compute", site="uf",
                              spec=compute_node_spec())
    host = PhysicalHost(compute, cache_bytes=256 * MB)
    vmm = VirtualMachineMonitor(host, costs=vmm_costs())
    image_machine = PhysicalMachine(sim, "image", site="nw",
                                    spec=compute_node_spec())
    image_host = PhysicalHost(image_machine, cache_bytes=512 * MB)
    image_host.root_fs.create(_IMAGE, IMAGE_BYTES)
    image_host.root_fs.create(_MEMSTATE, GUEST_MEMORY_MB * MB)
    nfsd = NfsServer(sim, "image", image_host.root_fs, engine)
    mount = NfsClient(sim, "compute", engine,
                      cache_bytes=16 * MB).mount(nfsd)
    proxy = PvfsProxy(sim, mount,
                      cache_bytes=512 * MB if cache_on else 0,
                      name="pvfs@compute")
    base = DiskImage(proxy, _IMAGE, IMAGE_BYTES)

    times: List[float] = []

    def one(sim, index):
        config = VmConfig("vm%d" % index, memory_mb=GUEST_MEMORY_MB,
                          guest_profile=guest_profile())
        vm = vmm.create_vm(config, base, disk_mode="nonpersistent",
                           remote_cpu_per_byte=vmm.costs
                           .remote_state_cpu_per_byte,
                           rng=streams.stream("vm%d" % index))
        duration = yield from vmm.power_on(
            vm, mode="restore", memstate=(proxy, _MEMSTATE),
            memstate_is_remote=True)
        vmm.destroy(vm)
        return duration

    for index in range(instantiations):
        times.append(sim.run_until_complete(
            sim.spawn(one(sim, index),
                      name="ablation.proxycache.%d" % index)))
    return ProxyCacheResult(cache_on, times)


def run_proxy_cache_ablation(instantiations: int = 4, seed: int = 0,
                             workers: int = 1) -> List[ProxyCacheResult]:
    """Repeated VM-restores of a shared image over the WAN, cache on/off."""
    tasks = [(cache_on, instantiations, seed)
             for cache_on in (True, False)]
    return run_replications(_proxy_cache_world, tasks, workers=workers)


# ---------------------------------------------------------------------------
# A2: scheduler mechanisms
# ---------------------------------------------------------------------------

MECHANISMS = ("group-cap", "periodic", "lottery", "wfq", "sigstop")

#: The compiled policy: local work keeps 1/2, VMs split the rest 3:1.
_TARGETS = {"vm1": 0.375, "vm2": 0.125}


@dataclass
class SchedulerAblationRow:
    """Achieved versus target share for one VM under one mechanism."""

    mechanism: str
    vm: str
    target: float
    achieved: float

    @property
    def error(self) -> float:
        return abs(self.achieved - self.target)


def _scheduler_world(mechanism: str, duration: float,
                     seed: int) -> List[SchedulerAblationRow]:
    """One mechanism enforcing the compiled policy in a fresh world."""
    rows: List[SchedulerAblationRow] = []
    sim = Simulation()
    streams = RandomStreams(seed)
    cpu = ProcessorSharingCpu(sim, cores=1, context_switch_cost=0.0)
    vm1 = TaskGroup("vm1")
    vm2 = TaskGroup("vm2")
    local_group = TaskGroup("local")
    feed = {}
    for group in (vm1, vm2):
        task = CpuTask("work-" + group.name, work=10 * duration,
                       group=group)
        cpu.submit(task)
        feed[group.name] = task
    # The owner's local workload, always demanding.
    local = CpuTask("local-work", work=10 * duration, group=local_group)
    cpu.submit(local)

    controller = None
    if mechanism == "group-cap":
        cpu.update_group(vm1, max_rate=_TARGETS["vm1"])
        cpu.update_group(vm2, max_rate=_TARGETS["vm2"])
    elif mechanism == "periodic":
        controller = PeriodicEnforcer(cpu, {
            vm1: (0.1 * _TARGETS["vm1"], 0.1),
            vm2: (0.1 * _TARGETS["vm2"], 0.1),
        })
        controller.start()
    elif mechanism == "lottery":
        controller = LotteryScheduler(
            cpu, {vm1: 3, vm2: 1, local_group: 4}, quantum=0.05,
            rng=streams.stream("lottery"))
        controller.start()
    elif mechanism == "wfq":
        controller = WfqScheduler(
            cpu, {vm1: 3.0, vm2: 1.0, local_group: 4.0}, quantum=0.05)
        controller.start()
    elif mechanism == "sigstop":
        controllers = [
            DutyCycleModulator(cpu, vm1, duty=_TARGETS["vm1"],
                               period=1.0, signal_cost=0.0),
            DutyCycleModulator(cpu, vm2, duty=_TARGETS["vm2"],
                               period=1.0, signal_cost=0.0),
        ]
        for modulator in controllers:
            modulator.start()
    else:  # pragma: no cover
        raise SimulationError("unknown mechanism %r" % mechanism)

    sim.run(until=duration)
    cpu.sync()
    for name, target in _TARGETS.items():
        task = feed[name]
        achieved = (task.work - task.remaining) / duration
        rows.append(SchedulerAblationRow(mechanism, name, target,
                                         achieved))
    return rows


def run_scheduler_ablation(duration: float = 400.0, seed: int = 0,
                           workers: int = 1) -> List[SchedulerAblationRow]:
    """Enforce the same owner policy with all five mechanisms."""
    tasks = [(mechanism, duration, seed) for mechanism in MECHANISMS]
    grouped = run_replications(_scheduler_world, tasks, workers=workers)
    return [row for rows in grouped for row in rows]


# ---------------------------------------------------------------------------
# A3: staging versus on-demand access
# ---------------------------------------------------------------------------

@dataclass
class StagingPoint:
    """Completion times at one working-set fraction."""

    fraction: float
    on_demand_time: float
    staged_time: float

    @property
    def on_demand_wins(self) -> bool:
        return self.on_demand_time < self.staged_time


def _staging_point(fraction: float, image_bytes: int) -> StagingPoint:
    """One working-set fraction: staged vs on-demand in fresh worlds."""
    touched = int(image_bytes * fraction)

    def world():
        sim = Simulation()
        net = Network.two_site_wan(sim, "uf", ["compute"], "nw",
                                   ["image"])
        engine = FlowEngine(sim, net)
        compute = PhysicalMachine(sim, "compute", site="uf",
                                  spec=compute_node_spec())
        host = PhysicalHost(compute, cache_bytes=256 * MB)
        image_machine = PhysicalMachine(sim, "image", site="nw",
                                        spec=compute_node_spec())
        image_host = PhysicalHost(image_machine, cache_bytes=512 * MB)
        image_host.root_fs.create(_IMAGE, image_bytes)
        return sim, net, engine, host, image_host

    # Strategy 1: on-demand block access through NFS.
    sim, _net, engine, host, image_host = world()
    nfsd = NfsServer(sim, "image", image_host.root_fs, engine)
    mount = NfsClient(sim, "compute", engine,
                      cache_bytes=32 * MB).mount(nfsd)

    def on_demand(sim, mount=mount, touched=touched):
        yield from mount.read(_IMAGE, 0, touched, sequential=True)
        return sim.now

    on_demand_time = sim.run_until_complete(
        sim.spawn(on_demand(sim), name="ablation.ondemand"))

    # Strategy 2: stage the whole file, then read locally.
    sim, _net, engine, host, image_host = world()
    stager = FileStager(sim, engine)

    def staged(sim, host=host, image_host=image_host, touched=touched,
               stager=stager):
        yield from stager.stage(image_host.root_fs, "image", _IMAGE,
                                host.root_fs, "compute")
        yield from host.root_fs.read(_IMAGE, 0, touched,
                                     sequential=True)
        return sim.now

    staged_time = sim.run_until_complete(
        sim.spawn(staged(sim), name="ablation.staged"))
    return StagingPoint(fraction, on_demand_time, staged_time)


def run_staging_ablation(fractions: Sequence[float] = (
        0.02, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0),
        image_bytes: int = 512 * MB,
        workers: int = 1) -> List[StagingPoint]:
    """Sweep the touched fraction of an image; compare access strategies."""
    for fraction in fractions:
        if not 0 < fraction <= 1.0:
            raise SimulationError("fractions must be in (0, 1]")
    tasks = [(fraction, image_bytes) for fraction in fractions]
    return run_replications(_staging_point, tasks, workers=workers)


# ---------------------------------------------------------------------------
# A4: VMM cost sensitivity
# ---------------------------------------------------------------------------

@dataclass
class VmmCostPoint:
    """Macro overhead at one trap-cost multiplier."""

    multiplier: float
    overhead: float


def _scaled_costs(multiplier: float):
    """The calibrated VMM costs with every emulation price scaled."""
    from dataclasses import replace

    base = vmm_costs()
    return replace(
        base,
        syscall_trap=base.syscall_trap * multiplier,
        pagefault_trap=base.pagefault_trap * multiplier,
        timer_trap=base.timer_trap * multiplier,
        world_switch=base.world_switch * multiplier,
        guest_context_switch=base.guest_context_switch * multiplier,
        io_emulation_per_byte=base.io_emulation_per_byte * multiplier,
        sys_dilation=1.0 + (base.sys_dilation - 1.0) * multiplier,
    )


def _vmm_cost_point(multiplier: float, scale: float, seed: int,
                    physical_cpu_time: float) -> VmmCostPoint:
    """One multiplier: a fresh VM world against the shared baseline."""
    from repro.experiments.table1 import macro_run
    from repro.workloads.applications import spec_climate

    result = macro_run(lambda: spec_climate(scale), "vm-localdisk",
                       seed=seed, costs=_scaled_costs(multiplier))
    overhead = result.cpu_time / physical_cpu_time - 1.0
    return VmmCostPoint(multiplier, overhead)


def run_vmm_cost_sensitivity(multipliers: Sequence[float] = (
        0.25, 0.5, 1.0, 2.0, 4.0),
        scale: float = 0.25, seed: int = 0,
        workers: int = 1) -> List[VmmCostPoint]:
    """SPECclimate's VM overhead as the trap-and-emulate costs scale.

    Implementation optimizations (VM assists, paravirtual devices)
    shrink the per-event costs; this sweep shows the macro overhead
    moving with them — the paper's argument that observed overheads are
    an upper bound, not a law.
    """
    from repro.experiments.table1 import macro_run
    from repro.workloads.applications import spec_climate

    for multiplier in multipliers:
        if multiplier <= 0:
            raise SimulationError("multipliers must be positive")
    physical = macro_run(lambda: spec_climate(scale), "physical",
                         seed=seed)
    tasks = [(multiplier, scale, seed, physical.cpu_time)
             for multiplier in multipliers]
    return run_replications(_vmm_cost_point, tasks, workers=workers)
