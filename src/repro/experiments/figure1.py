"""Figure 1: microbenchmark slowdown under background load.

Twelve scenarios: three background-load levels (none, light, heavy —
synthetic PSC-style traces played back Dinda-style) crossed with "all
four possible combinations of placing load and test tasks on the
physical machine and the virtual machine" (one VM, as in the paper).
The two virtualization mechanisms the paper names are both exercised:

* load on the *physical* machine preempts the VMM process — **world
  switches** tax the VM's test task;
* load on the *virtual* machine shares the guest with the test task —
  emulated **guest context switches** tax both.

For every scenario the test task runs ``samples`` times back to back;
slowdown is wall time over the unloaded-physical-machine wall time of
the same task.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.experiments.testbed import (
    GUEST_MEMORY_MB,
    IMAGE_BYTES,
    MB,
    compute_node_spec,
    guest_profile,
    vmm_costs,
)
from repro.experiments.runner import run_replications
from repro.guestos.interface import PhysicalHost
from repro.guestos.kernel import OperatingSystem
from repro.hardware.machine import PhysicalMachine
from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.monitor import StatAccumulator
from repro.simulation.randomness import RandomStreams
from repro.vmm.disk_image import DiskImage
from repro.vmm.monitor import VirtualMachineMonitor
from repro.vmm.virtual_machine import VmConfig
from repro.workloads.hostload import HostLoadTrace, LoadPlayback
from repro.workloads.microbench import micro_test_task

__all__ = ["Figure1Result", "LOAD_LEVELS", "PLACEMENTS", "run_figure1"]

LOAD_LEVELS = ("none", "light", "heavy")
#: (test placement, load placement).
PLACEMENTS = (("physical", "physical"), ("physical", "vm"),
              ("vm", "physical"), ("vm", "vm"))

_IMAGE = "rh72.img"


@dataclass
class Figure1Result:
    """One bar of Figure 1: mean slowdown +/- one standard deviation."""

    load_level: str
    test_on: str
    load_on: str
    mean_slowdown: float
    std_slowdown: float
    samples: int

    @property
    def scenario(self) -> str:
        return "load=%s test@%s load@%s" % (self.load_level, self.test_on,
                                            self.load_on)


def _make_trace(level: str, streams: RandomStreams,
                length: int) -> HostLoadTrace:
    rng = streams.stream("trace/" + level)
    if level == "none":
        return HostLoadTrace.none(length=length)
    if level == "light":
        return HostLoadTrace.light(rng, length=length)
    if level == "heavy":
        return HostLoadTrace.heavy(rng, length=length)
    raise SimulationError("unknown load level %r" % level)


def _boot_vm(sim, vmm, streams, name: str):
    """A dedicated VM on the host, booted from a quick profile.

    Boot cost is irrelevant here (Figure 1 measures steady state), so a
    pre-provisioned non-persistent VM boots once per scenario.
    """
    vmm.host.root_fs.create(_IMAGE + "." + name, IMAGE_BYTES)
    base = DiskImage(vmm.host.root_fs, _IMAGE + "." + name, IMAGE_BYTES)
    config = VmConfig(name, memory_mb=GUEST_MEMORY_MB,
                      guest_profile=guest_profile())
    vm = vmm.create_vm(config, base, rng=streams.stream("vm/" + name))
    sim.run_until_complete(sim.spawn(vmm.power_on(vm, mode="boot"),
                                     name="figure1.boot." + name))
    return vm


def _scenario(load_level: str, test_on: str, load_on: str, samples: int,
              test_seconds: float, seed: int) -> Tuple[float, float, list]:
    sim = Simulation()
    streams = RandomStreams(seed)
    machine = PhysicalMachine(sim, "compute", site="uf",
                              spec=compute_node_spec())
    host = PhysicalHost(machine, cache_bytes=256 * MB)
    host_os = OperatingSystem(host, name="host-linux",
                              rng=streams.stream("hostos"))
    host_os.mount("/", host.root_fs)
    host_os.mark_booted()
    vmm = VirtualMachineMonitor(host, costs=vmm_costs())

    # One virtual machine, as in the paper; test and load are placed on
    # the physical machine or inside that VM.
    vm = None
    if "vm" in (test_on, load_on):
        vm = _boot_vm(sim, vmm, streams, "the-vm")
    test_os = vm.guest_os if test_on == "vm" else host_os
    load_os = vm.guest_os if load_on == "vm" else host_os

    # Background load playback for the whole scenario duration.
    horizon = samples * test_seconds * 4 + 60.0
    trace = _make_trace(load_level, streams,
                        length=int(horizon) + 10)
    playback = LoadPlayback(load_os, trace)
    sim.spawn(playback.run(horizon), name="figure1.loadplayback")

    stats = StatAccumulator()
    slowdowns: List[float] = []

    def sampler(sim):
        for _i in range(samples):
            result = yield from test_os.run_application(
                micro_test_task(test_seconds), pname="test-task")
            slowdowns.append(result.wall_time / test_seconds)
        return slowdowns

    sim.run_until_complete(sim.spawn(sampler(sim), name="figure1.sampler"))
    stats.extend(slowdowns)
    return stats.mean, stats.stdev, slowdowns


def run_figure1(samples: int = 100, test_seconds: float = 3.0,
                seed: int = 0, workers: int = 1) -> List[Figure1Result]:
    """All twelve scenarios of Figure 1.

    The paper uses 1000 samples; 100 keeps the default run quick while
    leaving the means stable (pass ``samples=1000`` for the full run —
    with ``workers=N`` the twelve independent scenario worlds fan out
    across a process pool and the results stay byte-identical).
    """
    tasks = [(load_level, test_on, load_on, samples, test_seconds,
              seed * 100 + 17)
             for load_level in LOAD_LEVELS
             for test_on, load_on in PLACEMENTS]
    outcomes = run_replications(_scenario, tasks, workers=workers)
    return [Figure1Result(load_level, test_on, load_on, mean, std, samples)
            for (load_level, test_on, load_on, _s, _t, _seed),
                (mean, std, _raw) in zip(tasks, outcomes)]


def results_by_key(results: List[Figure1Result]
                   ) -> Dict[Tuple[str, str, str], Figure1Result]:
    """Index results for assertions."""
    return {(r.load_level, r.test_on, r.load_on): r for r in results}
