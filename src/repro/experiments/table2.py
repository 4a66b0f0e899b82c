"""Table 2: VM startup times through globusrun.

Six configurations — {VM-reboot, VM-restore} x {Persistent,
Non-persistent DiskFS, Non-persistent LoopbackNFS} — each timed as the
paper does: "wall-clock execution time from the beginning to the end of
the execution of globusrun", ten samples each, on a LAN host.

* *Persistent*: an explicit copy of the 2 GB disk is created in the
  host's local file system before the VM starts.
* *Non-persistent DiskFS*: no copy; modifications go to a diff file;
  state is read from the host's native file system.
* *Non-persistent LoopbackNFS*: as DiskFS, but state resides in a
  loopback-mounted NFS partition, "simulating a remote file system".
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
from repro.gridnet.flows import FlowEngine
from repro.gridnet.topology import Network
from repro.guestos.interface import PhysicalHost
from repro.hardware.machine import PhysicalMachine
from repro.middleware.gram import GramGateway
from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.monitor import StatAccumulator
from repro.simulation.randomness import RandomStreams
from repro.storage.nfs import NfsClient, NfsServer
from repro.vmm.disk_image import DiskImage
from repro.vmm.monitor import VirtualMachineMonitor
from repro.vmm.virtual_machine import VmConfig

__all__ = ["Table2Row", "STORAGE_MODES", "START_MODES", "run_table2",
           "startup_sample", "table2_tasks"]

START_MODES = ("reboot", "restore")
STORAGE_MODES = ("persistent", "nonpersistent-diskfs",
                 "nonpersistent-loopbacknfs")

_IMAGE = "rh72.img"
_MEMSTATE = "rh72.memstate"


@dataclass
class Table2Row:
    """One cell of Table 2 (mean/std/min/max over the samples)."""

    start_mode: str
    storage_mode: str
    mean: float
    std: float
    minimum: float
    maximum: float
    samples: int


def startup_sample(start_mode: str, storage_mode: str, seed: int) -> float:
    """One globusrun-timed VM startup in a fresh world.

    Returns the wall-clock seconds globusrun took.
    """
    if start_mode not in START_MODES:
        raise SimulationError("unknown start mode %r" % start_mode)
    if storage_mode not in STORAGE_MODES:
        raise SimulationError("unknown storage mode %r" % storage_mode)

    sim = Simulation()
    streams = RandomStreams(seed)
    machine = PhysicalMachine(sim, "compute", site="lan",
                              spec=compute_node_spec())
    host = PhysicalHost(machine, cache_bytes=512 * MB)
    vmm = VirtualMachineMonitor(host, costs=vmm_costs())
    gram = GramGateway(sim, "compute", rng=streams.stream("gram"))

    # The master image (and its warm memory state) pre-exist on the
    # host's local disk, exactly as in the paper's LAN setup.
    host.root_fs.create(_IMAGE, IMAGE_BYTES)
    host.root_fs.create(_MEMSTATE, GUEST_MEMORY_MB * MB)

    net = Network.single_lan(sim, ["compute"])
    engine = FlowEngine(sim, net)

    loopback = storage_mode == "nonpersistent-loopbacknfs"
    if loopback:
        nfsd = NfsServer(sim, "compute", host.root_fs, engine)
        mount = NfsClient(sim, "compute", engine,
                          cache_bytes=64 * MB).mount(nfsd)
        state_fs = mount
        remote_cpu = vmm.costs.remote_state_cpu_per_byte
    else:
        state_fs = host.root_fs
        remote_cpu = 0.0

    config = VmConfig("vm1", memory_mb=GUEST_MEMORY_MB,
                      guest_profile=guest_profile())

    def body(sim):
        if storage_mode == "persistent":
            # Explicit whole-disk copy before the VM starts up.
            yield from host.root_fs.copy(_IMAGE, _IMAGE + ".private")
            base = DiskImage(host.root_fs, _IMAGE + ".private", IMAGE_BYTES)
            disk_mode = "persistent"
            memstate = (host.root_fs, _MEMSTATE)
            remote = False
        else:
            base = DiskImage(state_fs, _IMAGE, IMAGE_BYTES)
            disk_mode = "nonpersistent"
            memstate = (state_fs, _MEMSTATE)
            remote = loopback
        vm = vmm.create_vm(config, base, disk_mode=disk_mode,
                           remote_cpu_per_byte=remote_cpu,
                           rng=streams.stream("vm"))
        mode = "boot" if start_mode == "reboot" else "restore"
        yield from vmm.power_on(vm, mode=mode, memstate=memstate,
                                memstate_is_remote=remote)
        return vm

    job = sim.run_until_complete(
        sim.spawn(gram.submit(body(sim), name="startup"),
                  name="table2.globusrun"))
    return job.total_time


def table2_tasks(samples: int, seed: int) -> List[Tuple[str, str, int]]:
    """The table's replication tasks in canonical (cell-major) order.

    Each task is ``(start_mode, storage_mode, sample_seed)`` — the full
    argument tuple of :func:`startup_sample`, whose value is a pure
    function of it.  The sequential and the multi-process runs consume
    this one list, so the table is a function of it alone.
    """
    cells = [(start_mode, storage_mode)
             for start_mode in START_MODES
             for storage_mode in STORAGE_MODES]
    return [(start_mode, storage_mode, seed * 1000 + i * 7 + 1)
            for start_mode, storage_mode in cells
            for i in range(samples)]


def run_table2(samples: int = 10, seed: int = 0, workers: int = 1
               ) -> List[Table2Row]:
    """The full table: every (start, storage) cell over ``samples`` runs.

    Every sample is an independent simulated world.  ``workers`` fans
    the replications out across processes through the replication
    runner; the values come back in task order and feed each cell's
    accumulator exactly as a sequential run would, keeping the table
    byte-identical for any worker count.
    """
    values = run_replications(startup_sample,
                              table2_tasks(samples, seed), workers=workers)
    cells = [(start_mode, storage_mode)
             for start_mode in START_MODES
             for storage_mode in STORAGE_MODES]
    rows = []
    for cell_index, (start_mode, storage_mode) in enumerate(cells):
        acc = StatAccumulator("%s/%s" % (start_mode, storage_mode))
        for value in values[cell_index * samples:(cell_index + 1) * samples]:
            acc.add(value)
        rows.append(Table2Row(start_mode, storage_mode, acc.mean,
                              acc.stdev, acc.minimum, acc.maximum,
                              acc.count))
    return rows


def rows_by_key(rows: List[Table2Row]) -> Dict[Tuple[str, str], Table2Row]:
    """Index rows for assertions."""
    return {(r.start_mode, r.storage_mode): r for r in rows}
