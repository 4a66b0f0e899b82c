"""Table 1: macrobenchmark user/sys times and VM overheads.

Three resource configurations per application, as in the paper:

* **Physical** — the benchmark runs natively on the compute node;
* **VM, local disk** — inside a VM whose state lives on the host's
  local file system;
* **VM, PVFS** — inside a VM whose state is accessed through an
  NFS-based grid virtual file system proxy across a wide-area network
  (image server at the remote site, compute node at the local one).

Applications are the SPEChpc-profile synthetics of
:mod:`repro.workloads.applications`.  ``scale=1.0`` runs the full
multi-hour benchmarks (cheap in simulated events); smaller scales keep
every ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

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
from repro.guestos.kernel import OperatingSystem, ProcessResult
from repro.hardware.machine import PhysicalMachine
from repro.simulation.kernel import Simulation, SimulationError
from repro.simulation.randomness import RandomStreams
from repro.storage.nfs import NfsClient, NfsServer
from repro.storage.pvfs import PvfsProxy
from repro.vmm.disk_image import DiskImage
from repro.vmm.monitor import VirtualMachineMonitor
from repro.vmm.virtual_machine import VmConfig
from repro.workloads.applications import Application, spec_climate, spec_seis

__all__ = ["Table1Row", "RESOURCES", "run_table1", "macro_run"]

RESOURCES = ("physical", "vm-localdisk", "vm-pvfs")

_IMAGE = "rh72.img"


@dataclass
class Table1Row:
    """One row of Table 1."""

    application: str
    resource: str
    user_time: float
    sys_time: float
    total_time: float
    #: Fractional overhead versus the physical row (None for physical).
    overhead: Optional[float]


def macro_run(app_factory: Callable[[], Application], resource: str,
              seed: int = 0, costs=None) -> ProcessResult:
    """Run one application on one resource configuration.

    ``costs`` overrides the VMM cost model (used by the sensitivity
    ablation A4); ``None`` uses the calibrated testbed costs.
    """
    if resource not in RESOURCES:
        raise SimulationError("unknown resource %r" % resource)
    sim = Simulation()
    streams = RandomStreams(seed)
    machine = PhysicalMachine(sim, "compute", site="uf",
                              spec=compute_node_spec(memory_mb=512))
    host = PhysicalHost(machine, cache_bytes=256 * MB)
    app = app_factory()

    if resource == "physical":
        host_os = OperatingSystem(host, name="native-linux",
                                  rng=streams.stream("os"))
        host_os.mount("/", host.root_fs)
        host_os.mark_booted()
        return sim.run_until_complete(
            sim.spawn(host_os.run_application(app),
                      name="table1.native." + app.name))

    vmm = VirtualMachineMonitor(host, costs=costs or vmm_costs())
    if resource == "vm-localdisk":
        host.root_fs.create(_IMAGE, IMAGE_BYTES)
        base = DiskImage(host.root_fs, _IMAGE, IMAGE_BYTES)
        remote_cpu = 0.0
    else:
        # Image server at the remote site, reached through a PVFS proxy.
        net = Network.two_site_wan(sim, "uf", ["compute"], "nw", ["image"])
        engine = FlowEngine(sim, net)
        image_machine = PhysicalMachine(sim, "image", site="nw",
                                        spec=compute_node_spec())
        image_host = PhysicalHost(image_machine, cache_bytes=512 * MB)
        image_host.root_fs.create(_IMAGE, IMAGE_BYTES)
        nfsd = NfsServer(sim, "image", image_host.root_fs, engine)
        mount = NfsClient(sim, "compute", engine,
                          cache_bytes=32 * MB).mount(nfsd)
        proxy = PvfsProxy(sim, mount, cache_bytes=512 * MB,
                          name="pvfs@compute")
        base = DiskImage(proxy, _IMAGE, IMAGE_BYTES)
        # Client-side NFS/PVFS stack CPU per byte, as time(1) on the
        # host attributes it to the measured process (the paper's +89 s
        # of sys on SPECseis).  Larger than the warm-restore constant in
        # VmmCosts because cold WAN misses traverse the full RPC path.
        remote_cpu = 3.5e-7

    config = VmConfig("vm1", memory_mb=GUEST_MEMORY_MB,
                      guest_profile=guest_profile())
    vm = vmm.create_vm(config, base, disk_mode="nonpersistent",
                       remote_cpu_per_byte=remote_cpu,
                       rng=streams.stream("vm"))

    def session(sim):
        yield from vmm.power_on(vm, mode="boot")
        result = yield from vm.guest_os.run_application(app)
        return result

    return sim.run_until_complete(
        sim.spawn(session(sim), name="table1.%s.%s" % (resource, app.name)))


#: The table's applications in row order.
_APPLICATIONS = (("SPECseis", spec_seis), ("SPECclimate", spec_climate))


def run_table1(scale: float = 1.0, seed: int = 0) -> List[Table1Row]:
    """The full table: SPECseis and SPECclimate on all three resources.

    Each macro run is an independent world, run in row order.
    """
    rows: List[Table1Row] = []
    for app_name, factory in _APPLICATIONS:
        physical_total = None
        for resource in RESOURCES:
            result = macro_run(lambda: factory(scale), resource, seed=seed)
            total = result.cpu_time
            if resource == "physical":
                physical_total = total
                overhead = None
            else:
                overhead = total / physical_total - 1.0
            rows.append(Table1Row(app_name, resource, result.user_time,
                                  result.sys_time, total, overhead))
    return rows
