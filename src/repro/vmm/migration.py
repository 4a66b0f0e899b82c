"""Live(ish) migration: suspend, transfer state, resume elsewhere.

Section 2.2: "a running virtual machine can be suspended and resumed,
providing a mechanism to migrate a running machine from resource to
resource"; Section 3.1 adds that migration combines image management,
data management and checkpointing while "keeping remote data connections
active".  Because a guest's mounts live inside the guest OS, they follow
the VM untouched — only the VM's own state files move.

The migration sequence:

1. freeze the guest (its CPU tasks stall in place);
2. write the memory-state file on the source host;
3. stage memory state + copy-on-write diff to the destination host;
4. rebind the virtual disk to the destination's view of the base image;
5. start a VMM process on the destination and read the memory state;
6. land the VM: in-flight guest computations hop CPUs, then unfreeze.
"""

from __future__ import annotations

from typing import Optional

from repro.simulation.kernel import SimulationError
from repro.storage.transfer import FileStager
from repro.vmm.disk_image import DiskImage
from repro.vmm.monitor import VirtualMachineMonitor
from repro.vmm.virtual_machine import VirtualMachine, VmCrashed, VmState

__all__ = ["migrate"]


def migrate(vm: VirtualMachine, dest_vmm: VirtualMachineMonitor,
            stager: FileStager, dest_base_image: DiskImage,
            dest_base_is_remote: bool = False,
            memstate_name: Optional[str] = None):
    """Process generator: move a running VM to another host.

    ``dest_base_image`` is the destination's handle on the same base
    image (a local replica, or the shared image server reached through
    the destination's own mount).  Returns the total migration downtime.
    """
    source_vmm = vm.vmm
    if vm.state is not VmState.RUNNING:
        raise SimulationError("%s is not running; cannot migrate" % vm.name)
    if dest_vmm is source_vmm:
        raise SimulationError("destination is the current host")
    # The destination must be able to back the guest's memory *before*
    # we freeze anything (fail fast, no partial migration).
    dest_budget = dest_vmm.machine.memory_mb * 3 // 4
    dest_resident = dest_vmm.resident_mb
    if dest_resident + vm.config.memory_mb > dest_budget:
        raise SimulationError(
            "%s cannot admit %s: insufficient guest memory budget"
            % (dest_vmm.name, vm.name))
    sim = vm.sim
    start = sim.now
    span = sim.trace.begin(
        "vmm", "migrate %s -> %s" % (source_vmm.machine.name,
                                     dest_vmm.machine.name),
        track=("host:%s" % source_vmm.machine.name, "vm:%s" % vm.name),
        vm=vm.name)
    memstate_name = memstate_name or (vm.name + ".memstate")
    src_fs = source_vmm.host.root_fs
    dst_fs = dest_vmm.host.root_fs
    src_host = source_vmm.machine.name
    dst_host = dest_vmm.machine.name

    # 1-2. Freeze and checkpoint on the source.
    vm._set_state(VmState.MIGRATING)
    vm.freeze()
    yield from src_fs.write(memstate_name, 0, vm.config.memory_bytes,
                            sequential=True)

    # 3. Ship memory state and the copy-on-write diff.
    yield from stager.stage(src_fs, src_host, memstate_name,
                            dst_fs, dst_host)
    if vm.vdisk.mode == "nonpersistent" and vm.vdisk.diff_bytes > 0:
        yield from stager.stage(vm.vdisk.diff_fs, src_host,
                                vm.vdisk.diff_name, dst_fs, dst_host)

    # 4. Repoint the virtual disk at the destination's image access.
    remote_cpu = (dest_vmm.costs.remote_state_cpu_per_byte
                  if dest_base_is_remote else 0.0)
    vm.vdisk.rebind(dest_base_image, dst_fs,
                    remote_cpu_per_byte=remote_cpu)

    # 5. Destination VMM start + memory-state read.
    yield from dest_vmm._vmm_process_start(vm)
    yield from dst_fs.read(memstate_name, 0, vm.config.memory_bytes,
                           sequential=True)

    # 6. Land: rebinding wakes in-flight computations onto the new CPU.
    # A guest that crashed in flight stays dead: its state files are
    # staged, but no VMM takes it in.
    if vm.state is not VmState.MIGRATING:
        sim.trace.end(span)
        raise VmCrashed("%s crashed while migrating to %s"
                        % (vm.name, dst_host))
    source_vmm._evict(vm)
    dest_vmm._admit(vm)
    vm.land_on(dest_vmm)
    # Checkpoint the source CPU *while the group is still frozen*: the
    # fluid CPU model advances lazily with the group's current rate cap,
    # so clearing the cap first would retroactively re-rate the frozen
    # gap and let the guest's work progress through its own migration.
    source_vmm.machine.cpu.sync()
    vm.unfreeze()
    vm._set_state(VmState.RUNNING)
    sim.trace.end(span)
    downtime = sim.now - start
    sim.metrics.histogram("vmm.migrate.downtime").observe(downtime)
    return downtime
