"""Unit tests for the VMM lifecycle driver and migration."""

import pytest

from repro.gridnet import FlowEngine, Network
from repro.simulation import Simulation, SimulationError
from repro.storage import FileStager
from repro.vmm import DiskImage, VirtualMachineMonitor, VmConfig, VmState, migrate
from repro.workloads import synthetic_compute
from tests.support import GB, TINY_GUEST, physical_rig, run, vm_rig


def test_duplicate_vm_name_rejected():
    sim = Simulation()
    vmm, image, _vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        vmm.create_vm(VmConfig("vm1", guest_profile=TINY_GUEST), image)


def test_admission_control_rejects_memory_overcommit():
    """Step 4's negotiation: a host only admits VMs it can back."""
    sim = Simulation()
    vmm, image, _vm = vm_rig(sim)  # host has 1024 MB -> 768 MB budget
    from repro.vmm import VmConfig
    vmm.create_vm(VmConfig("big", memory_mb=512,
                           guest_profile=TINY_GUEST), image)
    with pytest.raises(SimulationError, match="guest budget"):
        vmm.create_vm(VmConfig("too-big", memory_mb=256,
                               guest_profile=TINY_GUEST), image)
    # Destroying a VM frees its memory for new admissions.
    vmm.destroy(vmm.lookup("big"))
    vmm.create_vm(VmConfig("now-fits", memory_mb=256,
                           guest_profile=TINY_GUEST), image)


def test_lookup():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    assert vmm.lookup("vm1") is vm
    with pytest.raises(SimulationError):
        vmm.lookup("ghost")


def test_restore_faster_than_boot():
    """Table 2's headline: VM-restore beats VM-reboot by a large factor."""
    from repro.guestos import GuestOsProfile
    profile = GuestOsProfile(kernel_read_bytes=8 * 1024 * 1024,
                             scattered_reads=1500, boot_cpu_user=3.0,
                             boot_cpu_sys=3.0, boot_jitter=0.0,
                             boot_footprint_bytes=256 * 1024 * 1024)

    def startup(mode):
        sim = Simulation()
        vmm, _image, vm = vm_rig(sim, memory_mb=64, profile=profile)
        memstate = None
        if mode == "restore":
            vmm.host.root_fs.create("vm1.memstate",
                                    vm.config.memory_bytes)
            memstate = (vmm.host.root_fs, "vm1.memstate")
        return run(sim, vmm.power_on(vm, mode=mode, memstate=memstate))

    boot = startup("boot")
    restore = startup("restore")
    assert restore < boot / 2


def test_restore_requires_memstate():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        run(sim, vmm.power_on(vm, mode="restore"))


def test_power_on_unknown_mode():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        run(sim, vmm.power_on(vm, mode="hibernate"))


def test_power_on_twice_rejected():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    with pytest.raises(SimulationError):
        run(sim, vmm.power_on(vm, mode="boot"))


def test_remote_memstate_charges_cpu():
    """A remote state fetch costs client-stack CPU, consumed at resume."""
    def restore_time(remote):
        sim = Simulation()
        vmm, _image, vm = vm_rig(sim)
        vmm.host.root_fs.create("vm1.memstate", vm.config.memory_bytes)
        return run(sim, vmm.power_on(
            vm, mode="restore",
            memstate=(vmm.host.root_fs, "vm1.memstate"),
            memstate_is_remote=remote))

    local = restore_time(False)
    remote = restore_time(True)
    from repro.vmm import VmmCosts
    expected_extra = (128 * 1024 * 1024
                      * VmmCosts().remote_state_cpu_per_byte)
    assert remote - local == pytest.approx(expected_extra, rel=0.2)


def test_suspend_resume_cycle():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(10.0)))
    sim.run(until=sim.now + 2.0)

    filename = run(sim, vmm.suspend(vm, vmm.host.root_fs))
    assert vm.state is VmState.SUSPENDED
    assert vmm.host.root_fs.size(filename) == vm.config.memory_bytes
    suspended_at = sim.now
    sim.run(until=suspended_at + 50.0)
    assert proc.is_alive  # no progress while suspended

    run(sim, vmm.resume(vm, vmm.host.root_fs))
    assert vm.state is VmState.RUNNING
    sim.run()
    assert not proc.is_alive


def test_suspend_requires_running():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        run(sim, vmm.suspend(vm, vmm.host.root_fs))


def test_shutdown_terminates_and_removes():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    run(sim, vmm.shutdown(vm))
    assert vm.state is VmState.TERMINATED
    assert vm not in vmm.vms


# ---------------------------------------------------------------------------
# Migration
# ---------------------------------------------------------------------------

def migration_rig(sim):
    net = Network.single_lan(sim, ["src", "dst"])
    engine = FlowEngine(sim, net)
    _m1, host1 = physical_rig(sim, name="src")
    _m2, host2 = physical_rig(sim, name="dst")
    vmm1 = VirtualMachineMonitor(host1)
    vmm2 = VirtualMachineMonitor(host2)
    image1 = DiskImage(host1.root_fs, "rh72.img", 1 * GB, create=True)
    image2 = DiskImage(host2.root_fs, "rh72.img", 1 * GB, create=True)
    config = VmConfig("vm1", guest_profile=TINY_GUEST)
    vm = vmm1.create_vm(config, image1)
    stager = FileStager(sim, engine, handshake_time=0.1)
    return vmm1, vmm2, image2, vm, stager


def test_migration_moves_running_vm():
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(30.0)))
    sim.run(until=sim.now + 5.0)

    downtime = run(sim, migrate(vm, vmm2, stager, image2))
    assert vm.state is VmState.RUNNING
    assert vm.vmm is vmm2
    assert vm in vmm2.vms and vm not in vmm1.vms
    assert downtime > 0
    # The in-flight computation survives and completes on the new host.
    sim.run()
    assert not proc.is_alive
    result = vm.guest_os.results[-1]
    assert result.user_time > 30.0 * 0.99


def test_migration_downtime_stalls_guest_work():
    """Work must not progress while the VM is in flight (regression:
    the fluid CPU model once re-rated the frozen gap retroactively)."""
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    start = sim.now
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(20.0)))
    sim.run(until=start + 5.0)
    downtime = run(sim, migrate(vm, vmm2, stager, image2))
    sim.run_until_complete(proc)
    completion = sim.now - start
    # 20 s of work (plus small dilation) + the full downtime.
    assert completion >= 20.0 + downtime
    assert completion < 21.0 + downtime + 1.0


def test_migration_checks_destination_capacity():
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    # Fill the destination's guest-memory budget.
    from repro.vmm import VmConfig
    vmm2.create_vm(VmConfig("resident", memory_mb=700,
                            guest_profile=TINY_GUEST), image2)
    with pytest.raises(SimulationError, match="memory budget"):
        run(sim, migrate(vm, vmm2, stager, image2))
    # Nothing was frozen: the VM still runs at the source.
    assert vm.state is VmState.RUNNING
    assert not vm.frozen


def test_migration_requires_running_vm():
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    with pytest.raises(SimulationError):
        run(sim, migrate(vm, vmm2, stager, image2))


def test_migration_to_same_host_rejected():
    sim = Simulation()
    vmm1, _vmm2, _image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    image_same = DiskImage(vmm1.host.root_fs, "rh72.img", 1 * GB)
    with pytest.raises(SimulationError):
        run(sim, migrate(vm, vmm1, stager, image_same))


def test_migration_ships_diff_file():
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    # Make the guest write something so the diff is non-empty.
    from repro.workloads import Application, IoPhase
    writer = Application("w", [IoPhase("/scratch", 4 * 1024 * 1024,
                                       write=True)])
    run(sim, vm.guest_os.run_application(writer))
    assert vm.vdisk.diff_bytes > 0
    run(sim, migrate(vm, vmm2, stager, image2))
    assert vmm2.host.root_fs.exists(vm.vdisk.diff_name)


def test_migration_preserves_guest_mounts():
    """'Keeping remote data connections active': mounts follow the VM."""
    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = migration_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    marker = object()
    vm.guest_os.mount("/remote-data", marker)
    run(sim, migrate(vm, vmm2, stager, image2))
    assert vm.guest_os.mounts["/remote-data"] is marker


def test_migration_mid_compute_conserves_remaining_work():
    """Hand-worked: the VM's task runs alone at 1.0 CPU-s/s on the
    source for 2 s, then lands on a host twice as fast.  The remaining
    ``demand - 2`` CPU-seconds finish there in ``(demand - 2) / 2`` s."""
    from repro.hardware import MachineSpec, PhysicalMachine
    from repro.guestos.interface import PhysicalHost
    from repro.workloads.applications import KernelEventRates

    sim = Simulation()
    vmm1, image1, vm = vm_rig(sim)
    fast = PhysicalMachine(sim, "fast", spec=MachineSpec(cpu_speed=2.0))
    vmm2 = VirtualMachineMonitor(PhysicalHost(fast, cache_bytes=64 * 2 ** 20))
    run(sim, vmm1.power_on(vm, mode="boot"))
    start = sim.now
    consumed_before = vm.group.cpu_consumed
    proc = sim.spawn(vm.run_compute("p", 10.0, 0.0, KernelEventRates()))
    sim.run(until=start + 2.0)
    src_cpu, dst_cpu = vmm1.machine.cpu, fast.cpu
    (task,) = src_cpu.active_tasks
    demand = task.work
    assert demand > 10.0

    vmm1._evict(vm)
    vmm2._admit(vm)
    vm.land_on(vmm2)
    # The old CPU let go at once; the waiter has not resubmitted yet.
    assert src_cpu.active_tasks == []
    assert task.finished_at is None
    assert task.remaining == pytest.approx(demand - 2.0)
    sim.run(until=sim.now)
    (moved,) = dst_cpu.active_tasks
    assert moved.group is vm.group
    assert moved.work == task.remaining

    user, sys = sim.run_until_complete(proc)
    assert user + sys == pytest.approx(demand)
    assert sim.now == pytest.approx(start + 2.0 + (demand - 2.0) / 2.0)
    assert src_cpu.active_tasks == [] and dst_cpu.active_tasks == []
    assert vm._computations == {}
    # Host CPU seconds delivered: 2 s at speed 1 on the source, then
    # (demand - 2) / 2 s at speed 2 on the destination.
    assert vm.group.cpu_consumed - consumed_before == pytest.approx(
        2.0 * 1.0 + (demand - 2.0) / 2.0 * 2.0)
