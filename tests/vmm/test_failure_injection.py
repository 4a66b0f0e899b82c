"""Failure injection: VM crashes, host failures, and grid recovery."""

import pytest

from repro.simulation import SimulationError
from repro.vmm import VmCrashed, VmState
from repro.workloads import synthetic_compute
from tests.support import TINY_GUEST, demo_grid, run, tiny_session_config, vm_rig
from repro.simulation import Simulation


def test_crash_interrupts_running_computation():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(60.0)))
    sim.run(until=sim.now + 5.0)

    vm.crash()
    assert vm.state is VmState.TERMINATED
    assert vm not in vmm.vms
    with pytest.raises(VmCrashed):
        sim.run_until_complete(proc)


def test_crash_leaves_no_cpu_residue():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(60.0)))
    sim.run(until=sim.now + 5.0)
    vm.crash()
    with pytest.raises(VmCrashed):
        sim.run_until_complete(proc)
    sim.run()
    # The guest's task was cancelled off the host CPU.
    cpu = vmm.machine.cpu
    assert not any(t.group is vm.group for t in cpu.active_tasks)


def test_crash_requires_live_vm():
    sim = Simulation()
    _vmm, _image, vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        vm.crash()  # still DEFINED


def test_crashed_vm_rejects_new_work():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    vm.crash()
    with pytest.raises(SimulationError):
        run(sim, vm.guest_os.run_application(synthetic_compute(1.0)))


def test_host_failure_kills_all_resident_vms():
    sim = Simulation()
    vmm, image, vm1 = vm_rig(sim)
    from repro.vmm import VmConfig
    vm2 = vmm.create_vm(VmConfig("vm2", guest_profile=TINY_GUEST), image)
    run(sim, vmm.power_on(vm1, mode="boot"))
    run(sim, vmm.power_on(vm2, mode="boot"))

    casualties = vmm.host_failure()
    assert sorted(vm.name for vm in casualties) == ["vm1", "vm2"]
    assert vmm.vms == []
    assert all(vm.state is VmState.TERMINATED for vm in casualties)


def test_grid_level_recovery_after_host_failure():
    """The paper's resilience story: computation is data, so a dead
    host just means re-instantiating the environment elsewhere."""
    grid = demo_grid()
    grid.add_compute_host("compute2", site="uf")

    session = grid.new_session(tiny_session_config(
        host_constraints={"host": "compute1"}))
    grid.run(session.establish())
    job = grid.sim.spawn(session.run_application(synthetic_compute(50.0)))
    grid.sim.run(until=grid.sim.now + 5.0)

    # compute1 dies mid-computation.
    grid.vmm_for("compute1").host_failure()
    with pytest.raises(VmCrashed):
        grid.sim.run_until_complete(job)

    # Recovery: a fresh session restores the same warm image on the
    # surviving host — nothing about the user's environment was lost.
    retry = grid.new_session(tiny_session_config(
        vm_name="ana-retry",
        host_constraints={"host": "compute2"}))
    grid.run(retry.establish())
    assert retry.vm.vmm.machine.name == "compute2"
    result = grid.run(retry.run_application(synthetic_compute(50.0)))
    assert result.user_time > 50.0 * 0.99


def _migrating_rig(sim):
    from repro.gridnet import FlowEngine, Network
    from repro.storage import FileStager
    from repro.vmm import DiskImage, VirtualMachineMonitor, VmConfig
    from tests.support import GB, physical_rig

    net = Network.single_lan(sim, ["src", "dst"])
    engine = FlowEngine(sim, net)
    _m1, host1 = physical_rig(sim, name="src")
    _m2, host2 = physical_rig(sim, name="dst")
    vmm1 = VirtualMachineMonitor(host1)
    vmm2 = VirtualMachineMonitor(host2)
    image1 = DiskImage(host1.root_fs, "rh72.img", 1 * GB, create=True)
    image2 = DiskImage(host2.root_fs, "rh72.img", 1 * GB, create=True)
    vm = vmm1.create_vm(VmConfig("vm1", guest_profile=TINY_GUEST), image1)
    stager = FileStager(sim, engine, handshake_time=0.1)
    return vmm1, vmm2, image2, vm, stager


def _vm_tasks(vm, *vmms):
    return [t for vmm in vmms for t in vmm.machine.cpu.active_tasks
            if t.group is vm.group]


def test_crash_mid_migration_fails_computation_and_frees_both_cpus():
    from repro.vmm import migrate

    sim = Simulation()
    vmm1, vmm2, image2, vm, stager = _migrating_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(30.0)))
    sim.run(until=sim.now + 5.0)
    mover = sim.spawn(migrate(vm, vmm2, stager, image2))
    sim.run(until=sim.now + 1.0)
    assert vm.state is VmState.MIGRATING and vm.frozen
    assert len(_vm_tasks(vm, vmm1)) == 1

    vm.crash()
    with pytest.raises(VmCrashed):
        sim.run_until_complete(proc)
    assert _vm_tasks(vm, vmm1, vmm2) == []
    assert vm._computations == {}
    # The migration stages the state files, then refuses to land a
    # dead guest: it stays terminated and neither VMM holds it.
    with pytest.raises(VmCrashed):
        sim.run_until_complete(mover)
    sim.run()
    assert vm not in vmm1.vms and vm not in vmm2.vms
    assert vm.state is VmState.TERMINATED
    assert _vm_tasks(vm, vmm1, vmm2) == []


def test_crash_between_landing_and_resubmission_frees_both_cpus():
    """land_on() has moved the task off the old CPU and woken its
    process, which the crash reaches first: nothing is resubmitted."""
    sim = Simulation()
    vmm1, vmm2, _image2, vm, _stager = _migrating_rig(sim)
    run(sim, vmm1.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(30.0)))
    sim.run(until=sim.now + 5.0)
    vm._set_state(VmState.MIGRATING)
    vm.freeze()
    vmm1._evict(vm)
    vmm2._admit(vm)
    vm.land_on(vmm2)
    vm.crash()
    with pytest.raises(VmCrashed):
        sim.run_until_complete(proc)
    sim.run()
    assert _vm_tasks(vm, vmm1, vmm2) == []
    assert vm._computations == {}
