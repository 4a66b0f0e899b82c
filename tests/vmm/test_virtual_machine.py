"""Unit tests for VM lifecycle and trap-and-emulate dilation."""

import pytest

from repro.simulation import Simulation, SimulationError
from repro.vmm import VmConfig, VmmCosts, VmState
from repro.workloads import (
    Application,
    ComputePhase,
    KernelEventRates,
    synthetic_compute,
)
from tests.support import TINY_GUEST, physical_rig, run, vm_rig


def test_vm_config_validation():
    with pytest.raises(SimulationError):
        VmConfig("vm", memory_mb=0)
    with pytest.raises(SimulationError):
        VmConfig("vm", vcpus=0)
    assert VmConfig("vm", memory_mb=128).memory_bytes == 128 * 1024 * 1024


def test_vmm_costs_validation():
    with pytest.raises(SimulationError):
        VmmCosts(sys_dilation=0.5)
    with pytest.raises(SimulationError):
        VmmCosts(world_switch=-1.0)


def test_vm_starts_defined():
    sim = Simulation()
    _vmm, _image, vm = vm_rig(sim)
    assert vm.state is VmState.DEFINED
    assert vm.is_virtual
    assert not vm.guest_os.booted


def test_vm_cannot_compute_before_start():
    sim = Simulation()
    _vmm, _image, vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        run(sim, vm.run_compute("p", 1.0, 0.0, KernelEventRates()))


def test_power_on_boot_runs_guest_boot():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    duration = run(sim, vmm.power_on(vm, mode="boot"))
    assert vm.state is VmState.RUNNING
    assert vm.guest_os.booted
    # At least VMM start + memory init.
    assert duration > vmm.costs.start_seconds


def test_user_dilation_scales_with_fault_rate():
    """The mechanism behind SPECseis 1% vs SPECclimate 4% (Table 1)."""
    def observed_user(pf_rate):
        sim = Simulation()
        vmm, _image, vm = vm_rig(sim)
        run(sim, vmm.power_on(vm, mode="boot"))
        rates = KernelEventRates(pagefaults_per_sec=pf_rate)
        user, _sys = run(sim, vm.run_compute("p", 100.0, 0.0, rates))
        return user

    low = observed_user(200.0)
    high = observed_user(1500.0)
    assert low > 100.0                       # always some dilation (timer)
    assert high > low
    # Roughly 1500 faults/s * 25 us = 3.75% extra.
    assert high == pytest.approx(100.0 * (1 + 1500 * 2.5e-5 + 100 * 5e-6),
                                 rel=1e-6)


def test_sys_dilation_applied():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    _user, sys = run(sim, vm.run_compute("p", 0.0, 10.0,
                                         KernelEventRates()))
    assert sys == pytest.approx(10.0 * vmm.costs.sys_dilation)


def test_syscall_traps_show_as_sys_time():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    rates = KernelEventRates(syscalls_per_sec=1000.0)
    _user, sys = run(sim, vm.run_compute("p", 10.0, 0.0, rates))
    assert sys == pytest.approx(10.0 * 1000.0 * vmm.costs.syscall_trap)


def test_finished_computations_leave_nothing_registered_on_the_vm():
    """Each computation registers its process and task with the VM only
    while it runs, so finished work pins nothing until a migration."""
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    assert vm._computations == {}
    seen = []

    def many():
        for _i in range(100):
            yield from vm.run_compute("p", 0.01, 0.0, KernelEventRates())
            seen.append(len(vm._computations))

    run(sim, many())
    assert vm.state is VmState.RUNNING
    assert seen == [0] * 100
    assert vm._computations == {}
    assert vm.host_cpu.active_tasks == []


def test_guest_application_slower_than_physical():
    """The core Figure 1 fact: VM adds a small overhead, <= ~10%."""
    sim = Simulation()
    # Physical run.
    _machine, host = physical_rig(sim, name="phys")
    from tests.support import booted_host_os
    host_os = booted_host_os(sim, host)
    app = synthetic_compute(10.0)
    phys = run(sim, host_os.run_application(app))

    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    rates = KernelEventRates(syscalls_per_sec=200.0,
                             pagefaults_per_sec=120.0)
    guest = run(sim, vm.guest_os.run_application(
        Application("spin", [ComputePhase(10.0, 0.0, rates)])))
    slowdown = guest.wall_time / phys.wall_time
    assert 1.0 < slowdown < 1.10


def test_guest_io_charges_device_emulation():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    native = vm.os_costs.io_sys_seconds(1_000_000, 16)
    virtual = vm.io_sys_seconds(1_000_000, 16)
    assert virtual > native


def test_freeze_stops_progress():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    proc = sim.spawn(vm.guest_os.run_application(synthetic_compute(5.0)))
    sim.run(until=sim.now + 1.0)
    vm.freeze()
    assert vm.frozen
    frozen_at = sim.now
    sim.run(until=frozen_at + 100.0)
    assert proc.is_alive  # made no progress while frozen
    vm.unfreeze()
    sim.run()
    assert not proc.is_alive


def test_charge_sys_folds_into_next_compute():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    run(sim, vmm.power_on(vm, mode="boot"))
    vm.charge_sys(3.0)
    _user, sys = run(sim, vm.run_compute("p", 1.0, 0.0,
                                         KernelEventRates()))
    assert sys >= 3.0
    # Drained: the next call does not double-charge.
    _user, sys2 = run(sim, vm.run_compute("p", 1.0, 0.0,
                                          KernelEventRates()))
    assert sys2 < 1.0


def test_charge_sys_validation():
    sim = Simulation()
    _vmm, _image, vm = vm_rig(sim)
    with pytest.raises(SimulationError):
        vm.charge_sys(-1.0)


def test_state_summary():
    sim = Simulation()
    vmm, _image, vm = vm_rig(sim)
    info = vm.state_summary()
    assert info["name"] == "vm1"
    assert info["state"] == "defined"
    assert info["host"] == vmm.machine.name
    assert info["disk_mode"] == "nonpersistent"
