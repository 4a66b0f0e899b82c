"""The virtual machine: lifecycle, guest OS, and virtualization taxes.

A :class:`VirtualMachine` is simultaneously:

* a *lifecycle object* — defined / starting / running / suspended /
  migrating / terminated, driven by the VMM and the grid middleware;
* a *machine interface* for its guest operating system — the same
  interface a physical host offers, but one that dilates CPU demand with
  trap-and-emulate costs and competes for the host CPU as a single
  scheduling entity (a :class:`~repro.hardware.cpu.TaskGroup`);
* a bundle of *state files* — disk image/diff plus a memory state file —
  which is what makes VM grid computing possible: "entire computing
  environments can be represented as data".
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.guestos.costs import OsCosts
from repro.guestos.interface import MachineInterface
from repro.guestos.kernel import OperatingSystem
from repro.guestos.profile import GuestOsProfile
from repro.hardware.cpu import CpuTask, TaskGroup
from repro.simulation.kernel import Interrupt, Process, SimulationError
from repro.storage.localfs import LocalFileSystem
from repro.vmm.costs import VmmCosts
from repro.vmm.disk_image import VirtualDisk
from repro.workloads.applications import KernelEventRates

__all__ = ["VmConfig", "VmState", "VirtualMachine", "VmCrashed"]


class VmCrashed(SimulationError):
    """The VM died (host failure, kill -9 of the VMM) mid-operation."""


class VmState(enum.Enum):
    """Lifecycle states (Section 4: shutdown/hibernate/restore/migrate)."""

    DEFINED = "defined"
    STARTING = "starting"
    RUNNING = "running"
    SUSPENDED = "suspended"
    MIGRATING = "migrating"
    TERMINATED = "terminated"


@dataclass(frozen=True)
class VmConfig:
    """Virtual hardware parameters (customizable per user, Section 2.2)."""

    name: str
    memory_mb: int = 128
    vcpus: int = 1
    guest_profile: GuestOsProfile = field(default_factory=GuestOsProfile)

    def __post_init__(self):
        if self.memory_mb <= 0:
            raise SimulationError("memory_mb must be positive")
        if self.vcpus < 1:
            raise SimulationError("vcpus must be >= 1")

    @property
    def memory_bytes(self) -> int:
        """Guest physical memory (also the memory-state file size)."""
        return self.memory_mb * 1024 * 1024


class VirtualMachine(MachineInterface):
    """One dynamic VM instance on some host."""

    def __init__(self, vmm, config: VmConfig, vdisk: VirtualDisk,
                 rng: Optional[random.Random] = None,
                 owner: str = "nobody"):
        self.sim = vmm.sim
        self.vmm = vmm
        self.config = config
        self.name = config.name
        self.owner = owner
        self.costs: VmmCosts = vmm.costs
        self.os_costs = OsCosts()
        self.state = VmState.DEFINED
        self.vdisk = vdisk
        self.rng = rng if rng is not None \
            else self.sim.streams.stream("vm/" + config.name)
        self.group = TaskGroup(
            config.name,
            vcpus=config.vcpus,
            extra_switch_cost=self.costs.world_switch,
            member_switch_cost=self.costs.guest_context_switch,
            member_quantum=self.os_costs.quantum,
        )
        guest_cache = min(config.memory_bytes * 6 // 10,
                          config.memory_bytes)
        self._guest_fs = LocalFileSystem(
            self.sim, vdisk, cache_bytes=guest_cache,
            name=config.name + ".guestfs")
        self.guest_os = OperatingSystem(
            self, name=config.guest_profile.name,
            profile=config.guest_profile, rng=self.rng)
        self.guest_os.mount("/", self._guest_fs)
        self.guest_os.install()
        #: Network identity assigned by DHCP or a tunnel (middleware).
        self.address: Optional[str] = None
        #: Accumulated sys time charged by restores/migrations, drained
        #: into the next process accounting.
        self._pending_sys = 0.0
        #: Processes currently executing guest compute (crash targets).
        #: Dict-as-ordered-set: crash() interrupts them in submission
        #: order, keeping the event queue reproducible.
        self._computations: Dict[Process, None] = {}

    # -- MachineInterface -------------------------------------------------------

    @property
    def is_virtual(self) -> bool:
        return True

    @property
    def root_fs(self) -> LocalFileSystem:
        return self._guest_fs

    @property
    def host_cpu(self):
        """The CPU of whatever host currently runs this VM."""
        return self.vmm.machine.cpu

    def run_compute(self, pname: str, user_seconds: float,
                    sys_seconds: float, rates: KernelEventRates):
        """Execute guest CPU demand with trap-and-emulate dilation.

        Observed user time grows with the guest's page-fault and timer
        rates; observed sys time grows by the privileged-instruction
        dilation factor plus per-syscall trap costs.  The combined demand
        runs on the host CPU inside the VM's task group, and the calling
        process waits on the task itself.  If the VM migrates
        mid-computation, :meth:`land_on` takes the task off the old CPU
        and wakes the process, which resubmits the remaining work on
        the new host's CPU.
        """
        if self.state not in (VmState.RUNNING, VmState.STARTING,
                              VmState.MIGRATING, VmState.SUSPENDED):
            # SUSPENDED is allowed: the demand queues on the frozen task
            # group (rate zero) and proceeds when the VM resumes — the
            # behaviour an interactive user experiences as a long stall.
            raise SimulationError("%s is %s, cannot execute"
                                  % (self.name, self.state.value))
        timer_hz = self.config.guest_profile.timer_hz
        user_obs = user_seconds * self.costs.user_dilation_factor(
            rates.pagefaults_per_sec, timer_hz)
        sys_obs = (sys_seconds * self.costs.sys_dilation
                   + user_seconds * rates.syscalls_per_sec
                   * self.costs.syscall_trap)
        # Device-emulation CPU owed by recent virtual disk activity.
        sys_obs += self.vdisk.drain_pending_io_cpu()
        sys_obs += self._drain_pending_sys()
        remaining = user_obs + sys_obs
        me = self.sim.active_process
        if me is not None:
            self._computations[me] = None
        try:
            while remaining > 1e-12:
                cpu = self.host_cpu
                task = CpuTask("%s@%s" % (pname, self.name),
                               work=remaining, group=self.group)
                try:
                    yield cpu.submit(task)
                except Interrupt as interrupt:
                    if not task.done.triggered:
                        cpu.cancel(task)
                    if interrupt.cause == "vm-crashed":
                        raise VmCrashed("%s crashed while running %s"
                                        % (self.name, pname))
                    raise
                # A task land_on() moved never finished: carry its work.
                remaining = 0.0 if task.finished_at is not None \
                    else task.remaining
        finally:
            if me is not None:
                self._computations.pop(me, None)
        return (user_obs, sys_obs)

    def io_sys_seconds(self, nbytes: int, operations: int) -> float:
        """Native I/O path cost plus per-byte device emulation.

        The guest kernel part of this is further dilated when the OS
        charges it through :meth:`run_compute`.
        """
        native = self.os_costs.io_sys_seconds(nbytes, operations)
        return native + nbytes * self.costs.io_emulation_per_byte

    def _drain_pending_sys(self) -> float:
        pending, self._pending_sys = self._pending_sys, 0.0
        return pending

    def charge_sys(self, seconds: float) -> None:
        """Queue host-side CPU debt to fold into guest sys accounting."""
        if seconds < 0:
            raise SimulationError("cannot charge negative time")
        self._pending_sys += seconds

    # -- lifecycle helpers (driven by the VMM and middleware) --------------------

    def _set_state(self, state: VmState) -> None:
        self.state = state

    def freeze(self) -> None:
        """Stop guest progress (suspend/migration prologue)."""
        self.host_cpu.update_group(self.group, max_rate=0.0)

    def unfreeze(self) -> None:
        """Resume guest progress."""
        self.host_cpu.update_group(self.group, clear_max_rate=True)

    @property
    def frozen(self) -> bool:
        """True while the VM's task group is rate-capped to zero."""
        return self.group.max_rate == 0.0

    def crash(self) -> None:
        """Power loss: the VMM process dies, taking the guest with it.

        Every in-flight guest computation observes :class:`VmCrashed`;
        the VM's state files (image/diff on disk, any memory-state file)
        survive — which is why recovery amounts to re-instantiating from
        data, the paper's whole point about VMs-as-files.
        """
        if self.state in (VmState.TERMINATED, VmState.DEFINED):
            raise SimulationError("%s is not running; nothing to crash"
                                  % self.name)
        self._set_state(VmState.TERMINATED)
        self.guest_os.booted = False
        for proc in list(self._computations):
            if proc.is_alive:
                proc.interrupt(cause="vm-crashed")
        self.vmm._evict(self)

    def land_on(self, new_vmm) -> None:
        """Finish a migration: rebind to the destination host.

        The old CPU holds every in-flight guest computation as a member
        of the VM's task group.  Each such task is cancelled there,
        keeping its remaining work, and its ``done`` event fires so the
        waiting process resubmits that work on the new host's CPU.
        """
        old_cpu = self.host_cpu
        self.vmm = new_vmm
        for task in old_cpu.group_tasks(self.group):
            old_cpu.cancel(task)
            task.done.succeed(task)

    def state_summary(self) -> dict:
        """Everything a grid information service would advertise."""
        return {
            "name": self.name,
            "owner": self.owner,
            "state": self.state.value,
            "host": self.vmm.machine.name,
            "site": self.vmm.machine.site,
            "memory_mb": self.config.memory_mb,
            "address": self.address,
            "disk_mode": self.vdisk.mode,
        }

    def __repr__(self) -> str:
        return "<VirtualMachine %s %s on %s>" % (
            self.name, self.state.value, self.vmm.machine.name)
