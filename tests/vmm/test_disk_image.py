"""Unit tests for virtual disks (persistent and copy-on-write)."""

import random

import pytest

from repro.simulation import Simulation, SimulationError
from repro.vmm import DiskImage, VirtualDisk
from tests.support import GB, MB, physical_rig, run


def make_vdisk(sim, host, mode="nonpersistent", size=1 * GB,
               remote_cpu_per_byte=0.0):
    image = DiskImage(host.root_fs, "base.img", size, create=True)
    return VirtualDisk(sim, "vm1", image, mode=mode,
                       diff_fs=host.root_fs, rng=random.Random(1),
                       remote_cpu_per_byte=remote_cpu_per_byte)


def test_image_must_exist_or_be_created():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    with pytest.raises(SimulationError):
        DiskImage(host.root_fs, "missing.img", 1 * GB)
    image = DiskImage(host.root_fs, "new.img", 1 * GB, create=True)
    assert host.root_fs.exists("new.img")
    assert image.size_bytes == 1 * GB


def test_image_size_validation():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    with pytest.raises(SimulationError):
        DiskImage(host.root_fs, "x", 0, create=True)


def test_nonpersistent_needs_diff_fs():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    image = DiskImage(host.root_fs, "b.img", 1 * GB, create=True)
    with pytest.raises(SimulationError):
        VirtualDisk(sim, "vm", image, mode="nonpersistent", diff_fs=None)


def test_unknown_mode_rejected():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    image = DiskImage(host.root_fs, "b.img", 1 * GB, create=True)
    with pytest.raises(SimulationError):
        VirtualDisk(sim, "vm", image, mode="weird", diff_fs=host.root_fs)


def test_read_pulls_from_base_image():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host)
    run(sim, vdisk.read(1 * MB))
    assert vdisk.bytes_from_base >= 1 * MB
    assert vdisk.bytes_from_diff == 0


def test_write_nonpersistent_goes_to_diff():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host)
    run(sim, vdisk.write(2 * MB))
    assert vdisk.diff_bytes >= 2 * MB
    assert vdisk.bytes_written == 2 * MB
    # The base image was not touched.
    assert host.root_fs.size("base.img") == 1 * GB


def test_written_blocks_reread_from_diff():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host)
    run(sim, vdisk.write(1 * MB))
    written = sorted(vdisk._written)
    run(sim, vdisk.read_at(written[0] * vdisk.block_size,
                           len(written) * vdisk.block_size))
    assert vdisk.bytes_from_diff == len(written) * vdisk.block_size
    assert vdisk.bytes_from_base == 0


def test_write_persistent_goes_to_base():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host, mode="persistent")
    run(sim, vdisk.write(2 * MB))
    assert vdisk.diff_bytes == 0
    assert host.root_fs.disk.bytes_written if hasattr(
        host.root_fs, "disk") else True


def test_remote_cpu_accumulates_and_drains():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host, remote_cpu_per_byte=1e-8)
    run(sim, vdisk.read(10 * MB))
    pending = vdisk.drain_pending_io_cpu()
    assert pending == pytest.approx(10 * MB * 1e-8, rel=0.05)
    assert vdisk.drain_pending_io_cpu() == 0.0


def test_zero_read_write_are_noops():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host)
    run(sim, vdisk.read(0))
    run(sim, vdisk.write(0))
    assert vdisk.bytes_from_base == 0
    assert vdisk.bytes_written == 0


def test_negative_sizes_rejected():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = make_vdisk(sim, host)
    with pytest.raises(SimulationError):
        run(sim, vdisk.read(-1))
    with pytest.raises(SimulationError):
        run(sim, vdisk.write(-1))


def test_rebind_moves_base_and_diff():
    sim = Simulation()
    _machine1, host1 = physical_rig(sim, name="src")
    _machine2, host2 = physical_rig(sim, name="dst")
    vdisk = make_vdisk(sim, host1)
    run(sim, vdisk.write(1 * MB))
    new_image = DiskImage(host2.root_fs, "base.img", 1 * GB, create=True)
    vdisk.rebind(new_image, host2.root_fs, remote_cpu_per_byte=0.0)
    assert vdisk.base is new_image
    assert vdisk.diff_fs is host2.root_fs
    # Diff file exists at the destination (staged or recreated).
    assert host2.root_fs.exists(vdisk.diff_name)


def test_rebind_size_mismatch_rejected():
    sim = Simulation()
    _machine1, host1 = physical_rig(sim, name="src")
    _machine2, host2 = physical_rig(sim, name="dst")
    vdisk = make_vdisk(sim, host1)
    other = DiskImage(host2.root_fs, "other.img", 2 * GB, create=True)
    with pytest.raises(SimulationError):
        vdisk.rebind(other, host2.root_fs)
