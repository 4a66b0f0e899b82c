"""Persistent-mode virtual disk behaviours (the other Table 2 column)."""

import random

import pytest

from repro.simulation import Simulation
from repro.vmm import DiskImage, VirtualDisk
from tests.support import GB, MB, physical_rig, run


def persistent_disk(sim, host, size=1 * GB):
    image = DiskImage(host.root_fs, "private.img", size, create=True)
    return VirtualDisk(sim, "vm1", image, mode="persistent",
                       rng=random.Random(2))


def test_persistent_writes_hit_private_copy():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = persistent_disk(sim, host)
    written_before = host.root_fs.disk.bytes_written
    run(sim, vdisk.write(4 * MB))
    assert host.root_fs.disk.bytes_written - written_before >= 4 * MB
    assert vdisk.diff_bytes == 0


def test_persistent_written_blocks_read_back_from_base():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = persistent_disk(sim, host)
    run(sim, vdisk.write(2 * MB))
    written = sorted(vdisk._written)
    run(sim, vdisk.read_at(written[0] * vdisk.block_size,
                           len(written) * vdisk.block_size))
    # The private copy serves the modified blocks (no diff involved).
    assert vdisk.bytes_from_base == len(written) * vdisk.block_size
    assert vdisk.bytes_from_diff == 0


def test_persistent_disk_survives_reads_beyond_written_region():
    sim = Simulation()
    _machine, host = physical_rig(sim)
    vdisk = persistent_disk(sim, host)
    run(sim, vdisk.write(1 * MB))
    run(sim, vdisk.read(8 * MB))
    assert vdisk.bytes_from_base >= 8 * MB


def test_rebind_persistent_without_diff_fs():
    sim = Simulation()
    _m1, host1 = physical_rig(sim, name="a")
    _m2, host2 = physical_rig(sim, name="b")
    vdisk = persistent_disk(sim, host1)
    new_image = DiskImage(host2.root_fs, "private.img", 1 * GB,
                          create=True)
    # Persistent disks carry no diff: rebind needs no diff_fs.
    vdisk.rebind(new_image, None)
    assert vdisk.base is new_image
