"""Invariants at the cache/disk boundary of the block-I/O stack.

Random reads, writes and copies, some of them concurrent, run through a
host :class:`LocalFileSystem` and through a VM stack over it (guest file
system -> :class:`VirtualDisk` -> host file system).  After every step:

* every byte the host disk read was a block the host buffer cache
  missed, and every missed block was read once: the cache's fills are
  the disk's only readers;
* no cache holds more blocks than its capacity.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.hardware import Disk
from repro.simulation import Simulation
from repro.storage import LocalFileSystem
from repro.vmm import DiskImage, VirtualDisk

BLOCK = 65536
HOST_FILE_BLOCKS = 24
IMAGE_BLOCKS = 32
GUEST_FILE_BLOCKS = 16

_OP = st.tuples(
    st.sampled_from(["host_read", "host_write", "host_copy",
                     "guest_read", "guest_write"]),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=HOST_FILE_BLOCKS * BLOCK - 1),
    st.integers(min_value=0, max_value=6 * BLOCK))

# Each step spawns its operations together, so fills of different
# readers interleave on the disk arm and on both caches.
_STEPS = st.lists(st.lists(_OP, min_size=1, max_size=3), max_size=12)


def _stack(mode, host_blocks, guest_blocks, seed):
    sim = Simulation()
    disk = Disk(sim, seek_time=0.004, transfer_rate=20e6)
    host = LocalFileSystem(sim, disk, cache_bytes=host_blocks * BLOCK,
                           name="host")
    for name in ("a", "b"):
        host.create(name, HOST_FILE_BLOCKS * BLOCK)
    image = DiskImage(host, "img", IMAGE_BLOCKS * BLOCK, create=True)
    vdisk = VirtualDisk(sim, "vm", image, mode=mode, diff_fs=host,
                        rng=random.Random(seed))
    guest = LocalFileSystem(sim, vdisk, cache_bytes=guest_blocks * BLOCK,
                            name="guest")
    for name in ("a", "b"):
        guest.create(name, GUEST_FILE_BLOCKS * BLOCK)
    return sim, disk, host, guest


def _operation(host, guest, op, name, offset, nbytes):
    if op == "host_copy":
        return host.copy(name, name + ".copy", chunk_bytes=4 * BLOCK)
    fs = host if op.startswith("host") else guest
    offset = offset % fs.size(name)
    nbytes = min(nbytes, fs.size(name) - offset)
    if op.endswith("read"):
        return fs.read(name, offset, nbytes, sequential=False)
    return fs.write(name, offset, nbytes, sequential=False)


@settings(max_examples=100, deadline=None)
@given(steps=_STEPS, mode=st.sampled_from(["nonpersistent", "persistent"]),
       host_blocks=st.integers(min_value=0, max_value=12),
       guest_blocks=st.integers(min_value=0, max_value=8),
       seed=st.integers(min_value=0, max_value=2 ** 16))
def test_property_host_disk_reads_are_cache_misses(steps, mode, host_blocks,
                                                   guest_blocks, seed):
    sim, disk, host, guest = _stack(mode, host_blocks, guest_blocks, seed)
    for step in steps:
        for operation in step:
            sim.spawn(_operation(host, guest, *operation))
        sim.run()
        assert disk.bytes_read == host.cache.misses * BLOCK
        for fs in (host, guest):
            assert fs.cache.size_blocks <= fs.cache.capacity_blocks
