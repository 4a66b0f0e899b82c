"""Virtual disks: persistent and non-persistent (copy-on-write) images.

A VM's disk is a host file (the paper: "it is possible to completely
represent a VM guest machine by its virtual state, e.g. stored in a
conventional file").  Table 2 distinguishes two modes:

* **persistent** — "an explicit copy of a persistent disk is created in
  the local disk file system of the host before the VM starts up";
  reads and writes then go to that private copy;
* **non-persistent** — "the disk is not explicitly copied upon startup,
  and modifications are stored into a diff file"; reads of unmodified
  blocks go to the (possibly remote, shared, read-only) base image.

:class:`VirtualDisk` exposes the same ``read``/``write`` generator
interface as :class:`repro.hardware.disk.Disk`, so a guest
:class:`~repro.storage.localfs.LocalFileSystem` can sit directly on it.
Because the guest's block placement is not content-tracked, the virtual
disk maps each guest access onto an image offset drawn uniformly at
random, preserving host-cache behaviour statistically; :meth:`read_at`
reads an explicit image range.
"""

from __future__ import annotations

import random
from typing import Optional, Set, Tuple

from repro.simulation.kernel import Simulation, SimulationError
from repro.storage.base import FileSystem, block_span

__all__ = ["DiskImage", "VirtualDisk"]


class DiskImage:
    """A named VM disk image living in some file system."""

    def __init__(self, fs: FileSystem, name: str, size_bytes: int,
                 create: bool = False):
        if size_bytes <= 0:
            raise SimulationError("image size must be positive")
        self.fs = fs
        self.name = name
        self.size_bytes = int(size_bytes)
        if create:
            fs.create(name, size_bytes)
        elif not fs.exists(name):
            raise SimulationError("image %s does not exist" % name)

    def __repr__(self) -> str:
        return "<DiskImage %s %.1fGB>" % (self.name,
                                          self.size_bytes / 1024 ** 3)


class VirtualDisk:
    """A guest-visible disk backed by an image (plus a diff file).

    Parameters
    ----------
    base:
        The (possibly shared/remote) base image.
    mode:
        ``"persistent"`` — ``base`` is the VM's private copy, writes go
        to it; ``"nonpersistent"`` — writes go to a copy-on-write diff
        file in ``diff_fs``.
    diff_fs:
        Host-local file system for the diff file (non-persistent mode).
    remote_cpu_per_byte:
        Host CPU charged per byte fetched from the base image when the
        base lives behind a remote mount (accumulated; the VM folds it
        into observed sys time).
    """

    MODES = ("persistent", "nonpersistent")

    def __init__(self, sim: Simulation, name: str, base: DiskImage,
                 mode: str = "nonpersistent",
                 diff_fs: Optional[FileSystem] = None,
                 rng: Optional[random.Random] = None,
                 remote_cpu_per_byte: float = 0.0):
        if mode not in self.MODES:
            raise SimulationError("unknown disk mode %r" % mode)
        if mode == "nonpersistent" and diff_fs is None:
            raise SimulationError("non-persistent disks need a diff_fs")
        self.sim = sim
        self.name = name
        self.base = base
        self.mode = mode
        self.diff_fs = diff_fs
        self.diff_name = name + ".diff"
        self.rng = rng if rng is not None \
            else sim.streams.stream("vdisk/" + name)
        self.remote_cpu_per_byte = float(remote_cpu_per_byte)
        self.block_size = 65536
        self._written: Set[int] = set()  # simlint: disable=R23  models the copy-on-write diff contents: bounded by the virtual disk's block count, freed with the VM
        #: Accounting the VM drains into guest sys time.
        self.pending_io_cpu = 0.0
        self.bytes_from_base = 0
        self.bytes_from_diff = 0
        self.bytes_written = 0
        if mode == "nonpersistent":
            self.diff_fs.create(self.diff_name, 0)

    @property
    def size_bytes(self) -> int:
        """The guest-visible disk size."""
        return self.base.size_bytes

    @property
    def diff_bytes(self) -> int:
        """Current size of the copy-on-write diff file."""
        if self.mode != "nonpersistent":
            return 0
        return self.diff_fs.size(self.diff_name)

    # -- Disk-compatible data path -------------------------------------------------

    def _pick_offset(self, nbytes: int) -> int:
        return self.rng.randrange(0, max(1, self.size_bytes - nbytes))

    def read(self, nbytes: int):
        """Guest disk read of ``nbytes`` at a random image offset: the
        :meth:`read_at` process generator."""
        if nbytes < 0:
            raise SimulationError("read size must be non-negative")
        return self.read_at(self._pick_offset(nbytes) if nbytes else 0,
                            nbytes)

    def read_at(self, offset: int, nbytes: int):
        """Process generator: read an explicit image byte range.

        Each maximal run of unmodified blocks is one read of the base
        image; each modified block is read from the diff (or the private
        copy).  The written set and the base image are re-read after
        every yield: a write or a rebind may land while a read waits.
        """
        block_size = self.block_size
        blocks = block_span(offset, nbytes, block_size)
        block, end = blocks.start, blocks.stop
        while block < end:
            first = block
            while block < end and block not in self._written:
                block += 1
            if block > first:
                base = self.base
                start = first * block_size
                run_bytes = min((block - first) * block_size,
                                base.size_bytes - start)
                if run_bytes > 0:
                    yield from base.fs.read(base.name, start, run_bytes,
                                            sequential=block - first > 1)
                    self.bytes_from_base += run_bytes
                    self.pending_io_cpu += \
                        run_bytes * self.remote_cpu_per_byte
            if block < end:
                # Modified block: served from the diff (or private copy).
                yield from self._read_diff_block(block)
                block += 1

    def _read_diff_block(self, block: int):
        if self.mode == "persistent":
            # Private copy: modified blocks live in the base file itself.
            offset = block * self.block_size
            nbytes = min(self.block_size, self.base.size_bytes - offset)
            yield from self.base.fs.read(self.base.name, offset, nbytes,
                                         sequential=False)
            self.bytes_from_base += nbytes
        else:
            diff_size = self.diff_fs.size(self.diff_name)
            nbytes = min(self.block_size, diff_size)
            if nbytes > 0:
                # The block's latest version sits somewhere in the diff;
                # model it as one block-sized read at a stable position.
                offset = (block * self.block_size) % max(
                    1, diff_size - nbytes + 1)
                yield from self.diff_fs.read(self.diff_name, offset, nbytes,
                                             sequential=False)
            self.bytes_from_diff += nbytes

    def write(self, nbytes: int):
        """Process generator: guest disk write of ``nbytes``."""
        if nbytes < 0:
            raise SimulationError("write size must be non-negative")
        if nbytes == 0:
            return
        offset = self._pick_offset(nbytes)
        blocks = block_span(offset, nbytes, self.block_size)
        if self.mode == "persistent":
            yield from self.base.fs.write(self.base.name, offset, nbytes,
                                          sequential=False)
        else:
            # Copy-on-write: append new versions to the diff file.
            diff_offset = self.diff_fs.size(self.diff_name)
            yield from self.diff_fs.write(self.diff_name, diff_offset,
                                          nbytes, sequential=True)
        self._written.update(blocks)
        self.bytes_written += nbytes

    # -- migration support ----------------------------------------------------------

    def rebind(self, base: DiskImage, diff_fs: Optional[FileSystem],
               remote_cpu_per_byte: Optional[float] = None) -> None:
        """Repoint the disk after the VM moved to another host.

        The caller has already staged the diff file to ``diff_fs``.
        """
        if base.size_bytes != self.base.size_bytes:
            raise SimulationError("cannot rebind to a different-size image")
        self.base = base
        if self.mode == "nonpersistent":
            if diff_fs is None:
                raise SimulationError("non-persistent rebind needs diff_fs")
            if not diff_fs.exists(self.diff_name):
                diff_fs.create(self.diff_name, self.diff_bytes)
            self.diff_fs = diff_fs
        if remote_cpu_per_byte is not None:
            self.remote_cpu_per_byte = float(remote_cpu_per_byte)

    def drain_pending_io_cpu(self) -> float:
        """Return and reset the accumulated remote-state CPU debt."""
        pending, self.pending_io_cpu = self.pending_io_cpu, 0.0
        return pending

    def __repr__(self) -> str:
        return "<VirtualDisk %s %s over %r>" % (self.name, self.mode,
                                                self.base)
