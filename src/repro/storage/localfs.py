"""DiskFS: a local file system on a machine's disk, with a buffer cache.

This is the "native file system" of Table 2.  Its two behaviours matter
for the paper's startup experiment:

* bulk sequential access streams at the disk's media rate;
* an explicit :meth:`copy` of a large file passes through the buffer
  cache, so reads issued shortly afterwards (a guest OS booting from a
  just-copied disk image) partially hit memory instead of the disk.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hardware.disk import Disk
from repro.simulation.kernel import Simulation
from repro.storage.base import FileNotFound, FileSystem, StorageError, block_span
from repro.storage.cache import BlockCache, HitCost

__all__ = ["LocalFileSystem"]

#: CPU/memory cost of serving one block from the buffer cache.
_HIT_COST = HitCost(4e-6)


class LocalFileSystem(FileSystem):
    """A file system bound to one disk and one buffer cache."""

    def __init__(self, sim: Simulation, disk: Disk,
                 cache_bytes: float = 256 * 1024 * 1024,
                 block_size: int = 65536, name: str = "diskfs"):
        self.sim = sim
        self.disk = disk
        self.name = name
        self.block_size = int(block_size)
        self.cache = BlockCache(cache_bytes, block_size=self.block_size,
                                name=name + ".buffercache")
        self._files: Dict[str, int] = {}

    # -- metadata -------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return name in self._files

    def size(self, name: str) -> int:
        return self._require(self._files, name)

    def listdir(self) -> List[str]:
        return sorted(self._files)

    def create(self, name: str, size: int = 0) -> None:
        if size < 0:
            raise StorageError("file size must be non-negative")
        self._files[name] = int(size)

    def delete(self, name: str) -> None:
        self._require(self._files, name)
        del self._files[name]
        self.cache.invalidate_file((self.name, name))

    def _file_id(self, name: str):
        return (self.name, name)

    # -- data path --------------------------------------------------------------

    def read(self, name: str, offset: int, nbytes: int,
             sequential: bool = True):
        """Read a byte range; cached blocks skip the disk."""
        size = self._require(self._files, name)
        if offset + nbytes > size:
            raise StorageError("read past end of %s (%d+%d > %d)"
                               % (name, offset, nbytes, size))
        file_id = self._file_id(name)
        hits = yield from self.cache.scan(
            file_id, block_span(offset, nbytes, self.block_size),
            lambda run: self._read_run(file_id, run))
        if hits:
            yield self.sim.timeout(_HIT_COST.total(hits))

    def _read_run(self, file_id, blocks: range):
        """One disk access covering a run of consecutive missing blocks.

        The run pays one positioning cost and then streams, regardless of
        the caller's access pattern — runs are contiguous by construction.
        """
        yield from self.disk.read(len(blocks) * self.block_size,
                                  sequential=False)
        self.cache.insert_run(file_id, blocks)

    def write(self, name: str, offset: int, nbytes: int,
              sequential: bool = True):
        """Write a byte range (write-through), extending the file."""
        if name not in self._files:
            self._files[name] = 0
        file_id = self._file_id(name)
        blocks = block_span(offset, nbytes, self.block_size)
        if blocks:
            # One positioning cost, then the whole range streams.
            yield from self.disk.write(len(blocks) * self.block_size,
                                       sequential=False)
            self.cache.insert_run(file_id, blocks)
        self._files[name] = max(self._files[name], offset + nbytes)

    def copy(self, src: str, dst: str, chunk_bytes: int = 4 * 1024 * 1024):
        """Process generator: explicit whole-file copy on the same disk.

        Models Table 2's *persistent* mode: the copy streams through the
        buffer cache, leaving the tail of the source resident.
        """
        size = self._require(self._files, src)
        self.create(dst, 0)
        offset = 0
        while offset < size:
            chunk = min(chunk_bytes, size - offset)
            yield from self.read(src, offset, chunk, sequential=True)
            yield from self.write(dst, offset, chunk, sequential=True)
            offset += chunk

    def warm_fraction(self, name: str) -> float:
        """Fraction of the file's blocks resident in the buffer cache."""
        size = self._require(self._files, name)
        if size == 0:
            return 1.0
        blocks = block_span(0, size, self.block_size)
        resident = sum(1 for b in blocks
                       if self.cache.contains(self._file_id(name), b))
        return resident / len(blocks)

    def __repr__(self) -> str:
        return "<LocalFileSystem %s files=%d>" % (self.name, len(self._files))
