"""PVFS: the PUNCH grid virtual file system as an NFS proxy.

The paper (Section 3.1, Figure 2) layers client-side proxies over plain
NFS: the proxy forwards misses to a possibly wide-area NFS server while
serving repeats from a *proxy-controlled disk cache* — a second-level
cache below the kernel's file buffers — and absorbing writes into a
write buffer.  Read-only sharing of VM images by many guests is exactly
the pattern the proxy cache exploits.

:class:`PvfsProxy` implements the standard :class:`FileSystem` interface
over any backing file system (normally an :class:`NfsMount`), adding:

* an LRU proxy cache sized independently of the kernel buffer cache;
* sequential prefetch: a detected streaming pattern pulls the next
  blocks in the background before the reader asks for them;
* write buffering with explicit :meth:`sync`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.simulation.kernel import Simulation
from repro.storage.base import FileSystem, StorageError, block_span
from repro.storage.cache import BlockCache, HitCost

__all__ = ["PvfsProxy"]

#: Proxy forwarding cost per block served from the proxy cache.
_PROXY_HIT_COST = HitCost(2e-5)


class PvfsProxy(FileSystem):
    """A caching, prefetching, write-buffering file-system proxy."""

    def __init__(self, sim: Simulation, backing: FileSystem,
                 cache_bytes: float = 512 * 1024 * 1024,
                 prefetch_blocks: int = 32, name: str = "pvfs"):
        if prefetch_blocks < 0:
            raise StorageError("prefetch depth must be non-negative")
        self.sim = sim
        self.backing = backing
        self.name = name
        self.block_size = backing.block_size
        self.cache = BlockCache(cache_bytes, block_size=self.block_size,
                                name=name + ".proxycache")
        self.prefetch_blocks = int(prefetch_blocks)
        self._inflight_prefetch: Set[Tuple[str, int]] = set()
        self._write_buffer: Dict[str, List[Tuple[int, int]]] = {}
        self.buffered_bytes = 0
        self.prefetch_issued = 0
        metrics = sim.metrics
        self._m_hits = metrics.counter("storage.pvfs.cache_hits")
        self._m_misses = metrics.counter("storage.pvfs.cache_misses")
        self._m_prefetch = metrics.counter("storage.pvfs.prefetch_blocks")
        self._m_flushed = metrics.counter("storage.pvfs.flushed_bytes")

    # -- metadata -------------------------------------------------------------

    def exists(self, name: str) -> bool:
        return self.backing.exists(name) or name in self._write_buffer

    def size(self, name: str) -> int:
        base = self.backing.size(name) if self.backing.exists(name) else 0
        for offset, nbytes in self._write_buffer.get(name, []):
            base = max(base, offset + nbytes)
        return base

    def listdir(self) -> List[str]:
        names = set(self.backing.listdir()) | set(self._write_buffer)
        return sorted(names)

    def create(self, name: str, size: int = 0) -> None:
        self.backing.create(name, size)

    def delete(self, name: str) -> None:
        self.backing.delete(name)
        self._write_buffer.pop(name, None)
        self.cache.invalidate_file((self.name, name))

    # -- read path -------------------------------------------------------------

    def read(self, name: str, offset: int, nbytes: int,
             sequential: bool = True):
        """Read through the proxy cache; misses forward to the backing FS."""
        file_id = (self.name, name)
        blocks = block_span(offset, nbytes, self.block_size)
        hits = yield from self.cache.scan(
            file_id, blocks, lambda run: self._fill(name, file_id, run))
        self._m_hits.inc(hits)
        self._m_misses.inc(len(blocks) - hits)
        if hits:
            yield self.sim.timeout(_PROXY_HIT_COST.total(hits))
        # A streaming pattern warms the cache ahead of the reader.
        if sequential and self.prefetch_blocks and blocks:
            self._start_prefetch(name, file_id, blocks[-1] + 1)

    def _fill(self, name: str, file_id, blocks: Sequence[int]):
        """Fetch a run of missing blocks from the backing file system."""
        span_offset = blocks[0] * self.block_size
        span_bytes = min(len(blocks) * self.block_size,
                         self.backing.size(name) - span_offset)
        if span_bytes > 0:
            yield from self.backing.read(name, span_offset, span_bytes,
                                         sequential=len(blocks) > 1)
        self.cache.insert_run(file_id, blocks)

    def _start_prefetch(self, name: str, file_id, first_block: int) -> None:
        limit = (self.backing.size(name) + self.block_size - 1) \
            // self.block_size
        absent = self.cache.missing(
            file_id, first_block, min(first_block + self.prefetch_blocks,
                                      limit))
        wanted = [b for b in absent
                  if (name, b) not in self._inflight_prefetch]
        if not wanted:
            return
        for block in wanted:
            self._inflight_prefetch.add((name, block))
        self.prefetch_issued += len(wanted)
        self._m_prefetch.inc(len(wanted))

        def fetcher(sim):
            try:
                yield from self._fill(name, file_id, wanted)
            finally:
                for block in wanted:
                    self._inflight_prefetch.discard((name, block))

        self.sim.spawn(fetcher(self.sim), name="%s.prefetch" % self.name)

    # -- write path --------------------------------------------------------------

    def write(self, name: str, offset: int, nbytes: int,
              sequential: bool = True):
        """Absorb the write into the proxy's write buffer (fast path)."""
        blocks = block_span(offset, nbytes, self.block_size)
        file_id = (self.name, name)
        self.cache.insert_run(file_id, blocks)
        self._write_buffer.setdefault(name, []).append((offset, nbytes))
        self.buffered_bytes += nbytes
        yield self.sim.timeout(len(blocks) * _PROXY_HIT_COST.cost)

    def sync(self):
        """Process generator: flush buffered writes to the backing FS."""
        pending, self._write_buffer = self._write_buffer, {}
        flushed = self.buffered_bytes
        self.buffered_bytes = 0
        span = self.sim.trace.begin("storage", "pvfs sync",
                                    track=("storage", self.name),
                                    bytes=flushed)
        for name, ranges in pending.items():
            for offset, nbytes in ranges:
                yield from self.backing.write(name, offset, nbytes)
        self.sim.trace.end(span)
        self._m_flushed.inc(flushed)
        return flushed

    def __repr__(self) -> str:
        return "<PvfsProxy %s over %r>" % (self.name, self.backing)
