"""An LRU block cache kept as runs of blocks.

Used in three places, mirroring Figure 2 of the paper: as the kernel
buffer cache of a host file system, as the client-side file buffer of an
NFS mount, and as the proxy-controlled disk cache of a PVFS proxy (the
"second-level cache to the kernel's file buffers").

The recency order is exactly that of one LRU list of ``(file, block)``
keys, but it is stored as *runs*: a run ``(file_id, lo, hi)`` stands for
blocks ``lo..hi-1`` of one file, recency ascending inside the run.
Copies, fills and sequential reads touch, insert and evict whole
stretches of blocks, so each operation costs O(runs touched), not
O(blocks):

* the recency list is a doubly linked list of runs, oldest first;
* a per-file index keeps each file's run starts sorted, for ``bisect``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, repeat
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.storage.base import StorageError

__all__ = ["BlockCache", "HitCost"]

# A run is a list ``[prev, next, file_id, lo, hi]``; the list's root is a
# sentinel run whose ``hi`` is None, so no run ever merges into it.
_PREV, _NEXT, _FILE, _LO, _HI = range(5)


def _consecutive(run: Iterable[int]) -> List[Tuple[int, int]]:
    """Split a block sequence into ``[lo, hi)`` stretches of consecutive
    ascending blocks, in order."""
    pieces: List[Tuple[int, int]] = []
    lo = hi = None
    for block in run:
        if block != hi:
            if lo is not None:
                pieces.append((lo, hi))
            lo = block
        hi = block + 1
    if lo is not None:
        pieces.append((lo, hi))
    return pieces


# Hit counts ``HitCost`` precomputes.  This covers the largest read the
# experiments make: 4096 hits, from a PVFS proxy cache.
_TABLE_BLOCKS = 8192


class HitCost:
    """The simulated time a reader pays for the cache hits of one read.

    ``total(n)`` is ``cost`` added n times in sequence, the float a
    per-block ``t += cost`` loop reaches; ``n * cost`` rounds differently
    for most n.  The first ``_TABLE_BLOCKS`` sums are computed once (file
    systems keep one instance per cost as a module constant), later ones
    by further sequential additions.
    """

    def __init__(self, cost: float):
        self.cost = float(cost)
        self._sums = tuple(accumulate(repeat(self.cost, _TABLE_BLOCKS),
                                      initial=0.0))

    def total(self, hits: int) -> float:
        """The cost of ``hits`` hits."""
        sums = self._sums
        if hits < len(sums):
            return sums[hits]
        total = sums[-1]
        for _ in range(hits - len(sums) + 1):
            total += self.cost
        return total


class BlockCache:
    """LRU cache of (file, block-index) keys, stored as runs.

    ``capacity_bytes`` and ``block_size`` define the block slot count; a
    capacity of zero disables caching (every lookup misses).
    """

    def __init__(self, capacity_bytes: float, block_size: int = 65536,
                 name: str = "cache"):
        if capacity_bytes < 0 or block_size <= 0:
            raise StorageError("invalid cache parameters")
        self.name = name
        self.block_size = int(block_size)
        self.capacity_blocks = int(capacity_bytes // block_size)
        root: list = [None, None, None, None, None]
        root[_PREV] = root[_NEXT] = root
        self._root = root
        #: file_id -> (sorted run starts, the runs in the same order)
        self._index: Dict[Hashable, Tuple[List[int], List[list]]] = {}
        self._size = 0
        self.hits = 0
        self.misses = 0

    @property
    def size_blocks(self) -> int:
        """Blocks currently cached."""
        return self._size

    @property
    def size_bytes(self) -> int:
        """Bytes currently cached."""
        return self._size * self.block_size

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups that hit (0.0 when no lookups yet)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def runs(self) -> List[Tuple[Hashable, int, int]]:
        """The resident runs ``(file_id, lo, hi)``, least recently used
        first; blocks inside a run are in ascending recency."""
        root = self._root
        out = []
        run = root[_NEXT]
        while run is not root:
            out.append((run[_FILE], run[_LO], run[_HI]))
            run = run[_NEXT]
        return out

    def contains(self, file_id: Hashable, block: int) -> bool:
        """Residency check without touching recency or counters."""
        entry = self._index.get(file_id)
        if entry is None:
            return False
        i = bisect_right(entry[0], block) - 1
        return i >= 0 and entry[1][i][_HI] > block

    def missing(self, file_id: Hashable, lo: int, hi: int) -> List[int]:
        """The blocks of ``[lo, hi)`` not resident, ascending; touches
        neither recency nor counters."""
        entry = self._index.get(file_id)
        if entry is None:
            return list(range(lo, hi))
        starts, runs = entry
        out: List[int] = []
        i = max(bisect_right(starts, lo) - 1, 0)
        pos = lo
        while pos < hi and i < len(runs):
            run = runs[i]
            if run[_HI] > pos:
                if run[_LO] > pos:
                    out.extend(range(pos, min(run[_LO], hi)))
                pos = run[_HI]
            i += 1
        out.extend(range(pos, hi))
        return out

    def lookup(self, file_id: Hashable, block: int) -> bool:
        """Check residency; updates recency and hit/miss counters."""
        entry = self._index.get(file_id)
        if entry is not None:
            starts, runs = entry
            i = bisect_right(starts, block) - 1
            if i >= 0 and runs[i][_HI] > block:
                self._touch(file_id, starts, runs, i, block, block + 1)
                self.hits += 1
                return True
        self.misses += 1
        return False

    def insert(self, file_id: Hashable,
               block: int) -> Optional[Tuple[Hashable, int]]:
        """Add a block, evicting the LRU block if full.

        Returns the evicted key, if any.
        """
        if self.capacity_blocks == 0:
            return None
        entry = self._index.get(file_id)
        if entry is not None:
            starts, runs = entry
            i = bisect_right(starts, block) - 1
            if i >= 0 and runs[i][_HI] > block:
                self._touch(file_id, starts, runs, i, block, block + 1)
                return None
        evicted = None
        if self._size >= self.capacity_blocks:
            head = self._root[_NEXT]
            evicted = (head[_FILE], head[_LO])
            self._evict(1)
        self._append(file_id, block, block + 1)
        self._size += 1
        return evicted

    def insert_run(self, file_id: Hashable, run: Iterable[int]) -> None:
        """Insert a run of blocks: same end state and eviction sequence
        as one :meth:`insert` per block, in order.

        The run is walked one stretch at a time, each stretch wholly
        resident (touched) or wholly absent (appended after evicting room
        for it), with residency re-read per stretch: evicting room for
        one stretch can drop a later block of the same run.  Run callers
        (file systems filling a cache behind one disk or RPC access)
        never charge per-block eviction costs, so the evicted keys are
        not reported.
        """
        capacity = self.capacity_blocks
        if capacity == 0:
            return
        index = self._index
        if type(run) is range and run.step == 1:
            stretches = ((run.start, run.stop),)
        else:
            stretches = _consecutive(run)
        for lo, hi in stretches:
            pos = lo
            while pos < hi:
                stop = hi
                entry = index.get(file_id)
                if entry is not None:
                    starts, runs = entry
                    i = bisect_right(starts, pos) - 1
                    if i >= 0 and runs[i][_HI] > pos:
                        stop = min(hi, runs[i][_HI])
                        self._touch(file_id, starts, runs, i, pos, stop)
                        pos = stop
                        continue
                    if i + 1 < len(starts) and starts[i + 1] < hi:
                        stop = starts[i + 1]
                # Per-block inserts into a full cache evict one LRU block
                # each: the oldest residents go first, then (when the
                # stretch outgrows the cache) the stretch's own head.
                size = self._size
                over = size + stop - pos - capacity
                if over > 0:
                    self._evict(min(over, size))
                    pos = max(pos, stop - capacity)
                self._append(file_id, pos, stop)
                self._size += stop - pos
                pos = stop

    def scan(self, file_id: Hashable, blocks: range, fill):
        """Process generator: read ``blocks`` through the cache, by stretch.

        Same cache state and counters, at every yield, as one
        :meth:`lookup` per block in ascending order where each run of
        consecutive misses is fetched when the next hit follows it, or at
        the end:

        * a missing run is fetched by ``yield from fill(run)``, which
          only fetches; the scan inserts the run (:meth:`insert_run`) as
          soon as the fill returns, with no yield between;
        * a resident stretch with no misses pending is touched as one
          run: touching changes no block's residency;
        * a hit that follows pending misses touches only that block;
          the counters are flushed, then the fill is yielded;
        * residency is re-read after every yield, since other processes
          mutate the cache while simulated time passes.

        Returns the number of hits.
        """
        index = self._index
        served = hits = misses = 0
        pos, end = blocks.start, blocks.stop
        pending = None  # first block of the pending miss run
        while pos < end:
            stop = end
            entry = index.get(file_id)
            if entry is not None:
                starts, runs = entry
                i = bisect_right(starts, pos) - 1
                if i >= 0 and runs[i][_HI] > pos:
                    if pending is None:
                        stop = min(end, runs[i][_HI])
                        self._touch(file_id, starts, runs, i, pos, stop)
                        hits += stop - pos
                        pos = stop
                        continue
                    self._touch(file_id, starts, runs, i, pos, pos + 1)
                    self.hits += hits + 1
                    self.misses += misses
                    served += hits + 1
                    hits = misses = 0
                    run = range(pending, pos)
                    yield from fill(run)
                    self.insert_run(file_id, run)
                    pending = None
                    pos += 1
                    continue
                if i + 1 < len(starts) and starts[i + 1] < end:
                    stop = starts[i + 1]
            if pending is None:
                pending = pos
            misses += stop - pos
            pos = stop
        self.hits += hits
        self.misses += misses
        if pending is not None:
            run = range(pending, end)
            yield from fill(run)
            self.insert_run(file_id, run)
        return served + hits

    def invalidate_file(self, file_id: Hashable) -> int:
        """Drop every block of one file; returns the count dropped."""
        entry = self._index.pop(file_id, None)
        if entry is None:
            return 0
        dropped = 0
        for run in entry[1]:
            prev, nxt = run[_PREV], run[_NEXT]
            prev[_NEXT] = nxt
            nxt[_PREV] = prev
            dropped += run[_HI] - run[_LO]
        self._size -= dropped
        return dropped

    def clear(self) -> None:
        """Drop everything (counters are preserved)."""
        root = self._root
        root[_PREV] = root[_NEXT] = root
        self._index.clear()
        self._size = 0

    # -- run maintenance ---------------------------------------------------

    def _touch(self, file_id, starts: List[int], runs: List[list], i: int,
               lo: int, hi: int) -> None:
        """Make resident blocks ``[lo, hi)``, all inside ``runs[i]``, the
        most recent, in ascending order."""
        run = runs[i]
        root = self._root
        run_lo, run_hi = run[_LO], run[_HI]
        if hi == run_hi:
            if run is root[_PREV]:
                return  # the run's newest blocks are already the newest
            if lo == run_lo:
                # The whole run moves to the MRU end.
                prev, nxt = run[_PREV], run[_NEXT]
                prev[_NEXT] = nxt
                nxt[_PREV] = prev
                tail = root[_PREV]
                if tail[_HI] == lo and tail[_FILE] == file_id:
                    tail[_HI] = hi
                    del starts[i]
                    del runs[i]
                else:
                    run[_PREV] = tail
                    run[_NEXT] = root
                    tail[_NEXT] = run
                    root[_PREV] = run
                return
        if lo == run_lo:
            run[_LO] = hi
            starts[i] = hi
        else:
            if hi < run_hi:
                # Split: the newer right part stays right after the left.
                nxt = run[_NEXT]
                right = [run, nxt, file_id, hi, run_hi]
                nxt[_PREV] = right
                run[_NEXT] = right
                starts.insert(i + 1, hi)
                runs.insert(i + 1, right)
            run[_HI] = lo
        self._append(file_id, lo, hi)

    def _append(self, file_id, lo: int, hi: int) -> None:
        """Link absent blocks ``[lo, hi)`` at the MRU end (size unchanged)."""
        root = self._root
        tail = root[_PREV]
        if tail[_HI] == lo and tail[_FILE] == file_id:
            tail[_HI] = hi
            return
        run = [tail, root, file_id, lo, hi]
        tail[_NEXT] = run
        root[_PREV] = run
        entry = self._index.get(file_id)
        if entry is None:
            self._index[file_id] = ([lo], [run])
        else:
            starts, runs = entry
            i = bisect_left(starts, lo)
            starts.insert(i, lo)
            runs.insert(i, run)

    def _evict(self, count: int) -> None:
        """Drop the ``count`` least recently used blocks."""
        root = self._root
        index = self._index
        self._size -= count
        while count:
            run = root[_NEXT]
            lo = run[_LO]
            file_id = run[_FILE]
            starts, runs = index[file_id]
            i = bisect_left(starts, lo)
            if run[_HI] - lo > count:
                run[_LO] = starts[i] = lo + count
                return
            count -= run[_HI] - lo
            nxt = run[_NEXT]
            root[_NEXT] = nxt
            nxt[_PREV] = root
            if len(starts) == 1:
                del index[file_id]
            else:
                del starts[i]
                del runs[i]

    def __repr__(self) -> str:
        return "<BlockCache %s %d/%d blocks hit=%.2f>" % (
            self.name, self._size, self.capacity_blocks, self.hit_ratio)
