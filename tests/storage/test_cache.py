"""Unit and property tests for the LRU block cache."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import Disk
from repro.simulation import Simulation
from repro.storage import BlockCache, LocalFileSystem, StorageError
from repro.storage import cache as cache_module
from repro.storage.cache import HitCost


def test_empty_cache_misses():
    cache = BlockCache(10 * 65536)
    assert not cache.lookup("f", 0)
    assert cache.misses == 1 and cache.hits == 0


def test_insert_then_hit():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 3)
    assert cache.lookup("f", 3)
    assert cache.hits == 1


def test_capacity_eviction_is_lru():
    cache = BlockCache(2 * 65536)
    cache.insert("f", 0)
    cache.insert("f", 1)
    cache.lookup("f", 0)        # make block 0 most recent
    evicted = cache.insert("f", 2)
    assert evicted == ("f", 1)  # block 1 was least recently used
    assert cache.contains("f", 0)
    assert not cache.contains("f", 1)


def test_zero_capacity_disables_caching():
    cache = BlockCache(0)
    assert cache.insert("f", 0) is None
    assert not cache.lookup("f", 0)


def test_reinsert_does_not_evict():
    cache = BlockCache(2 * 65536)
    cache.insert("f", 0)
    cache.insert("f", 1)
    evicted = cache.insert("f", 0)  # already resident
    assert evicted is None
    assert cache.size_blocks == 2


def test_invalidate_file_drops_only_that_file():
    cache = BlockCache(10 * 65536)
    cache.insert("a", 0)
    cache.insert("a", 1)
    cache.insert("b", 0)
    assert cache.invalidate_file("a") == 2
    assert not cache.contains("a", 0)
    assert cache.contains("b", 0)


def test_contains_does_not_touch_counters():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 0)
    cache.contains("f", 0)
    cache.contains("f", 99)
    assert cache.hits == 0 and cache.misses == 0


def test_hit_ratio():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 0)
    cache.lookup("f", 0)
    cache.lookup("f", 1)
    assert cache.hit_ratio == pytest.approx(0.5)


def test_clear_preserves_counters():
    cache = BlockCache(10 * 65536)
    cache.insert("f", 0)
    cache.lookup("f", 0)
    cache.clear()
    assert cache.size_blocks == 0
    assert cache.hits == 1


def test_invalid_parameters():
    with pytest.raises(StorageError):
        BlockCache(-1)
    with pytest.raises(StorageError):
        BlockCache(100, block_size=0)


@settings(max_examples=50, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from(["insert", "lookup"]),
                              st.integers(min_value=0, max_value=20)),
                    max_size=100),
       capacity_blocks=st.integers(min_value=1, max_value=8))
def test_property_size_never_exceeds_capacity(ops, capacity_blocks):
    cache = BlockCache(capacity_blocks * 64, block_size=64)
    for op, block in ops:
        if op == "insert":
            cache.insert("f", block)
        else:
            cache.lookup("f", block)
        assert cache.size_blocks <= capacity_blocks


@settings(max_examples=50, deadline=None)
@given(blocks=st.lists(st.integers(min_value=0, max_value=100),
                       min_size=1, max_size=50))
def test_property_recently_inserted_block_is_resident(blocks):
    cache = BlockCache(4 * 64, block_size=64)
    for block in blocks:
        cache.insert("f", block)
        assert cache.contains("f", block)


def test_insert_run_longer_than_capacity_keeps_its_tail():
    cache = BlockCache(3 * 64, block_size=64)
    cache.insert_run("f", range(10, 12))
    cache.insert_run("f", range(0, 8))
    assert cache.runs() == [("f", 5, 8)]
    assert cache.size_blocks == 3


def test_touch_splits_a_run_in_place():
    cache = BlockCache(10 * 64, block_size=64)
    cache.insert_run("f", range(0, 6))
    cache.insert_run("g", range(0, 2))
    assert cache.lookup("f", 2)
    assert cache.runs() == [("f", 0, 2), ("f", 3, 6), ("g", 0, 2),
                            ("f", 2, 3)]


def test_missing_lists_absent_blocks_without_touching():
    cache = BlockCache(10 * 64, block_size=64)
    cache.insert_run("f", [1, 2, 5])
    order = cache.runs()
    assert cache.missing("f", 0, 7) == [0, 3, 4, 6]
    assert cache.missing("g", 2, 4) == [2, 3]
    assert cache.runs() == order and cache.hits == cache.misses == 0


@pytest.mark.parametrize("cost", [4e-6, 2e-5])
def test_hit_cost_equals_sequential_additions(cost):
    # Every n up to a little past the precomputed table, then every 61st
    # n up to three tables: past the table each ``total`` call adds in a
    # loop, so checking every n there would take ~10^8 additions.
    hit_cost = HitCost(cost)
    table = cache_module._TABLE_BLOCKS
    checked = 0
    total = 0.0
    for hits in range(3 * table + 1):
        if hits <= table + 256 or hits % 61 == 0 or hits == 3 * table:
            assert hit_cost.total(hits) == total
            checked += 1
        total += cost
    assert checked > table


class ReferenceLru:
    """Per-block LRU over an OrderedDict: the semantics the run cache
    must reproduce, block for block."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.blocks = OrderedDict()
        self.hits = self.misses = 0

    def lookup(self, file_id, block):
        if (file_id, block) in self.blocks:
            self.blocks.move_to_end((file_id, block))
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, file_id, block):
        key = (file_id, block)
        if self.capacity == 0:
            return None
        if key in self.blocks:
            self.blocks.move_to_end(key)
            return None
        evicted = None
        if len(self.blocks) >= self.capacity:
            evicted = self.blocks.popitem(last=False)[0]
        self.blocks[key] = True
        return evicted

    def invalidate_file(self, file_id):
        doomed = [key for key in self.blocks if key[0] == file_id]
        for key in doomed:
            del self.blocks[key]
        return len(doomed)

    def read(self, file_id, blocks):
        """Lookups in order; a miss run is filled when a hit follows it.
        Returns the hit count."""
        hits = self.hits
        pending = []
        for block in blocks:
            if self.lookup(file_id, block):
                for missed in pending:
                    self.insert(file_id, missed)
                pending = []
            else:
                pending.append(block)
        for missed in pending:
            self.insert(file_id, missed)
        return self.hits - hits


def drain(process):
    """Run a process generator whose fills never yield; its result."""
    try:
        while True:
            next(process)
    except StopIteration as stop:
        return stop.value


_OPS = st.lists(st.tuples(
    st.sampled_from(["lookup", "insert", "insert_run", "read", "invalidate",
                     "clear", "contains"]),
    st.sampled_from(["a", "b"]),
    st.integers(min_value=0, max_value=24),
    st.integers(min_value=0, max_value=12)), max_size=60)


@settings(max_examples=200, deadline=None)
@given(ops=_OPS, capacity_blocks=st.integers(min_value=0, max_value=10))
def test_property_run_cache_matches_per_block_lru(ops, capacity_blocks):
    cache = BlockCache(capacity_blocks * 64, block_size=64)
    ref = ReferenceLru(capacity_blocks)
    for op, file_id, block, length in ops:
        if op == "lookup":
            assert cache.lookup(file_id, block) == ref.lookup(file_id, block)
        elif op == "insert":
            assert cache.insert(file_id, block) == ref.insert(file_id, block)
        elif op == "insert_run":
            # Odd lengths insert a gapped, unordered run.
            run = (range(block, block + length) if length % 2 == 0
                   else [block + length, block, block + 1, block + 3])
            cache.insert_run(file_id, run)
            for member in run:
                ref.insert(file_id, member)
        elif op == "read":
            def fill(run, file_id=file_id):
                cache.insert_run(file_id, run)
                return iter(())
            span = range(block, block + length)
            assert drain(cache.scan(file_id, span, fill)) == \
                ref.read(file_id, span)
        elif op == "invalidate":
            assert cache.invalidate_file(file_id) == \
                ref.invalidate_file(file_id)
        elif op == "clear":
            cache.clear()
            ref.blocks.clear()
        else:
            assert cache.contains(file_id, block) == \
                ((file_id, block) in ref.blocks)
        runs = cache.runs()
        keys = [(f, b) for f, lo, hi in runs for b in range(lo, hi)]
        assert keys == list(ref.blocks)
        assert len(set(keys)) == len(keys)  # runs are disjoint
        assert sum(hi - lo for _f, lo, hi in runs) == cache.size_blocks
        assert cache.size_blocks <= capacity_blocks
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)


def test_concurrent_readers_interleave_fills():
    """Two readers whose miss fills queue on one disk arm (1 s seek,
    1 s per block).  Cache of 5 blocks, LRU [7, 2, 6] at the start.

    t=0   A reads 0-3: misses 0, 1, hits 2 (LRU 7 6 2), fills 0-1 (t 0-3).
          B reads 4-7: misses 4, 5, hits 6 (LRU 7 2 6), fills 4-5 (t 3-6).
    t=3   A's fill lands (7 2 6 0 1); block 3 misses, fill (t 6-8).
    t=6   B's fill evicts 7 and 2 (6 0 1 4 5).  Block 7, resident when B
          started, is re-read as a miss: fill (t 8-10).
    t=8   A's fill evicts 6 (0 1 4 5 3); A pays one hit: done at 8+4e-6.
    t=10  B's fill evicts 0 (1 4 5 3 7); B pays one hit.
    """
    sim = Simulation()
    disk = Disk(sim, seek_time=1.0, transfer_rate=4096.0)
    fs = LocalFileSystem(sim, disk, cache_bytes=5 * 4096, block_size=4096)
    fs.create("f", 8 * 4096)
    file_id = ("diskfs", "f")
    for block in (7, 2, 6):
        fs.cache.insert(file_id, block)
    done = {}

    def reader(tag, first):
        yield from fs.read("f", first * 4096, 4 * 4096)
        done[tag] = sim.now

    sim.spawn(reader("A", 0))
    sim.spawn(reader("B", 4))
    sim.run()
    assert done == {"A": 8.0 + 4e-6, "B": 10.0 + 4e-6}
    assert (fs.cache.hits, fs.cache.misses) == (2, 6)
    assert fs.cache.runs() == [(file_id, 1, 2), (file_id, 4, 6),
                               (file_id, 3, 4), (file_id, 7, 8)]
