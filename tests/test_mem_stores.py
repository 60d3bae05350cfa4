"""Unit and property tests for the cache tag store, address map and DRAM model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (
    AddressMap,
    CacheEntry,
    CoherenceState,
    MainMemory,
    MemoryConfig,
    SetAssociativeCache,
)


# --------------------------------------------------------------------------- #
# MemoryConfig
# --------------------------------------------------------------------------- #
def test_default_config_matches_dolly():
    config = MemoryConfig()
    assert config.line_bytes == 16
    assert config.l2_size_bytes == 8 * 1024
    assert config.llc_shard_size_bytes == 64 * 1024
    assert config.words_per_line == 2
    assert config.max_store_bytes == 8


def test_config_validation():
    with pytest.raises(ValueError):
        MemoryConfig(line_bytes=24)
    with pytest.raises(ValueError):
        MemoryConfig(word_bytes=5)
    with pytest.raises(ValueError):
        MemoryConfig(l1_size_bytes=1000, l1_assoc=3)


# --------------------------------------------------------------------------- #
# AddressMap
# --------------------------------------------------------------------------- #
def test_line_and_word_alignment():
    amap = AddressMap(MemoryConfig(), home_tiles=[0, 1, 2, 3])
    assert amap.line_of(0x1234) == 0x1230
    assert amap.word_of(0x1234) == 0x1230
    assert amap.word_of(0x123C) == 0x1238
    assert amap.offset_in_line(0x1234) == 4
    assert amap.same_line(0x1230, 0x123F)
    assert not amap.same_line(0x1230, 0x1240)


def test_lines_spanning_regions():
    amap = AddressMap(MemoryConfig(), home_tiles=[0])
    assert amap.lines_spanning(0x100, 16) == [0x100]
    assert amap.lines_spanning(0x100, 17) == [0x100, 0x110]
    assert amap.lines_spanning(0x108, 16) == [0x100, 0x110]
    assert amap.lines_spanning(0x100, 0) == []


def test_home_tile_interleaving_covers_all_tiles():
    amap = AddressMap(MemoryConfig(), home_tiles=[0, 1, 2, 3])
    homes = {amap.home_tile(line * 16) for line in range(16)}
    assert homes == {0, 1, 2, 3}
    # Consecutive lines map to different homes (line interleaving).
    assert amap.home_tile(0x0) != amap.home_tile(0x10)


def test_address_map_requires_home_tiles():
    with pytest.raises(ValueError):
        AddressMap(MemoryConfig(), home_tiles=[])


@given(addr=st.integers(min_value=0, max_value=2**40), n=st.integers(min_value=1, max_value=64))
def test_home_tile_is_stable_and_line_granular(addr, n):
    amap = AddressMap(MemoryConfig(), home_tiles=list(range(n)))
    home = amap.home_tile(addr)
    assert 0 <= home < n
    # Every address in the same line has the same home.
    assert amap.home_tile(amap.line_of(addr)) == home
    assert amap.home_tile(amap.line_of(addr) + 15) == home


# --------------------------------------------------------------------------- #
# SetAssociativeCache
# --------------------------------------------------------------------------- #
def test_cache_insert_lookup_and_miss_counts():
    cache = SetAssociativeCache(1024, 16, 2)
    assert cache.lookup(0x100) is None
    cache.insert(0x100, CoherenceState.SHARED)
    entry = cache.lookup(0x100)
    assert entry is not None and entry.state is CoherenceState.SHARED
    assert cache.hits == 1
    assert cache.misses == 1


def test_cache_lru_eviction_order():
    # 2-way cache: third distinct line in a set evicts the least recently used.
    cache = SetAssociativeCache(line_bytes=16, assoc=2, size_bytes=16 * 2 * 4)  # 4 sets
    set_stride = 16 * cache.num_sets
    a, b, c = 0x0, set_stride, 2 * set_stride  # all map to set 0
    cache.insert(a, CoherenceState.SHARED)
    cache.insert(b, CoherenceState.SHARED)
    cache.lookup(a)  # touch a, so b becomes LRU
    victim = cache.insert(c, CoherenceState.SHARED)
    assert victim is not None and victim.line_addr == b
    assert a in cache and c in cache and b not in cache


def test_cache_invalidate_and_contains():
    cache = SetAssociativeCache(1024, 16, 4)
    cache.insert(0x40, CoherenceState.MODIFIED, dirty=True)
    assert 0x40 in cache
    removed = cache.invalidate(0x40)
    assert removed.dirty
    assert 0x40 not in cache
    assert cache.invalidate(0x40) is None


def test_cache_invalidate_all():
    cache = SetAssociativeCache(1024, 16, 4)
    for i in range(10):
        cache.insert(i * 16, CoherenceState.SHARED)
    assert cache.invalidate_all() == 10
    assert len(cache) == 0


def test_cache_geometry_validation():
    with pytest.raises(ValueError):
        SetAssociativeCache(1000, 16, 3)
    with pytest.raises(ValueError):
        SetAssociativeCache(0, 16, 1)


def test_cache_peek_does_not_touch_lru_or_stats():
    cache = SetAssociativeCache(line_bytes=16, assoc=2, size_bytes=16 * 2)
    cache.insert(0x00, CoherenceState.SHARED)
    cache.insert(0x20, CoherenceState.SHARED)
    hits_before = cache.hits
    cache.peek(0x00)
    assert cache.hits == hits_before
    # 0x00 is still LRU because peek did not touch it.
    victim = cache.insert(0x40, CoherenceState.SHARED)
    assert victim.line_addr == 0x00


@settings(max_examples=50, deadline=None)
@given(
    addresses=st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=200),
)
def test_cache_never_exceeds_capacity_and_residency_is_consistent(addresses):
    cache = SetAssociativeCache(size_bytes=16 * 16, line_bytes=16, assoc=2)
    resident = set()
    for index in addresses:
        line = index * 16
        victim = cache.insert(line, CoherenceState.SHARED)
        resident.add(line)
        if victim is not None:
            resident.discard(victim.line_addr)
        assert len(cache) <= cache.capacity_lines
        # Per-set occupancy never exceeds associativity.
        assert len(cache) == len(resident)
    for line in resident:
        assert cache.peek(line) is not None


class _EagerCache:
    """Reference tag store: every set is a plain LRU-ordered list, built
    up front.  ``SetAssociativeCache`` must behave exactly like it."""

    def __init__(self, num_sets, line_bytes, assoc):
        self.num_sets, self.line_bytes, self.assoc = num_sets, line_bytes, assoc
        self.sets = [[] for _ in range(num_sets)]
        self.hits = self.misses = self.evictions = 0

    def _find(self, line):
        cache_set = self.sets[(line // self.line_bytes) % self.num_sets]
        for entry in cache_set:
            if entry.line_addr == line:
                return cache_set, entry
        return cache_set, None

    def lookup(self, line, touch=True):
        cache_set, entry = self._find(line)
        if entry is None or not entry.valid:
            self.misses += 1
            return None
        if touch:
            cache_set.remove(entry)
            cache_set.append(entry)
        self.hits += 1
        return entry

    def peek(self, line):
        _, entry = self._find(line)
        return entry if entry is not None and entry.valid else None

    def insert(self, line, state, dirty=False, virtual_page=None):
        cache_set, old = self._find(line)
        victim = None
        if old is not None:
            cache_set.remove(old)
        elif len(cache_set) >= self.assoc:
            victim = cache_set.pop(0)
            self.evictions += 1
        cache_set.append(CacheEntry(line, state=state, dirty=dirty,
                                    virtual_page=virtual_page))
        return victim

    def invalidate(self, line):
        cache_set, entry = self._find(line)
        if entry is not None:
            cache_set.remove(entry)
        return entry

    def invalidate_all(self):
        removed = sum(len(cache_set) for cache_set in self.sets)
        self.sets = [[] for _ in range(self.num_sets)]
        return removed

    def __len__(self):
        return sum(len(cache_set) for cache_set in self.sets)

    def entries(self):
        return [entry for cache_set in self.sets for entry in cache_set]


def _fields(entry):
    if entry is None:
        return None
    return (entry.line_addr, entry.state, entry.dirty, entry.virtual_page)


_LINES = st.integers(min_value=0, max_value=23).map(lambda index: index * 16)
_CACHE_OPS = st.one_of(
    st.tuples(st.just("insert"), _LINES, st.sampled_from(list(CoherenceState)),
              st.booleans(), st.one_of(st.none(), st.integers(0, 7))),
    st.tuples(st.just("lookup"), _LINES, st.booleans()),
    st.tuples(st.just("peek"), _LINES),
    st.tuples(st.just("invalidate"), _LINES),
    st.tuples(st.just("invalidate_all")),
)


def test_fresh_cache_materialises_no_set():
    cache = SetAssociativeCache(64 * 1024, 16, 4)
    assert cache._sets == [None] * cache.num_sets
    assert len(cache) == 0 and list(cache.entries()) == []
    assert cache.lookup(0x40) is None and cache.peek(0x40) is None
    assert cache.invalidate(0x40) is None and cache.invalidate_all() == 0
    assert cache._sets == [None] * cache.num_sets
    cache.insert(0x40, CoherenceState.SHARED)
    assert sum(cache_set is not None for cache_set in cache._sets) == 1


@settings(max_examples=200, deadline=None)
@given(
    num_sets=st.sampled_from([1, 2, 4]),
    assoc=st.integers(min_value=1, max_value=3),
    ops=st.lists(_CACHE_OPS, max_size=60),
)
def test_lazy_sets_match_an_eager_reference(num_sets, assoc, ops):
    cache = SetAssociativeCache(num_sets * 16 * assoc, 16, assoc)
    reference = _EagerCache(num_sets, 16, assoc)
    for op in ops:
        name, args = op[0], op[1:]
        if name == "insert":
            line, state, dirty, page = args
            got = cache.insert(line, state, dirty=dirty, virtual_page=page)
            want = reference.insert(line, state, dirty=dirty, virtual_page=page)
        elif name == "lookup":
            line, touch = args
            got = cache.lookup(line, touch=touch)
            want = reference.lookup(line, touch=touch)
        else:
            got = getattr(cache, name)(*args)
            want = getattr(reference, name)(*args)
        if name == "invalidate_all":
            assert got == want
        else:
            assert _fields(got) == _fields(want), op
        assert (cache.hits, cache.misses, cache.evictions) == (
            reference.hits, reference.misses, reference.evictions)
        assert len(cache) == len(reference)
        assert ([_fields(entry) for entry in cache.entries()]
                == [_fields(entry) for entry in reference.entries()])


# --------------------------------------------------------------------------- #
# MainMemory
# --------------------------------------------------------------------------- #
def test_memory_word_roundtrip_and_default_zero():
    memory = MainMemory(MemoryConfig())
    assert memory.read_word(0x1000) == 0
    memory.write_word(0x1000, 42)
    assert memory.read_word(0x1000) == 42
    # Sub-word addresses alias onto the same word.
    assert memory.read_word(0x1004) == 42


def test_memory_read_modify_write_returns_old_value():
    memory = MainMemory(MemoryConfig())
    memory.write_word(0x2000, 5)
    old = memory.read_modify_write(0x2000, lambda v: v + 10)
    assert old == 5
    assert memory.read_word(0x2000) == 15


def test_memory_allocator_alignment_and_disjointness():
    memory = MainMemory(MemoryConfig())
    a = memory.allocate(100)
    b = memory.allocate(100)
    assert a % 16 == 0 and b % 16 == 0
    assert b >= a + 100
    c = memory.allocate(8, align=64)
    assert c % 64 == 0
