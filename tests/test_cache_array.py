"""Unit and property tests for the generic set-associative array."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.memsys.cache_array import CacheArray


def make(num_sets=4, ways=2, divisor=1, offset=0):
    return CacheArray(num_sets=num_sets, ways=ways, block_size=64,
                      index_divisor=divisor, index_offset=offset)


class TestBasicOperations:
    def test_miss_then_hit(self):
        c = make()
        assert c.lookup(0x1000) is None
        c.fill(0x1000, "payload")
        entry = c.lookup(0x1000)
        assert entry is not None
        assert entry.payload == "payload"

    def test_fill_duplicate_rejected(self):
        c = make()
        c.fill(0x1000, "a")
        with pytest.raises(ValueError):
            c.fill(0x1000, "b")

    def test_invalidate(self):
        c = make()
        c.fill(0x1000, "a")
        assert c.invalidate(0x1000) == "a"
        assert c.lookup(0x1000) is None
        assert c.invalidate(0x1000) is None

    def test_contains(self):
        c = make()
        c.fill(0x2000, "x")
        assert 0x2000 in c
        assert 0x3000 not in c

    def test_ways_holding(self):
        # 4 sets of 64-byte blocks: 0x000, 0x100 and 0x200 share set 0.
        c = make()
        c.fill(0x000, "a")
        c.fill(0x100, "b")
        c.fill(0x040, "other set")
        ways = {0x000: c.peek(0x000).way, 0x100: c.peek(0x100).way}
        # Blocks of other sets and non-resident blocks protect nothing.
        assert c.ways_holding(0x200, [0x100, 0x040, 0x300]) == [ways[0x100]]
        assert c.ways_holding(0x200, {0x000: 1, 0x100: 2}) == \
            [ways[0x000], ways[0x100]]
        assert c.ways_holding(0x200, []) == []

    def test_len_and_occupancy(self):
        c = make()
        assert len(c) == 0
        c.fill(0, "a")
        c.fill(64, "b")
        assert len(c) == 2
        assert c.occupancy() == 2 / 8

    def test_peek_does_not_count(self):
        c = make()
        c.fill(0, "a")
        before = c.lookups
        c.peek(0)
        assert c.lookups == before


class TestEviction:
    def test_eviction_returns_victim(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        evicted = c.fill(128, "c")
        assert evicted is not None
        assert evicted.payload == "a"  # LRU
        assert c.addr_of(evicted) == 0

    def test_evicted_block_leaves_the_index(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        c.fill(128, "c")
        assert c.peek(0) is None and 0 not in c
        assert c.lookup(0) is None
        assert c.peek(128).payload == "c"
        assert len(c) == 2

    def test_lru_respects_touch(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        c.lookup(0)  # touch a
        evicted = c.fill(128, "c")
        assert evicted.payload == "b"

    def test_protected_way_survives(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        way_a = c.peek(0).way
        evicted = c.fill(128, "c", protected=[way_a])
        assert evicted.payload == "b"

    def test_no_eviction_with_free_way(self):
        c = make(num_sets=1, ways=4)
        for i in range(3):
            assert c.fill(i * 64, i) is None


class TestSlicedIndexing:
    """A slice sees only blocks ≡ offset (mod divisor); indexing must use
    the slice-local block number or all blocks land in one set."""

    def test_slice_blocks_spread_over_sets(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=3)
        # Blocks of slice 3: numbers 3, 11, 19, 27 -> local 0,1,2,3
        sets = [c.set_index_of((3 + 8 * k) * 64) for k in range(4)]
        assert sets == [0, 1, 2, 3]

    def test_addr_of_roundtrip_sliced(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=5)
        for k in range(8):
            addr = (5 + 8 * k) * 64
            c.fill(addr, k)
            assert c.addr_of(c.peek(addr)) == addr

    def test_fill_rejects_foreign_addresses(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=5)
        with pytest.raises(ValueError):
            c.fill(5 * 64 + 8, "unaligned")
        with pytest.raises(ValueError):
            c.fill(4 * 64, "other slice")
        assert len(c) == 0

    def test_capacity_usable(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=0)
        # 8 slice-local blocks fill all 8 frames without eviction.
        for k in range(8):
            assert c.fill(8 * k * 64, k) is None
        assert len(c) == 8


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_property_capacity_never_exceeded(blocks):
    c = make(num_sets=4, ways=2)
    for b in blocks:
        addr = b * 64
        if c.peek(addr) is None:
            c.fill(addr, b)
    assert len(c) <= 8
    per_set = {}
    for entry in c.iter_valid():
        per_set.setdefault(entry.set_index, []).append(entry)
    assert all(len(v) <= 2 for v in per_set.values())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_property_addr_of_roundtrips(blocks):
    c = make(num_sets=8, ways=4)
    for b in blocks:
        addr = b * 64
        if c.peek(addr) is None:
            c.fill(addr, b)
    for entry in c.iter_valid():
        addr = c.addr_of(entry)
        assert c.peek(addr) is entry
        assert entry.payload == addr // 64


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=31)),
                min_size=1, max_size=300))
def test_property_fill_invalidate_consistency(ops):
    """Random fill/invalidate interleavings keep the tag store and the
    address index consistent, on a plain and on a sliced array."""
    for divisor, offset in ((1, 0), (8, 5)):
        c = make(num_sets=2, ways=4, divisor=divisor, offset=offset)
        domain = [(offset + divisor * b) * 64 for b in range(32)]
        resident = set()
        for is_fill, b in ops:
            addr = domain[b]
            if is_fill:
                if c.peek(addr) is None:
                    evicted = c.fill(addr, b)
                    resident.add(addr)
                    if evicted is not None:
                        resident.discard(c.addr_of(evicted))
            else:
                c.invalidate(addr)
                resident.discard(addr)
            for a in domain:
                entry = c.peek(a)
                assert (entry is not None) == (a in resident) == (a in c)
                if entry is not None:
                    assert entry.valid and c.addr_of(entry) == a
                assert c.lookup(a, touch=False) is entry
            assert len(c) == len(resident)
        assert {c.addr_of(e) for e in c.iter_valid()} == resident
