"""Unit and property tests for the generic set-associative LRU array."""

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
        assert c.lookup(0x1000) == "payload"

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

    def test_len(self):
        c = make()
        assert len(c) == 0
        c.fill(0, "a")
        c.fill(64, "b")
        assert len(c) == 2

    def test_peek_does_not_count(self):
        """A peek is not a use: it leaves the LRU order alone."""
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        assert c.peek(0) == "a"
        assert c.choose_victim(128) == (0, "a")

    def test_geometry_validated(self):
        with pytest.raises(ValueError):
            make(ways=0)
        with pytest.raises(ValueError):
            make(num_sets=0)


class TestEviction:
    def test_eviction_returns_victim(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        assert c.fill(128, "c") == (0, "a")  # LRU

    def test_evicted_block_leaves_the_index(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        c.fill(128, "c")
        assert c.peek(0) is None and 0 not in c
        assert c.lookup(0) is None
        assert c.peek(128) == "c"
        assert len(c) == 2

    def test_lru_respects_touch(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        c.lookup(0)  # touch a
        assert c.fill(128, "c") == (64, "b")

    def test_protected_way_survives(self):
        c = make(num_sets=1, ways=2)
        c.fill(0, "a")
        c.fill(64, "b")
        assert c.fill(128, "c", protected={0: "in flight"}) == (64, "b")

    def test_protection_by_blocks(self):
        # 4 sets of 64-byte blocks: 0x000, 0x100 and 0x200 share set 0.
        c = make()
        c.fill(0x000, "a")
        c.fill(0x100, "b")
        c.fill(0x040, "other set")
        # Blocks of other sets and non-resident blocks protect nothing.
        assert c.choose_victim(0x200, [0x040, 0x300]) == (0x000, "a")
        assert c.choose_victim(0x200, {0x000, 0x040}) == (0x100, "b")
        assert c.choose_victim(0x200, ()) == (0x000, "a")

    def test_no_eviction_with_free_way(self):
        c = make(num_sets=1, ways=4)
        for i in range(3):
            assert c.fill(i * 64, i) is None
        assert c.choose_victim(3 * 64) is None


class TestLru:
    """Victim choice: the least recently filled-or-hit block of the set."""

    @staticmethod
    def full(blocks, ways=4):
        c = make(num_sets=1, ways=ways)
        for b in blocks:
            c.fill(b * 64, b)
        return c

    def test_untouched_is_victim(self):
        c = self.full([0, 1, 2, 3])
        for b in (1, 2, 3):
            c.lookup(b * 64)
        assert c.choose_victim(4 * 64) == (0, 0)

    def test_least_recent_evicted(self):
        c = self.full([0, 1, 2, 3])
        for b in (0, 1):
            c.lookup(b * 64)
        assert c.fill(4 * 64, 4) == (2 * 64, 2)

    def test_protected_skipped(self):
        c = self.full([0, 1, 2, 3])
        assert c.choose_victim(4 * 64, protected={0}) == (64, 1)

    def test_all_protected_falls_back(self):
        c = self.full([0, 1], ways=2)
        assert c.choose_victim(2 * 64, protected={0, 64}) == (0, 0)

    def test_invalidated_slot_refilled_first(self):
        c = self.full([0, 1, 2, 3])
        c.invalidate(3 * 64)
        assert c.choose_victim(4 * 64) is None
        assert c.fill(4 * 64, 4) is None
        assert c.fill(5 * 64, 5) == (0, 0)

    @settings(deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=11), min_size=1,
                    max_size=50))
    def test_victim_is_never_most_recent(self, uses):
        c = make(num_sets=1, ways=8)
        for b in uses:
            if c.lookup(b * 64) is None:
                c.fill(b * 64, b)
        victim = c.choose_victim(12 * 64)
        assert victim is None or victim[0] != uses[-1] * 64


class TestSlicedIndexing:
    """A slice sees only blocks ≡ offset (mod divisor); indexing must use
    the slice-local block number or all blocks land in one set."""

    def test_slice_blocks_spread_over_sets(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=3)
        # Blocks of slice 3: numbers 3, 11, 19, 27 -> local 0,1,2,3
        sets = [c.set_index_of((3 + 8 * k) * 64) for k in range(4)]
        assert sets == [0, 1, 2, 3]

    def test_items_roundtrip_sliced(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=5)
        filled = {}
        for k in range(8):
            addr = (5 + 8 * k) * 64
            c.fill(addr, k)
            filled[addr] = k
        assert dict(c.items()) == filled

    def test_fill_rejects_foreign_addresses(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=5)
        with pytest.raises(ValueError):
            c.fill(5 * 64 + 8, "unaligned")
        with pytest.raises(ValueError):
            c.fill(4 * 64, "other slice")
        assert len(c) == 0

    def test_capacity_usable(self):
        c = make(num_sets=4, ways=2, divisor=8, offset=0)
        # 8 slice-local blocks fill all 8 ways without eviction.
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
    for addr, _ in c.items():
        per_set.setdefault(c.set_index_of(addr), []).append(addr)
    assert all(len(v) <= 2 for v in per_set.values())


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=63), min_size=1,
                max_size=200))
def test_property_items_roundtrip(blocks):
    c = make(num_sets=8, ways=4)
    for b in blocks:
        addr = b * 64
        if c.peek(addr) is None:
            c.fill(addr, b)
    for addr, payload in c.items():
        assert c.peek(addr) is payload
        assert payload == addr // 64


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.integers(min_value=0, max_value=31)),
                min_size=1, max_size=300))
def test_property_fill_invalidate_consistency(ops):
    """Random fill/invalidate interleavings keep every probe (peek,
    lookup, ``in``, ``len``, ``items``) consistent, on a plain and on a
    sliced array."""
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
                        resident.discard(evicted[0])
            else:
                c.invalidate(addr)
                resident.discard(addr)
            for a in domain:
                payload = c.peek(a)
                assert (payload is not None) == (a in resident) == (a in c)
                if payload is not None:
                    assert payload == domain.index(a)
            assert len(c) == len(resident)
        assert {a for a, _ in c.items()} == resident


# -- equivalence with the way-frame LRU array it replaced ------------------

class WayFrameLru:
    """Reference model: per-set way frames, a recency stack of ways (LRU
    first, invalidated ways demoted), a flat ``block -> (set, way)`` index,
    and free ways refilled before the stack is consulted."""

    def __init__(self, num_sets, ways, divisor, offset):
        self.num_sets, self.divisor = num_sets, divisor
        self.frames = [[None] * ways for _ in range(num_sets)]
        self.stacks = [list(range(ways)) for _ in range(num_sets)]
        self.index = {}

    def _touch(self, s, w, front=False):
        stack = self.stacks[s]
        stack.remove(w)
        stack.insert(0 if front else len(stack), w)

    def lookup(self, addr, touch=True):
        loc = self.index.get(addr)
        if loc is None:
            return None
        if touch:
            self._touch(*loc)
        return self.frames[loc[0]][loc[1]][1]

    def _victim_way(self, addr, protected):
        s = addr // 64 // self.divisor % self.num_sets
        frames = self.frames[s]
        if None in frames:
            return s, frames.index(None)
        ways = {w for w, f in enumerate(frames) if f[0] in protected}
        stack = self.stacks[s]
        return s, next((w for w in stack if w not in ways), stack[0])

    def choose_victim(self, addr, protected=()):
        s, w = self._victim_way(addr, protected)
        return self.frames[s][w]

    def fill(self, addr, payload, protected=()):
        s, w = self._victim_way(addr, protected)
        victim = self.frames[s][w]
        if victim is not None:
            del self.index[victim[0]]
        self.frames[s][w] = (addr, payload)
        self.index[addr] = (s, w)
        self._touch(s, w)
        return victim

    def invalidate(self, addr):
        loc = self.index.pop(addr, None)
        if loc is None:
            return None
        s, w = loc
        payload = self.frames[s][w][1]
        self.frames[s][w] = None
        self._touch(s, w, front=True)
        return payload


GEOMETRIES = {
    "plain": dict(num_sets=2, ways=4, divisor=1, offset=0),
    "sliced": dict(num_sets=2, ways=4, divisor=8, offset=5),
    "non-pow2": dict(num_sets=3, ways=3, divisor=1, offset=0),
}

OPS = st.lists(st.tuples(
    st.sampled_from(["fill", "lookup", "invalidate", "fill-protected",
                     "fill-all-protected"]),
    st.integers(min_value=0, max_value=23),
    st.integers(min_value=0, max_value=(1 << 24) - 1)),
    min_size=1, max_size=80)


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@settings(max_examples=200, deadline=None)
@given(ops=OPS)
def test_matches_way_frame_lru(geometry, ops):
    """Op for op, the dict-per-set array picks the same victims, holds the
    same blocks and answers the same peeks as the way-frame array."""
    g = GEOMETRIES[geometry]
    c = make(**g)
    ref = WayFrameLru(g["num_sets"], g["ways"], g["divisor"], g["offset"])
    domain = [(g["offset"] + g["divisor"] * b) * 64 for b in range(24)]
    for n, (kind, b, mask) in enumerate(ops):
        addr = domain[b]
        protected = {a for i, a in enumerate(domain)
                     if kind == "fill-all-protected"
                     or kind == "fill-protected" and mask >> i & 1}
        if kind == "lookup":
            assert c.lookup(addr) == ref.lookup(addr)
        elif kind == "invalidate":
            assert c.invalidate(addr) == ref.invalidate(addr)
        elif c.peek(addr) is None:
            assert (c.choose_victim(addr, protected)
                    == ref.choose_victim(addr, protected))
            assert (c.fill(addr, (b, n), protected)
                    == ref.fill(addr, (b, n), protected))
        assert {a for a, _ in c.items()} == set(ref.index)
        assert [c.peek(a) for a in domain] == \
            [ref.lookup(a, touch=False) for a in domain]
