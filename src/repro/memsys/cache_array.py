"""A generic set-associative array.

Used for the L1 data cache, the LLC, and the SAM metadata table — anything
that maps a block address to an entry with bounded associativity and a
replacement policy. Entries are user-defined objects attached to a
:class:`CacheEntry` frame that carries the tag and validity.

Three hot-path properties:

* **Address index** — a ``block_addr -> entry`` dict, maintained by
  :meth:`CacheArray.fill` and :meth:`CacheArray.invalidate`, answers
  :meth:`CacheArray.lookup`/:meth:`CacheArray.peek` with one probe instead
  of a tag scan over the set's ways.
* **Lazy sets** — a 16 MB LLC is ~256K entry frames; building them eagerly
  dominated cold-run machine construction.  A set's frames and replacement
  policy materialize on first touch, so untouched sets cost nothing and a
  peek into one is a single ``None`` check.
* **Shift/mask indexing** — when block size, slice interleave and set count
  are powers of two (every shipped configuration), tag/set extraction is
  one shift and one mask instead of two divisions and a modulo; the
  division path remains as the general fallback.  Only fills and victim
  choice index by set; hits never do.
"""

from __future__ import annotations

from functools import partial
from typing import (Callable, Dict, Generic, Iterable, Iterator, List,
                    Optional, Sequence, TypeVar)

from repro.memsys.replacement import ReplacementPolicy, make_policy

T = TypeVar("T")


def _pow2_bits(value: int) -> Optional[int]:
    """``log2(value)`` when ``value`` is a power of two, else None."""
    if value >= 1 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class CacheEntry(Generic[T]):
    """One way of one set: a tag frame plus a user payload.

    ``__slots__``: large arrays hold hundreds of thousands of frames.
    """

    __slots__ = ("valid", "tag", "payload", "way", "set_index")

    def __init__(self, valid: bool = False, tag: int = -1,
                 payload: Optional[T] = None, way: int = -1,
                 set_index: int = -1) -> None:
        self.valid = valid
        self.tag = tag
        self.payload = payload
        self.way = way
        self.set_index = set_index


class CacheArray(Generic[T]):
    """Set-associative storage indexed by block address.

    The array hashes a block address to a set using the block number modulo
    the set count (after dropping slice-interleaving handled by callers).
    Addresses are block base addresses of this array's slice (block number
    ``index_offset`` modulo ``index_divisor``); :meth:`fill` rejects others.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        block_size: int,
        policy: str = "lru",
        policy_factory: Optional[Callable[[int], ReplacementPolicy]] = None,
        index_divisor: int = 1,
        index_offset: int = 0,
    ) -> None:
        if num_sets < 1:
            raise ValueError("num_sets must be >= 1")
        self.num_sets = num_sets
        self.ways = ways
        self.block_size = block_size
        #: Sliced structures (LLC slices, SAM tables) see only blocks whose
        #: number is ``index_offset`` modulo ``index_divisor``; indexing by
        #: the slice-local block number keeps all sets usable.
        self.index_divisor = index_divisor
        self.index_offset = index_offset
        # local_block = (addr // block_size) // index_divisor
        #             = addr // (block_size * index_divisor); when all three
        # granularities are powers of two the set/tag split is shift+mask.
        local_bits = _pow2_bits(block_size * index_divisor)
        set_bits = _pow2_bits(num_sets)
        if local_bits is not None and set_bits is not None:
            self._local_shift: Optional[int] = local_bits
            self._set_mask = num_sets - 1
            self._tag_shift = local_bits + set_bits
        else:
            self._local_shift = None
            self._set_mask = 0
            self._tag_shift = 0
        if policy_factory is None:
            # partial (not a lambda) so the array pickles with the machine.
            policy_factory = partial(make_policy, policy)
        self._policy_factory = policy_factory
        #: Sets (and their policies) materialize on first touch.
        self._sets: List[Optional[List[CacheEntry[T]]]] = [None] * num_sets
        self._policies: List[Optional[ReplacementPolicy]] = [None] * num_sets
        #: Resident block address -> its (valid) entry.
        self._index: Dict[int, CacheEntry[T]] = {}
        # Statistics.
        self.lookups = 0
        self.hits = 0
        self.fills = 0
        self.evictions = 0
        self.valid_evictions = 0

    # -- indexing -----------------------------------------------------------

    def _local_block(self, block_addr: int) -> int:
        if self._local_shift is not None:
            return block_addr >> self._local_shift
        return (block_addr // self.block_size) // self.index_divisor

    def set_index_of(self, block_addr: int) -> int:
        if self._local_shift is not None:
            return (block_addr >> self._local_shift) & self._set_mask
        return self._local_block(block_addr) % self.num_sets

    def _tag_of(self, block_addr: int) -> int:
        if self._local_shift is not None:
            return block_addr >> self._tag_shift
        return self._local_block(block_addr) // self.num_sets

    def _materialize(self, set_index: int) -> List[CacheEntry[T]]:
        ways = [CacheEntry(way=w, set_index=set_index)
                for w in range(self.ways)]
        self._sets[set_index] = ways
        self._policies[set_index] = self._policy_factory(self.ways)
        return ways

    # -- operations ---------------------------------------------------------

    def lookup(self, block_addr: int, touch: bool = True) -> Optional[CacheEntry[T]]:
        """Return the entry holding ``block_addr`` or None. Updates stats."""
        self.lookups += 1
        entry = self._index.get(block_addr)
        if entry is not None:
            self.hits += 1
            if touch:
                self._policies[entry.set_index].touch(entry.way)
        return entry

    def peek(self, block_addr: int) -> Optional[CacheEntry[T]]:
        """Find ``block_addr`` without touching replacement state or stats."""
        return self._index.get(block_addr)

    def choose_victim(
        self, block_addr: int, protected: Sequence[int] = ()
    ) -> CacheEntry[T]:
        """Return the entry (possibly valid) to be replaced for a fill."""
        set_index = self.set_index_of(block_addr)
        ways = self._sets[set_index]
        if ways is None:
            ways = self._materialize(set_index)
        for entry in ways:
            if not entry.valid:
                return entry
        way = self._policies[set_index].victim(protected)
        return ways[way]

    def fill(
        self,
        block_addr: int,
        payload: T,
        protected: Sequence[int] = (),
    ) -> Optional[CacheEntry[T]]:
        """Insert ``block_addr``; return the evicted entry copy (or None).

        The returned object is a detached :class:`CacheEntry` snapshot of the
        victim so the caller can write back its payload; the in-array entry
        is reused for the new block.
        """
        index = self._index
        if block_addr in index:
            raise ValueError(f"block {block_addr:#x} already present")
        if block_addr % self.block_size or (
                block_addr // self.block_size % self.index_divisor
                != self.index_offset):
            raise ValueError(
                f"{block_addr:#x} is not a block address of this array")
        victim = self.choose_victim(block_addr, protected)
        evicted: Optional[CacheEntry[T]] = None
        if victim.valid:
            evicted = CacheEntry(
                valid=True,
                tag=victim.tag,
                payload=victim.payload,
                way=victim.way,
                set_index=victim.set_index,
            )
            del index[self.addr_of(victim)]
            self.evictions += 1
            self.valid_evictions += 1
        victim.valid = True
        victim.tag = self._tag_of(block_addr)
        victim.payload = payload
        index[block_addr] = victim
        self._policies[victim.set_index].touch(victim.way)
        self.fills += 1
        return evicted

    def ways_holding(self, block_addr: int,
                     blocks: Iterable[int]) -> List[int]:
        """Ways of ``block_addr``'s set that hold one of ``blocks``: the
        ``protected`` argument that keeps blocks with in-flight
        transactions out of victim choice."""
        set_index = self.set_index_of(block_addr)
        index = self._index
        return [entry.way for block in blocks
                if (entry := index.get(block)) is not None
                and entry.set_index == set_index]

    def invalidate(self, block_addr: int) -> Optional[T]:
        """Remove ``block_addr``; return its payload if it was present."""
        entry = self._index.pop(block_addr, None)
        if entry is None:
            return None
        payload = entry.payload
        entry.valid = False
        entry.tag = -1
        entry.payload = None
        self._policies[entry.set_index].reset(entry.way)
        return payload

    def addr_of(self, entry: CacheEntry[T]) -> int:
        """Reconstruct the block base address stored in ``entry``."""
        local = entry.tag * self.num_sets + entry.set_index
        block_num = local * self.index_divisor + self.index_offset
        return block_num * self.block_size

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._index

    def __len__(self) -> int:
        return len(self._index)

    def iter_valid(self) -> Iterator[CacheEntry[T]]:
        for ways in self._sets:
            if ways is None:
                continue
            for entry in ways:
                if entry.valid:
                    yield entry

    def occupancy(self) -> float:
        return len(self) / (self.num_sets * self.ways)

    def stats(self) -> dict:
        return {
            "lookups": self.lookups,
            "hits": self.hits,
            "fills": self.fills,
            "evictions": self.evictions,
        }
