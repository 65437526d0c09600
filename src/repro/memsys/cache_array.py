"""A generic set-associative LRU array.

Used for the L1 data cache, the LLC, and the SAM metadata table — anything
that maps a block address to a payload with bounded associativity and LRU
replacement.

Each set is one insertion-ordered ``block_addr -> payload`` dict kept in
recency order: a hit moves its block to the end, so the first key is the
least recently used block and a fill appends.  A set with fewer than
``ways`` keys has a free way, so an invalidated block's slot is refilled
before anything is evicted.

Two hot-path properties:

* **Lazy sets** — a 16 MB LLC has ~16K sets; building them eagerly dominated
  cold-run machine construction.  A set's dict materializes on first fill,
  so untouched sets cost nothing and a probe of one is a single ``None``
  check.
* **Shift/mask indexing** — when block size, slice interleave and set count
  are powers of two (every shipped configuration), set extraction is one
  shift and one mask instead of two divisions and a modulo; the division
  path remains as the general fallback.
"""

from __future__ import annotations

from typing import (Container, Dict, Generic, Iterator, List, Optional, Tuple,
                    TypeVar)

T = TypeVar("T")


def _pow2_bits(value: int) -> Optional[int]:
    """``log2(value)`` when ``value`` is a power of two, else None."""
    if value >= 1 and value & (value - 1) == 0:
        return value.bit_length() - 1
    return None


class CacheArray(Generic[T]):
    """Set-associative LRU storage of payloads indexed by block address.

    The array hashes a block address to a set using the block number modulo
    the set count (after dropping slice-interleaving handled by callers).
    Addresses are block base addresses of this array's slice (block number
    ``index_offset`` modulo ``index_divisor``); :meth:`fill` rejects others.
    Payloads must not be None: :meth:`lookup` and :meth:`peek` return None
    on a miss.
    """

    def __init__(
        self,
        num_sets: int,
        ways: int,
        block_size: int,
        index_divisor: int = 1,
        index_offset: int = 0,
    ) -> None:
        if num_sets < 1:
            raise ValueError("num_sets must be >= 1")
        if ways < 1:
            raise ValueError("ways must be >= 1")
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
        # granularities are powers of two the set index is shift+mask.
        local_bits = _pow2_bits(block_size * index_divisor)
        if local_bits is not None and _pow2_bits(num_sets) is not None:
            self._local_shift: Optional[int] = local_bits
            self._set_mask = num_sets - 1
        else:
            self._local_shift = None
            self._set_mask = 0
        #: Per-set ``block_addr -> payload`` in LRU-first order; a set
        #: materializes on its first fill.
        self._sets: List[Optional[Dict[int, T]]] = [None] * num_sets

    # -- indexing -----------------------------------------------------------

    def set_index_of(self, block_addr: int) -> int:
        if self._local_shift is not None:
            return (block_addr >> self._local_shift) & self._set_mask
        return ((block_addr // self.block_size) // self.index_divisor
                % self.num_sets)

    # -- operations ---------------------------------------------------------

    def lookup(self, block_addr: int) -> Optional[T]:
        """Return the payload of ``block_addr`` (or None) and make it the
        set's most recently used block."""
        shift = self._local_shift
        s = self._sets[(block_addr >> shift) & self._set_mask
                       if shift is not None
                       else self.set_index_of(block_addr)]
        if s is None:
            return None
        payload = s.pop(block_addr, None)
        if payload is not None:
            s[block_addr] = payload
        return payload

    def peek(self, block_addr: int) -> Optional[T]:
        """Return the payload of ``block_addr`` (or None) without touching
        replacement state."""
        shift = self._local_shift
        s = self._sets[(block_addr >> shift) & self._set_mask
                       if shift is not None
                       else self.set_index_of(block_addr)]
        return None if s is None else s.get(block_addr)

    def choose_victim(
        self, block_addr: int, protected: Container[int] = ()
    ) -> Optional[Tuple[int, T]]:
        """The ``(block_addr, payload)`` a fill of ``block_addr`` would
        evict, or None when its set has a free way.  The victim is the
        least recently used block not in ``protected`` (blocks with
        in-flight transactions), or the LRU block if all are protected."""
        s = self._sets[self.set_index_of(block_addr)]
        if s is None or len(s) < self.ways:
            return None
        for block in s:
            if block not in protected:
                return block, s[block]
        block = next(iter(s))
        return block, s[block]

    def fill(
        self,
        block_addr: int,
        payload: T,
        protected: Container[int] = (),
    ) -> Optional[Tuple[int, T]]:
        """Insert ``block_addr`` as its set's most recently used block;
        return the evicted ``(block_addr, payload)`` (or None)."""
        if block_addr % self.block_size or (
                block_addr // self.block_size % self.index_divisor
                != self.index_offset):
            raise ValueError(
                f"{block_addr:#x} is not a block address of this array")
        set_index = self.set_index_of(block_addr)
        s = self._sets[set_index]
        if s is None:
            s = self._sets[set_index] = {}
        elif block_addr in s:
            raise ValueError(f"block {block_addr:#x} already present")
        victim = self.choose_victim(block_addr, protected)
        if victim is not None:
            del s[victim[0]]
        s[block_addr] = payload
        return victim

    def invalidate(self, block_addr: int) -> Optional[T]:
        """Remove ``block_addr``; return its payload if it was present."""
        s = self._sets[self.set_index_of(block_addr)]
        return None if s is None else s.pop(block_addr, None)

    def __contains__(self, block_addr: int) -> bool:
        return self.peek(block_addr) is not None

    def __len__(self) -> int:
        return sum(len(s) for s in self._sets if s is not None)

    def items(self) -> Iterator[Tuple[int, T]]:
        """Resident ``(block_addr, payload)`` pairs, set by set, each set
        least recently used first."""
        for s in self._sets:
            if s is not None:
                yield from s.items()
