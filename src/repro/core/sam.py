"""Shared access metadata (SAM) table — Section IV, Figure 5b.

One SAM table per LLC/directory slice, organised as a small set-associative
cache (8 sets x 16 ways by default) with LRU replacement. An entry tracks,
per granule of the block, the valid *last writer* core and the reader set,
plus a block-level TS (true-sharing) bit. Both are stored as per-core
granule masks:

* ``writes[c]`` holds the granules whose last writer is core ``c`` (the
  masks are pairwise disjoint);
* ``reads[c]`` holds the granules core ``c`` read — the full reader
  bit-vector of the basic design. Under the *last reader + overflow*
  encoding of the Section VI optimization it holds the granules whose last
  reader is ``c`` (again disjoint), and one ``overflow`` mask marks the
  granules read by more than one core.

The two encodings differ only in how reads are recorded. The per-granule
last-writer map the termination merge needs is derived on demand
(:meth:`SamEntry.last_writer_map`).

The entry exposes the paper's three conflict predicates:

* :meth:`update_from_md` — REP_MD ingestion with the Section IV true-sharing
  conditions,
* :meth:`check_write` / :meth:`check_read` — the PRV-state GetXCHK / GetCHK
  conditions of Section V-B.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.common.bitvec import iter_set_bits
from repro.memsys.cache_array import CacheArray


def _union_except(masks: List[int], core: int) -> int:
    """OR of every core's mask but ``core``'s."""
    out = 0
    for other, mask in enumerate(masks):
        if other != core:
            out |= mask
    return out


@dataclass
class SamEntry:
    """Per-block shared access metadata as per-core granule masks."""

    num_granules: int
    num_cores: int
    #: Last-reader + overflow encoding instead of a full reader bit-vector.
    reader_opt: bool = False
    ts: bool = False
    #: Granules involved in the most recent update_from_md conflict.
    last_conflict_mask: int = 0
    last_conflict_write: bool = False
    #: Per-core granule masks and the reader-opt overflow mask (see the
    #: module docstring).
    writes: List[int] = field(default_factory=list)
    reads: List[int] = field(default_factory=list)
    overflow: int = 0

    def __post_init__(self) -> None:
        self.writes = [0] * self.num_cores
        self.reads = [0] * self.num_cores

    # -- mask primitives ------------------------------------------------------

    def _add_writes(self, core: int, gmask: int) -> None:
        """Make ``core`` the last writer of ``gmask``'s granules."""
        if gmask:
            keep = ~gmask
            self.writes = [mask & keep for mask in self.writes]
            self.writes[core] |= gmask

    def _add_reads(self, core: int, gmask: int) -> None:
        """Add ``core`` to the reader set of ``gmask``'s granules. Under
        reader_opt it becomes their last reader, and a granule whose last
        reader was another core overflows."""
        if self.reader_opt and gmask:
            self.overflow |= gmask & _union_except(self.reads, core)
            keep = ~gmask
            self.reads = [mask & keep for mask in self.reads]
        self.reads[core] |= gmask

    def _foreign_reads(self, core: int) -> int:
        """Granules some core other than ``core`` may have read (every
        overflowed granule, under reader_opt)."""
        return _union_except(self.reads, core) | self.overflow

    # -- REP_MD ingestion (FSDetect true-sharing conditions, Section IV) ----

    def update_from_md(self, core: int, read_bits: int, write_bits: int) -> bool:
        """Merge a PAM entry received from ``core``; return True if a true
        sharing was detected (TS bit is set as a side effect).

        A granule b is truly shared iff:
          (i)  b is read-only in the incoming metadata and there is a valid
               last writer C' != core, or
          (ii) b is written in the incoming metadata and either the last
               writer differs from core or some other core has read b.

        ``last_conflict_mask`` / ``last_conflict_write`` expose the
        conflicting granules afterwards (for the Section VII region-conflict
        reporting extension).
        """
        valid = (1 << self.num_granules) - 1
        read_bits &= valid
        write_bits &= valid
        foreign_writes = _union_except(self.writes, core)
        write_conflict = write_bits & (foreign_writes
                                       | self._foreign_reads(core))
        self.last_conflict_mask = (write_conflict
                                   | read_bits & ~write_bits & foreign_writes)
        self.last_conflict_write = bool(write_conflict)
        # Merge after checking so a core's own prior accesses never conflict
        # with its fresh metadata.
        self._add_writes(core, write_bits)
        self._add_reads(core, read_bits)
        if self.last_conflict_mask:
            self.ts = True
        return bool(self.last_conflict_mask)

    # -- PRV-state conflict checks (Section V-B) -----------------------------

    def check_write(self, core: int, gmask: int) -> bool:
        """GetXCHK predicate: every granule in ``gmask`` must have either no
        valid last writer and readers within {core}, or last writer == core."""
        blocked = (_union_except(self.writes, core)
                   | self._foreign_reads(core) & ~self.writes[core])
        return not gmask & blocked

    def check_read(self, core: int, gmask: int) -> bool:
        """GetCHK predicate: every granule must have no valid last writer or
        last writer == core."""
        return not gmask & _union_except(self.writes, core)

    # The directory's PRV bookkeeping. update_from_md calls the primitives
    # directly, so a patched record_* (mutation testing) leaves REP_MD
    # ingestion intact.
    record_write = _add_writes
    record_read = _add_reads

    # -- derived views ------------------------------------------------------

    def reader_cores(self, granule: int) -> Set[int]:
        """Precise reader set (full mode); the last reader under reader_opt."""
        return {core for core, mask in enumerate(self.reads)
                if mask >> granule & 1}

    def cores(self) -> Set[int]:
        """Every core recorded as a last writer or reader of any granule."""
        return {core for core in range(self.num_cores)
                if self.writes[core] | self.reads[core]}

    def last_writer_map(self) -> List[Optional[int]]:
        """Per-granule last writer (None: no valid writer), for merges."""
        lw: List[Optional[int]] = [None] * self.num_granules
        for core, mask in enumerate(self.writes):
            for granule in iter_set_bits(mask):
                lw[granule] = core
        return lw

    # -- lifecycle ------------------------------------------------------------

    def clear(self) -> None:
        """Reset all byte metadata and the TS bit (Section VI resets, and the
        beginning/end of a privatized episode)."""
        self.ts = False
        self.writes = [0] * self.num_cores
        self.reads = [0] * self.num_cores
        self.overflow = 0

    def entry_bits(self) -> int:
        """Storage cost in bits, matching the paper's accounting.

        Basic design: (C + 1 + log2 C) bits per byte-granule + TS.
        Reader-opt:   (log2 C + 2) reader bits + (1 + log2 C) writer bits.
        """
        log_c = max(1, (self.num_cores - 1).bit_length())
        writer_bits = 1 + log_c
        if self.reader_opt:
            reader_bits = log_c + 2
        else:
            reader_bits = self.num_cores
        return (writer_bits + reader_bits) * self.num_granules + 1


class SamTable:
    """Set-associative SAM table for one LLC/directory slice."""

    def __init__(
        self,
        sets: int,
        ways: int,
        block_size: int,
        num_granules: int,
        num_cores: int,
        reader_opt: bool = False,
        index_divisor: int = 1,
        index_offset: int = 0,
    ) -> None:
        self.num_granules = num_granules
        self.num_cores = num_cores
        self.reader_opt = reader_opt
        self._array: CacheArray[SamEntry] = CacheArray(
            num_sets=sets, ways=ways, block_size=block_size,
            index_divisor=index_divisor, index_offset=index_offset)
        self.valid_replacements = 0
        self.allocations = 0

    def get(self, block_addr: int) -> Optional[SamEntry]:
        return self._array.lookup(block_addr)

    def peek(self, block_addr: int) -> Optional[SamEntry]:
        return self._array.peek(block_addr)

    def allocate(self, block_addr: int):
        """Allocate an entry for ``block_addr``.

        Returns ``(entry, evicted_block_addr, evicted_entry)`` where the
        eviction fields are None when a free way was available. The caller
        (directory) must terminate privatization if the victim belonged to a
        privatized block (Section V-C, "Eviction of SAM Table Entry").
        """
        existing = self._array.peek(block_addr)
        if existing is not None:
            return existing, None, None
        payload = SamEntry(
            num_granules=self.num_granules,
            num_cores=self.num_cores,
            reader_opt=self.reader_opt,
        )
        evicted = self._array.fill(block_addr, payload)
        self.allocations += 1
        if evicted is None:
            return payload, None, None
        self.valid_replacements += 1
        return (payload, *evicted)

    def invalidate(self, block_addr: int) -> Optional[SamEntry]:
        return self._array.invalidate(block_addr)

    def resident_blocks(self) -> List[int]:
        """Sorted resident block addresses (used by :mod:`repro.faults` for
        deterministic fault targeting)."""
        return sorted(block for block, _ in self._array.items())

    def __contains__(self, block_addr: int) -> bool:
        return block_addr in self._array

    @property
    def replacement_rate(self) -> float:
        """Fraction of allocations that replaced a valid entry (paper: ~0.13%
        with the default 128-entry table)."""
        if self.allocations == 0:
            return 0.0
        return self.valid_replacements / self.allocations

    def entry_bits(self) -> int:
        probe = SamEntry(self.num_granules, self.num_cores, self.reader_opt)
        return probe.entry_bits()
