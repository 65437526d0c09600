"""Injected protocol mutations for testing the checker itself.

Each mutation is a context manager that monkey-patches one protocol
mechanism into a subtly broken variant — the kind of bug the sanitizer and
fuzzer exist to catch. They are used by ``repro fuzz --mutate`` and the
shrinker unit tests to demonstrate that every mutation is (a) detected and
(b) shrinkable to a minimal reproducing schedule.

All patches restore the original behaviour on exit, so a mutation can wrap
a single fuzz run without poisoning the process.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, ContextManager, Dict, Iterator


@contextmanager
def merge_drop_granule() -> Iterator[None]:
    """Termination merges silently skip the writer's first owned granule.

    Models a byte-enable bug in the Prv_WB merge path (paper Section V-C):
    one granule of one core's privatized writes is lost at termination.
    Detected as a final-image mismatch (and by merge property tests).
    """
    import repro.coherence.directory as directory

    original = directory.merge_block

    def mutated(llc_data, incoming, core, last_writer_map, granularity=1):
        before = bytes(llc_data)
        original(llc_data, incoming, core, last_writer_map, granularity)
        for granule, writer in enumerate(last_writer_map):
            if writer == core:
                lo = granule * granularity
                llc_data[lo:lo + granularity] = before[lo:lo + granularity]
                break

    directory.merge_block = mutated
    try:
        yield
    finally:
        directory.merge_block = original


@contextmanager
def chk_write_always_passes() -> Iterator[None]:
    """The GetXCHK conflict predicate never reports a conflict.

    Models a broken Section V-B write check: concurrent writers to the same
    granule all believe they own it, keep privatized copies, and apply RMWs
    to stale values. Detected as lost updates in the final image (and often
    first by the sanitizer's ``prv-pam`` byte-disjointness invariant).
    """
    from repro.core.sam import SamEntry

    original = SamEntry.check_write
    SamEntry.check_write = lambda self, core, gmask: True
    try:
        yield
    finally:
        SamEntry.check_write = original


@contextmanager
def pam_reads_count_as_writes() -> Iterator[None]:
    """The PAM records every access as a write.

    Breaks byte-disjointness bookkeeping: a core's PAM claims write
    coverage of granules whose SAM last writer is someone else (or nobody),
    so a later covered "write hit" would bypass the GetXCHK conflict check.
    Detected by the sanitizer's ``prv-pam`` invariant.
    """
    from repro.coherence.l1_controller import L1Controller
    from repro.cpu.ops import OpKind

    original = L1Controller._perform

    def mutated(self, block, line, op):
        pentry = self.pam.get(block) if self._detects else None
        if pentry is None or op.kind is OpKind.STORE:
            return original(self, block, line, op)
        read_bits = pentry.read_bits
        result = original(self, block, line, op)
        pentry.read_bits = read_bits
        pentry.write_bits |= self.pam.to_granule_mask(
            ((1 << op.size) - 1) << (op.addr & self._offset_mask))
        return result

    L1Controller._perform = mutated
    try:
        yield
    finally:
        L1Controller._perform = original


@contextmanager
def sam_drops_writes() -> Iterator[None]:
    """The SAM never records PRV writers.

    With an all-``None`` last-writer map every conflict check passes and
    the termination merge keeps only stale LLC bytes — privatized stores
    are lost wholesale. Detected by ``prv-pam`` (write bits with no
    recorded writer) before the final image even gets a chance to differ.
    """
    from repro.core.sam import SamEntry

    original = SamEntry.record_write
    SamEntry.record_write = lambda self, core, gmask: None
    try:
        yield
    finally:
        SamEntry.record_write = original


@contextmanager
def counters_never_saturate() -> Iterator[None]:
    """FC/IC ignore their saturation limit (7-bit counters, Figure 5c).

    The counters grow without bound, violating the sanitizer's
    ``counter-bounds`` sweep once they pass ``counter_max``.
    """
    from repro.core.counters import DirEntryMeta

    original = DirEntryMeta._saturate_reset
    DirEntryMeta._saturate_reset = lambda self: None
    try:
        yield
    finally:
        DirEntryMeta._saturate_reset = original


MUTATIONS: Dict[str, Callable[[], ContextManager]] = {
    "merge-drop-granule": merge_drop_granule,
    "chk-write-always-passes": chk_write_always_passes,
    "pam-reads-count-as-writes": pam_reads_count_as_writes,
    "sam-drops-writes": sam_drops_writes,
    "counters-never-saturate": counters_never_saturate,
}


def mutation_context(name: str | None) -> ContextManager:
    """Resolve a mutation by name; ``None`` yields a no-op context."""
    from contextlib import nullcontext

    if name is None:
        return nullcontext()
    try:
        return MUTATIONS[name]()
    except KeyError:
        raise KeyError(
            f"unknown mutation {name!r}; available: "
            f"{', '.join(sorted(MUTATIONS))}") from None
