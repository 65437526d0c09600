"""Unit and property tests for the SAM table (Section IV/VI, Fig. 5b)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.sam import SamEntry, SamTable


def entry(reader_opt=False, granules=8, cores=4):
    return SamEntry(num_granules=granules, num_cores=cores,
                    reader_opt=reader_opt)


class TestUpdateFromMd:
    """The Section IV true-sharing conditions."""

    def test_disjoint_writers_no_conflict(self):
        e = entry()
        assert not e.update_from_md(0, read_bits=0, write_bits=0b0001)
        assert not e.update_from_md(1, read_bits=0, write_bits=0b0010)
        assert not e.ts

    def test_write_write_same_byte_conflicts(self):
        e = entry()
        e.update_from_md(0, 0, 0b0001)
        assert e.update_from_md(1, 0, 0b0001)
        assert e.ts

    def test_read_after_foreign_write_conflicts(self):
        e = entry()
        e.update_from_md(0, 0, 0b0001)
        assert e.update_from_md(1, 0b0001, 0)
        assert e.ts

    def test_write_after_foreign_read_conflicts(self):
        e = entry()
        e.update_from_md(0, 0b0001, 0)
        assert e.update_from_md(1, 0, 0b0001)
        assert e.ts

    def test_own_read_write_no_conflict(self):
        e = entry()
        assert not e.update_from_md(0, 0b0011, 0b0011)
        assert not e.update_from_md(0, 0b0011, 0b0011)

    def test_shared_readonly_no_conflict(self):
        e = entry()
        for core in range(4):
            assert not e.update_from_md(core, 0b1111, 0)
        assert not e.ts

    def test_same_core_rewrite_no_conflict(self):
        e = entry()
        e.update_from_md(2, 0, 0b0100)
        assert not e.update_from_md(2, 0, 0b0100)


class TestPrvChecks:
    """The Section V-B GetCHK/GetXCHK predicates."""

    def test_write_ok_untouched(self):
        assert entry().check_write(0, 0b0001)

    def test_write_ok_own_last_writer(self):
        e = entry()
        e.record_write(0, 0b0001)
        assert e.check_write(0, 0b0001)

    def test_write_blocked_foreign_writer(self):
        e = entry()
        e.record_write(1, 0b0001)
        assert not e.check_write(0, 0b0001)

    def test_write_blocked_foreign_reader(self):
        e = entry()
        e.record_read(1, 0b0001)
        assert not e.check_write(0, 0b0001)

    def test_write_ok_self_reader(self):
        e = entry()
        e.record_read(0, 0b0001)
        assert e.check_write(0, 0b0001)

    def test_read_ok_no_writer(self):
        e = entry()
        e.record_read(1, 0b0001)  # readers don't block reads
        assert e.check_read(0, 0b0001)

    def test_read_blocked_foreign_writer(self):
        e = entry()
        e.record_write(1, 0b0001)
        assert not e.check_read(0, 0b0001)

    def test_read_ok_own_writer(self):
        e = entry()
        e.record_write(0, 0b0001)
        assert e.check_read(0, 0b0001)

    def test_multigranule_mask_all_must_pass(self):
        e = entry()
        e.record_write(1, 0b0010)
        assert not e.check_write(0, 0b0011)
        assert e.check_write(0, 0b0001)


class TestReaderOptEncoding:
    """Last-reader + overflow (Section VI) must be conservative: it may
    report spurious conflicts, never miss a real one."""

    def test_single_reader_tracked(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        # The single tracked reader may write its own byte...
        assert e.check_write(1, 0b0001)
        # ...but a different core may not.
        assert not e.check_write(0, 0b0001)

    def test_overflow_blocks_everyone(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        e.record_read(2, 0b0001)
        # Overflow set: even core 2 (the last reader) now sees a foreign
        # reader, which is the conservative behaviour.
        assert not e.check_write(3, 0b0001)

    def test_same_reader_twice_no_overflow(self):
        e = entry(reader_opt=True)
        e.record_read(1, 0b0001)
        e.record_read(1, 0b0001)
        assert e.check_write(1, 0b0001)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 3), st.booleans(),
                              st.integers(1, 0xFF)),
                    min_size=1, max_size=20),
           st.integers(0, 3), st.integers(1, 0xFF))
    def test_property_opt_conservative(self, history, core, mask):
        """Whenever the full encoding flags a conflict, the optimized one
        must too (on identical access histories)."""
        full, opt = entry(reader_opt=False), entry(reader_opt=True)
        for actor, is_write, m in history:
            if is_write:
                full.record_write(actor, m)
                opt.record_write(actor, m)
            else:
                full.record_read(actor, m)
                opt.record_read(actor, m)
        if not full.check_write(core, mask):
            assert not opt.check_write(core, mask)
        if not full.check_read(core, mask):
            assert not opt.check_read(core, mask)
        # Reads are writer-based only: identical in both encodings.
        assert full.check_read(core, mask) == opt.check_read(core, mask)


class TestLifecycle:
    def test_clear_resets_everything(self):
        e = entry()
        e.update_from_md(0, 0b1, 0b10)
        e.update_from_md(1, 0, 0b10)
        assert e.ts
        e.clear()
        assert not e.ts
        assert e.check_write(3, 0xFF)

    def test_last_writer_map_snapshot(self):
        e = entry()
        e.record_write(2, 0b0101)
        snap = e.last_writer_map()
        e.record_write(3, 0b0101)
        assert snap[0] == 2 and snap[2] == 2
        assert e.last_writer_map()[0] == 3


class _GranuleModel:
    """Per-granule SAM semantics, written directly from the paper's text:
    Section IV (REP_MD true-sharing conditions), Section V-B (GetCHK /
    GetXCHK) and Section VI (last reader + overflow)."""

    def __init__(self, granules, reader_opt):
        self.n, self.opt = granules, reader_opt
        self.conflict_mask, self.conflict_write = 0, False
        self.clear()

    def clear(self):
        self.ts = False
        self.writer = [None] * self.n
        self.readers = [set() for _ in range(self.n)]  # {last} under opt
        self.overflow = [False] * self.n

    def bits(self, mask):
        return [g for g in range(self.n) if mask >> g & 1]

    def foreign_writer(self, g, core):
        return self.writer[g] not in (None, core)

    def foreign_reader(self, g, core):
        return self.overflow[g] or bool(self.readers[g] - {core})

    def update_from_md(self, core, read_bits, write_bits):
        self.conflict_mask, self.conflict_write = 0, False
        for g in range(self.n):
            if write_bits >> g & 1:
                hit = (self.foreign_writer(g, core)
                       or self.foreign_reader(g, core))
                self.conflict_write |= hit
            else:
                hit = bool(read_bits >> g & 1) and self.foreign_writer(g, core)
            self.conflict_mask |= hit << g
        self.record_write(core, write_bits)
        self.record_read(core, read_bits)
        self.ts |= bool(self.conflict_mask)
        return bool(self.conflict_mask)

    def check_write(self, core, mask):
        return not any(self.foreign_writer(g, core)
                       or (self.writer[g] is None
                           and self.foreign_reader(g, core))
                       for g in self.bits(mask))

    def check_read(self, core, mask):
        return not any(self.foreign_writer(g, core) for g in self.bits(mask))

    def record_write(self, core, mask):
        for g in self.bits(mask):
            self.writer[g] = core

    def record_read(self, core, mask):
        for g in self.bits(mask):
            if self.opt:
                self.overflow[g] |= bool(self.readers[g] - {core})
                self.readers[g] = {core}
            else:
                self.readers[g].add(core)

    def cores(self):
        return ({w for w in self.writer if w is not None}
                | set().union(*self.readers))


_SAM_OPS = ("update_from_md", "record_write", "record_read", "check_write",
            "check_read", "clear")


@st.composite
def _sam_histories(draw):
    granules = draw(st.sampled_from([16, 32, 64]))
    cores = draw(st.sampled_from([2, 3, 4, 8]))
    # Masks over a few hot granules make repeated touches of one granule
    # by several cores likely; bits at or above num_granules exercise
    # update_from_md's masking.
    hot = st.sets(st.sampled_from([0, 1, granules - 1, granules]),
                  max_size=3).map(lambda gs: sum(1 << g for g in gs))
    masks = hot | st.integers(0, (1 << (granules + 4)) - 1)
    ops = draw(st.lists(st.tuples(st.sampled_from(_SAM_OPS),
                                  st.integers(0, cores - 1), masks, masks),
                        min_size=10, max_size=40))
    return granules, cores, draw(st.booleans()), ops


class TestExactEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(_sam_histories())
    @example((8, 4, True, [("record_read", 1, 1, 0),
                           ("record_read", 2, 1, 0),
                           ("check_write", 2, 1, 0)]))
    def test_matches_per_granule_model(self, history):
        """Every return value and every observable field equals the
        per-granule model, in both reader encodings."""
        granules, cores, reader_opt, ops = history
        e = entry(reader_opt=reader_opt, granules=granules, cores=cores)
        model = _GranuleModel(granules, reader_opt)
        full = (1 << granules) - 1
        for name, core, a, b in ops:
            if name == "clear":
                got, want = e.clear(), model.clear()
            elif name == "update_from_md":
                got = e.update_from_md(core, a, b)
                want = model.update_from_md(core, a & full, b & full)
            else:
                got = getattr(e, name)(core, a & full)
                want = getattr(model, name)(core, a & full)
            assert got == want, name
            assert e.ts == model.ts
            assert e.last_conflict_mask == model.conflict_mask
            assert e.last_conflict_write == model.conflict_write
            assert e.last_writer_map() == model.writer
            assert [e.reader_cores(g) for g in range(granules)] == \
                model.readers
            assert e.cores() == model.cores()


class TestEntryBits:
    def test_paper_basic_size(self):
        # 8 cores, 64 byte-granules: (8+1+3)*64 + 1 = 769 bits.
        e = SamEntry(num_granules=64, num_cores=8)
        assert e.entry_bits() == 769

    def test_paper_optimized_size(self):
        # (3+2 + 1+3)*64 + 1 = 577 bits, a 25% saving.
        e = SamEntry(num_granules=64, num_cores=8, reader_opt=True)
        assert e.entry_bits() == 577
        full = SamEntry(num_granules=64, num_cores=8).entry_bits()
        assert 1 - e.entry_bits() / full == pytest.approx(0.25, abs=0.01)


class TestSamTable:
    def make(self, sets=2, ways=2):
        return SamTable(sets=sets, ways=ways, block_size=64, num_granules=64,
                        num_cores=4)

    def test_allocate_get(self):
        t = self.make()
        e, evb, eve = t.allocate(0x1000)
        assert evb is None
        assert t.get(0x1000) is e

    def test_allocate_existing_returns_same(self):
        t = self.make()
        e1, _, _ = t.allocate(0)
        e2, _, _ = t.allocate(0)
        assert e1 is e2
        assert t.allocations == 1

    def test_eviction_reported(self):
        t = self.make(sets=1, ways=1)
        t.allocate(0)
        _, evicted_block, evicted_entry = t.allocate(64)
        assert evicted_block == 0
        assert evicted_entry is not None
        assert t.valid_replacements == 1

    def test_replacement_rate(self):
        t = self.make(sets=1, ways=1)
        t.allocate(0)
        t.allocate(64)
        assert t.replacement_rate == 0.5

    def test_invalidate(self):
        t = self.make()
        t.allocate(0)
        assert t.invalidate(0) is not None
        assert t.peek(0) is None
