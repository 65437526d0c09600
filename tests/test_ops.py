"""Unit tests for the memory-operation helpers."""

import pytest

from repro.cpu.ops import (
    Op,
    OpKind,
    cas,
    compute,
    fence,
    fetch_add,
    load,
    rmw,
    store,
)


class TestConstruction:
    def test_load_defaults(self):
        op = load(0x1000)
        assert op.kind == OpKind.LOAD
        assert op.size == 4
        assert op.is_memory and not op.is_write

    def test_store(self):
        op = store(0x1000, 42, size=8)
        assert op.is_write
        assert op.value == 42
        assert not op.need_value

    def test_compute_not_memory(self):
        op = compute(10)
        assert not op.is_memory
        assert op.cycles == 10

    def test_fence(self):
        assert fence().kind == OpKind.FENCE

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            load(0x1000, size=3)

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            load(0x1001, size=4)

    def test_rmw_requires_modify(self):
        with pytest.raises(ValueError):
            Op(OpKind.RMW, addr=0, size=4)

    @pytest.mark.parametrize("size", [1, 2, 4, 8])
    def test_store_value_must_fit_the_access(self, size):
        top = (1 << (8 * size)) - 1
        assert store(0, 0, size=size).value == 0
        assert store(0, top, size=size).value == top
        for bad in (top + 1, 1 << 64, -1):
            with pytest.raises(ValueError, match="does not fit"):
                store(0, bad, size=size)
            with pytest.raises(ValueError, match="does not fit"):
                Op(OpKind.STORE, addr=0, size=size, value=bad)


class TestRmwHelpers:
    def test_fetch_add_wraps(self):
        op = fetch_add(0, delta=1, size=1)
        assert op.modify(255) == 0

    def test_fetch_add_modify(self):
        op = fetch_add(0, delta=5)
        assert op.modify(10) == 15

    def test_cas_success(self):
        op = cas(0, expect=0, new=1)
        assert op.modify(0) == 1

    def test_cas_failure_keeps_old(self):
        op = cas(0, expect=0, new=1)
        assert op.modify(7) == 7

    def test_rmw_is_write(self):
        assert rmw(0, lambda v: v).is_write
