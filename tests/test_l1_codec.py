"""Equivalence of the L1's struct-coded line bytes with an int reference.

``L1Controller._perform`` reads and writes line bytes through per-size
``struct`` codecs.  These tests drive it on a real :class:`L1Line` for every
access size at every aligned offset, for LOAD, STORE and RMW, and compare
the resulting block bytes and return values with a plain
``int.from_bytes``/``int.to_bytes`` reference — including RMW results that
wrap or go negative and must be masked to the access width.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.l1_controller import L1Controller, L1Line
from repro.coherence.states import L1State, ProtocolMode
from repro.common.config import SystemConfig
from repro.common.events import EventQueue
from repro.cpu.ops import OpKind, fetch_add, load, rmw, store

BLOCK = 0x4000
BLOCK_SIZE = 64
SIZES = (1, 2, 4, 8)


class _NullNetwork:
    def register(self, node, handler):
        pass

    def send(self, msg, extra_delay=0):  # pragma: no cover - no misses here
        raise AssertionError("the hit path sent a message")


def _controller(mode=ProtocolMode.MESI) -> L1Controller:
    return L1Controller(0, SystemConfig(num_cores=1, num_llc_slices=1), mode,
                        EventQueue(), _NullNetwork(), home_of=lambda b: 1)


def _reference(data: bytearray, op) -> int:
    """What ``_perform`` must do to ``data``, in int arithmetic."""
    offset = op.addr - BLOCK
    end = offset + op.size
    old = int.from_bytes(data[offset:end], "little")
    if op.kind is OpKind.LOAD:
        return old
    if op.kind is OpKind.STORE:
        data[offset:end] = op.value.to_bytes(op.size, "little")
        return 0
    new = op.modify(old) & ((1 << (8 * op.size)) - 1)
    data[offset:end] = new.to_bytes(op.size, "little")
    return old


class _Add:
    """An RMW modify with no masking of its own: ``old + delta`` may
    overflow the access width or go negative."""

    def __init__(self, delta: int) -> None:
        self.delta = delta

    def __call__(self, old: int) -> int:
        return old + self.delta


def _op(kind: str, addr: int, size: int, operand: int):
    if kind == "load":
        return load(addr, size=size)
    if kind == "store":
        return store(addr, operand & ((1 << (8 * size)) - 1), size=size)
    return rmw(addr, _Add(operand), size=size)


def _check(l1: L1Controller, block: bytes, op) -> None:
    line = L1Line(L1State.M, bytearray(block))
    expected = bytearray(block)
    want = _reference(expected, op)
    got = l1._perform(BLOCK, line, op)
    assert got == want
    assert line.data == expected
    assert isinstance(line.data, bytearray)
    assert line.dirty == (op.kind is not OpKind.LOAD)


@settings(max_examples=150, deadline=None)
@given(block=st.binary(min_size=BLOCK_SIZE, max_size=BLOCK_SIZE),
       size=st.sampled_from(SIZES),
       kind=st.sampled_from(["load", "store", "rmw"]),
       operand=st.integers(min_value=-(1 << 70), max_value=1 << 70))
def test_perform_matches_int_reference(block, size, kind, operand):
    l1 = _controller()
    for offset in range(0, BLOCK_SIZE, size):
        _check(l1, block, _op(kind, BLOCK + offset, size, operand))


@pytest.mark.parametrize("size", SIZES)
def test_rmw_wraps_at_access_width(size):
    """Fetch-add past the top wraps to zero, an unmasked modify that goes
    negative stores its two's-complement low bytes, and bytes outside the
    access are untouched."""
    l1 = _controller()
    top = (1 << (8 * size)) - 1
    for offset in range(0, BLOCK_SIZE, size):
        line = L1Line(L1State.M, bytearray(b"\xaa" * BLOCK_SIZE))
        line.data[offset:offset + size] = top.to_bytes(size, "little")
        assert l1._perform(BLOCK, line, fetch_add(BLOCK + offset, 1,
                                                  size=size)) == top
        assert line.data[offset:offset + size] == bytes(size)
        assert l1._perform(BLOCK, line, rmw(BLOCK + offset, _Add(-1),
                                            size=size)) == 0
        assert line.data[offset:offset + size] == b"\xff" * size
        rest = line.data[:offset] + line.data[offset + size:]
        assert rest == b"\xaa" * (BLOCK_SIZE - size)


def test_perform_updates_pam_under_fsdetect():
    """The detecting modes run the same codec and then record the touched
    bytes in the PAM entry."""
    l1 = _controller(ProtocolMode.FSDETECT)
    l1.pam.allocate(BLOCK)
    line = L1Line(L1State.M, bytearray(BLOCK_SIZE))
    assert l1._perform(BLOCK, line, store(BLOCK + 8, 0x0102, size=2)) == 0
    assert l1._perform(BLOCK, line, load(BLOCK + 8, size=4)) == 0x0102
    entry = l1.pam.get(BLOCK)
    assert entry.write_bits == 0b11 << 8
    assert entry.read_bits == 0b1111 << 8
