"""Race-handling tests for the L1 controller (Section V-E and friends).

These inject crafted message sequences directly into one L1 controller so
the exact interleavings the paper discusses (Figures 11 and 12) are
exercised deterministically, independent of network timing.
"""

from __future__ import annotations

import pytest

from repro.coherence.l1_controller import L1Controller
from repro.coherence.states import L1State, ProtocolMode
from repro.common.config import SystemConfig
from repro.common.events import EventQueue
from repro.common.statkeys import CORE_REISSUES
from repro.cpu.ops import load, store
from repro.interconnect.message import Message, MessageType

DIR_NODE = 1


class Harness:
    """One L1 controller with a scripted 'directory' capturing its output."""

    def __init__(self, mode=ProtocolMode.FSLITE):
        self.queue = EventQueue()
        self.config = SystemConfig(num_cores=1, num_llc_slices=1)

        class FakeNetwork:
            def __init__(self, outer):
                self.outer = outer
                self.sent = []

            def register(self, node, handler):
                if node == 0:
                    self.outer.deliver = handler

            def send(self, msg, extra_delay=0):
                self.sent.append(msg)

        self.net = FakeNetwork(self)
        self.l1 = L1Controller(0, self.config, mode, self.queue, self.net,
                               home_of=lambda b: DIR_NODE)
        self.completions = []

    def issue(self, op):
        self.l1.access(op, lambda v: self.completions.append(v))
        self.queue.run()

    def inject(self, mtype, block, **payload):
        self.deliver(Message(mtype, src=DIR_NODE, dst=0, block_addr=block,
                             payload=payload))
        self.queue.run()

    def sent_types(self):
        return [m.mtype for m in self.net.sent]

    def clear(self):
        self.net.sent.clear()

    def line(self, block):
        return self.l1.cache.peek(block)


BLOCK = 0x1000
DATA = bytes(range(64))


class TestFig11GetxVsInvPrv:
    """Fig. 11: Inv_PRV overtakes the Data_PRV response of a GetX."""

    def test_ctrl_wb_and_reissue(self):
        h = Harness()
        h.issue(store(BLOCK, 7))
        assert h.sent_types() == [MessageType.GETX]
        h.clear()
        # Inv_PRV arrives before the data: dataless Ctrl_WB response.
        h.inject(MessageType.INV_PRV, BLOCK)
        assert h.sent_types() == [MessageType.CTRL_WB]
        h.clear()
        # The stale Data_PRV arrives: dropped, request reissued.
        h.inject(MessageType.DATA_PRV, BLOCK, data=DATA)
        assert h.sent_types() == [MessageType.GETX]
        assert h.l1.stats[CORE_REISSUES] == 1
        assert h.completions == []  # still outstanding
        h.clear()
        # The reissued request is answered normally.
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        assert h.completions == [0]
        assert h.line(BLOCK).state == L1State.M

    def test_get_variant_reissues(self):
        """Paper: 'for a Get request, the load will be reissued'."""
        h = Harness()
        h.issue(load(BLOCK))
        h.clear()
        h.inject(MessageType.INV_PRV, BLOCK)
        h.inject(MessageType.DATA_PRV, BLOCK, data=DATA)
        assert MessageType.GET in h.sent_types()
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        assert h.completions == [int.from_bytes(DATA[:4], "little")]
        assert h.line(BLOCK).state == L1State.S


class TestFig12UpgradeVsInvPrv:
    """Fig. 12: Inv_PRV overtakes an UpgAck_PRV; upgrade reissues as GetX."""

    def _upgrade_pending(self, h):
        h.inject(MessageType.DATA, BLOCK, data=DATA)  # need an S line first
        # wait: no mshr -> stray. Fill via a load instead.

    def test_upgrade_reissued_as_getx(self):
        h = Harness()
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        assert h.line(BLOCK).state == L1State.S
        h.clear()
        h.issue(store(BLOCK, 9))
        assert h.sent_types() == [MessageType.UPGRADE]
        h.clear()
        # Termination invalidation arrives while the upgrade is pending:
        # the S copy answers with Prv_WB and the ack must be reissued.
        h.inject(MessageType.INV_PRV, BLOCK)
        assert h.sent_types() == [MessageType.PRV_WB]
        assert h.line(BLOCK) is None
        h.clear()
        h.inject(MessageType.UPG_ACK_PRV, BLOCK)
        assert h.sent_types() == [MessageType.GETX]
        h.clear()
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        assert h.completions[-1] is not None
        assert h.line(BLOCK).state == L1State.M

    def test_plain_inv_converts_upgrade(self):
        """A plain INV during SM_W: the directory converts; data completes."""
        h = Harness()
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        h.issue(store(BLOCK, 9))
        h.clear()
        h.inject(MessageType.INV, BLOCK, requestor=2)
        assert MessageType.INV_ACK in h.sent_types()
        assert h.line(BLOCK) is None
        h.clear()
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        assert h.line(BLOCK).state == L1State.M
        assert h.line(BLOCK).data[:4] == (9).to_bytes(4, "little")


class TestConsumeThenDrop:
    """IS_I: a plain INV racing a GET fill consumes the data once."""

    def test_inv_before_data(self):
        h = Harness()
        h.issue(load(BLOCK))
        h.clear()
        h.inject(MessageType.INV, BLOCK, requestor=2)
        assert h.sent_types() == [MessageType.INV_ACK]
        h.clear()
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        # The load completed with the (then-valid) data...
        assert h.completions == [int.from_bytes(DATA[:4], "little")]
        # ...but the line was dropped right after.
        assert h.line(BLOCK) is None


class TestPhantomMessages:
    """Section V-D: metadata responses for blocks no longer cached."""

    def test_phantom_on_inv_for_absent_block(self):
        h = Harness()
        h.inject(MessageType.INV, BLOCK, requestor=2, req_md=True)
        assert h.sent_types() == [MessageType.PHANTOM_MD,
                                  MessageType.INV_ACK]

    def test_rep_md_on_inv_for_present_block(self):
        h = Harness()
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        h.clear()
        h.inject(MessageType.INV, BLOCK, requestor=2, req_md=True)
        types = h.sent_types()
        assert MessageType.REP_MD in types
        assert MessageType.INV_ACK in types
        md = next(m for m in h.net.sent if m.mtype == MessageType.REP_MD)
        assert md.payload["read_bits"] == 0xF  # the 4-byte load

    def test_tr_prv_phantom_when_absent(self):
        h = Harness()
        h.inject(MessageType.TR_PRV, BLOCK, req_md=True)
        assert h.sent_types() == [MessageType.PHANTOM_MD]

    def test_tr_prv_race_aborts_inflight_fill(self):
        """TR_PRV while our GETX response is in flight: phantom + reissue
        (otherwise we would fill E/M while the directory privatizes)."""
        h = Harness()
        h.issue(store(BLOCK, 1))
        h.clear()
        h.inject(MessageType.TR_PRV, BLOCK, req_md=True)
        assert h.sent_types() == [MessageType.PHANTOM_MD]
        h.clear()
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        assert h.sent_types() == [MessageType.GETX]  # dropped & reissued


class TestTrPrv:
    def test_sharer_transitions_to_prv(self):
        h = Harness()
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        h.clear()
        h.inject(MessageType.TR_PRV, BLOCK, req_md=True)
        assert h.line(BLOCK).state == L1State.PRV
        assert MessageType.REP_MD in h.sent_types()
        # PAM entry cleared at privatization start (Section V-A).
        assert h.l1.pam.get(BLOCK).empty

    def test_dirty_owner_flushes_data(self):
        h = Harness()
        h.issue(store(BLOCK, 5))
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        h.clear()
        h.inject(MessageType.TR_PRV, BLOCK, req_md=True)
        types = h.sent_types()
        assert MessageType.DATA_WB in types  # flush so the LLC is fresh
        assert MessageType.REP_MD in types
        assert h.line(BLOCK).state == L1State.PRV
        assert not h.line(BLOCK).dirty
        wb = next(m for m in h.net.sent if m.mtype == MessageType.DATA_WB)
        assert wb.payload["data"][:4] == (5).to_bytes(4, "little")


class TestChkFlows:
    def _privatized(self, h):
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        h.inject(MessageType.TR_PRV, BLOCK, req_md=True)
        h.clear()

    def test_first_touch_sends_chk(self):
        h = Harness()
        self._privatized(h)
        h.issue(store(BLOCK + 8, 3))
        assert h.sent_types() == [MessageType.GETXCHK]
        h.inject(MessageType.ACK_PRV, BLOCK)
        assert h.completions[-1] == 0
        assert h.line(BLOCK).data[8:12] == (3).to_bytes(4, "little")

    def test_covered_bytes_hit_locally(self):
        h = Harness()
        self._privatized(h)
        h.issue(store(BLOCK + 8, 3))
        h.inject(MessageType.ACK_PRV, BLOCK)
        h.clear()
        h.issue(store(BLOCK + 8, 4))  # write bit already set
        h.issue(load(BLOCK + 8))
        assert h.sent_types() == []
        assert h.completions[-1] == 4

    def test_read_needs_chk_then_hits(self):
        h = Harness()
        self._privatized(h)
        h.issue(load(BLOCK + 16))
        assert h.sent_types() == [MessageType.GETCHK]
        h.inject(MessageType.ACK_PRV, BLOCK)
        h.clear()
        h.issue(load(BLOCK + 16))
        assert h.sent_types() == []

    def test_inv_prv_during_chk_expects_data(self):
        """Our CHK conflicts: termination runs, the CHK is answered with a
        plain data response that must fill and complete the access."""
        h = Harness()
        self._privatized(h)
        h.issue(store(BLOCK + 8, 3))
        h.clear()
        h.inject(MessageType.INV_PRV, BLOCK)
        assert h.sent_types() == [MessageType.PRV_WB]
        assert h.line(BLOCK) is None
        h.clear()
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        assert h.line(BLOCK).state == L1State.M
        assert h.line(BLOCK).data[8:12] == (3).to_bytes(4, "little")
        assert h.completions[-1] == 0


class TestPrvWriteback:
    def test_inv_prv_returns_data(self):
        h = Harness()
        h.issue(load(BLOCK))
        h.inject(MessageType.DATA, BLOCK, data=DATA)
        h.inject(MessageType.TR_PRV, BLOCK, req_md=True)
        h.clear()
        h.inject(MessageType.INV_PRV, BLOCK)
        assert h.sent_types() == [MessageType.PRV_WB]
        wb = h.net.sent[0]
        assert bytes(wb.payload["data"]) == DATA

    def test_inv_prv_absent_sends_ctrl_wb(self):
        h = Harness()
        h.inject(MessageType.INV_PRV, BLOCK)
        assert h.sent_types() == [MessageType.CTRL_WB]


class TestFwdFromWriteBuffer:
    def test_fwd_getx_served_from_wb(self):
        h = Harness()
        h.issue(store(BLOCK, 5))
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        # Force an eviction path by invalidating through the public API:
        # simulate capacity eviction directly.
        line = h.l1.cache.peek(BLOCK)
        h.l1.cache.invalidate(BLOCK)
        h.clear()
        h.l1._evict(BLOCK, line)
        assert h.sent_types() == [MessageType.PUTM]
        assert BLOCK in h.l1.write_buffer
        h.clear()
        h.inject(MessageType.FWD_GETX, BLOCK, requestor=2, req_md=False)
        types = h.sent_types()
        assert MessageType.DATA_TO_REQ in types
        assert MessageType.DATA_WB in types
        data_to_req = next(m for m in h.net.sent
                           if m.mtype == MessageType.DATA_TO_REQ)
        assert data_to_req.dst == 2
        assert data_to_req.payload["data"][:4] == (5).to_bytes(4, "little")
        h.clear()
        h.inject(MessageType.WB_ACK, BLOCK)
        assert BLOCK not in h.l1.write_buffer

    def test_access_during_writeback_waits_for_ack(self):
        h = Harness()
        h.issue(store(BLOCK, 5))
        h.inject(MessageType.DATA_E, BLOCK, data=DATA)
        line = h.l1.cache.peek(BLOCK)
        h.l1.cache.invalidate(BLOCK)
        h.l1._evict(BLOCK, line)
        h.clear()
        h.issue(load(BLOCK))
        assert h.sent_types() == []  # parked on the write buffer
        h.inject(MessageType.WB_ACK, BLOCK)
        assert h.sent_types() == [MessageType.GET]


class TestStrayResponses:
    def test_stray_data_raises(self):
        from repro.common.errors import ProtocolError
        h = Harness()
        with pytest.raises(ProtocolError):
            h.inject(MessageType.DATA, BLOCK, data=DATA)


def _m_line(h):
    h.issue(store(BLOCK, 5))
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)


def _clean_e_line(h):
    h.issue(load(BLOCK))
    h.inject(MessageType.DATA_E, BLOCK, data=DATA)


def _in_write_buffer(h):
    _m_line(h)
    line = h.l1.cache.peek(BLOCK)
    h.l1.cache.invalidate(BLOCK)
    h.l1._evict(BLOCK, line)


def _no_copy(h):
    pass


REQ = 2
_TO_REQ = (MessageType.DATA_TO_REQ, REQ, None, None, True)
_ACK_NO_DATA = (MessageType.ACK_NO_DATA, DIR_NODE, None, None, None)
_REP_MD = (MessageType.REP_MD, DIR_NODE, None, None, None)
_PHANTOM = (MessageType.PHANTOM_MD, DIR_NODE, None, None, None)

#: (forward, holding) -> (messages sent as (mtype, dst, xfer, from_wb,
#: req_md), resulting line state or None when no line is left).
FORWARD_CASES = {
    (MessageType.FWD_GET, "M"): (
        [_TO_REQ, (MessageType.DATA_WB, DIR_NODE, None, None, None), _REP_MD],
        L1State.S),
    (MessageType.FWD_GET, "clean E"): (
        [_TO_REQ, (MessageType.XFER_ACK, DIR_NODE, None, None, None), _REP_MD],
        L1State.S),
    (MessageType.FWD_GET, "write buffer"): (
        [_TO_REQ, (MessageType.DATA_WB, DIR_NODE, None, True, None), _PHANTOM],
        None),
    (MessageType.FWD_GET, "no copy"): ([_ACK_NO_DATA, _PHANTOM], None),
    (MessageType.FWD_GETX, "M"): (
        [_TO_REQ, (MessageType.DATA_WB, DIR_NODE, True, None, None), _REP_MD],
        None),
    (MessageType.FWD_GETX, "clean E"): (
        [_TO_REQ, (MessageType.DATA_WB, DIR_NODE, True, None, None), _REP_MD],
        None),
    (MessageType.FWD_GETX, "write buffer"): (
        [_TO_REQ, (MessageType.DATA_WB, DIR_NODE, True, True, None), _PHANTOM],
        None),
    (MessageType.FWD_GETX, "no copy"): ([_ACK_NO_DATA, _PHANTOM], None),
}

_HOLDING = {"M": _m_line, "clean E": _clean_e_line,
            "write buffer": _in_write_buffer, "no copy": _no_copy}


@pytest.mark.parametrize("fwd,holding", sorted(FORWARD_CASES, key=str),
                         ids=[f"{f.name}-{h}"
                              for f, h in sorted(FORWARD_CASES, key=str)])
def test_forward_responses(fwd, holding):
    """One intervention handler serves FWD_GET and FWD_GETX: exact
    responses (with their xfer/from_wb/req_md bits) and the line left
    behind, for each way the owner can hold the block."""
    expected, state = FORWARD_CASES[fwd, holding]
    h = Harness()
    _HOLDING[holding](h)
    h.clear()
    h.inject(fwd, BLOCK, requestor=REQ, req_md=True)
    assert [(m.mtype, m.dst, m.payload.get("xfer"), m.payload.get("from_wb"),
             m.payload.get("req_md")) for m in h.net.sent] == expected
    line = h.line(BLOCK)
    assert (line.state if line is not None else None) == state
    if state is L1State.S:
        assert not line.dirty
        assert h.l1.pam.get(BLOCK).send_md
    head = DATA[:4] if holding == "clean E" else (5).to_bytes(4, "little")
    assert all(m.payload["data"][:4] == head
               for m in h.net.sent if "data" in m.payload)
