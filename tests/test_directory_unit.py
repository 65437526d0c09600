"""Directory-slice unit tests via direct message injection.

Complements test_l1_races.py from the other side: a scripted 'core'
drives one DirectorySlice and checks its responses and state.
"""

from __future__ import annotations

import itertools

import pytest

from repro.coherence.directory import DirectorySlice
from repro.coherence.states import DirState, ProtocolMode, TerminationCause
from repro.common.config import SystemConfig
from repro.common.events import EventQueue
from repro.common.statkeys import (
    SLICE_PRIVATIZATIONS,
    SLICE_REGRANTS,
    SLICE_STALE_PUTM,
    SLICE_UPGRADES_CONVERTED,
)
from repro.interconnect.message import Message, MessageType
from repro.memsys.main_memory import MainMemory

CORES = 4
DIR_NODE = CORES
BLOCK = 0x1000
DATA = bytes(range(64))


class Harness:
    def __init__(self, mode=ProtocolMode.MESI, tau_p=16):
        self.queue = EventQueue()
        self.config = SystemConfig(num_cores=CORES, num_llc_slices=1)
        if tau_p != 16:
            self.config = self.config.with_protocol(tau_p=tau_p,
                                                    tau_r1=tau_p)

        outer = self

        class FakeNetwork:
            def __init__(self):
                self.sent = []

            def register(self, node, handler):
                outer.deliver = handler

            def send(self, msg, extra_delay=0):
                self.sent.append(msg)

        self.net = FakeNetwork()
        self.memory = MainMemory(block_size=64,
                                 latency=self.config.memory_latency)
        self.memory.write_block(BLOCK, DATA)
        self.dir = DirectorySlice(
            slice_id=0, node_id=DIR_NODE, config=self.config, mode=mode,
            queue=self.queue, network=self.net, memory=self.memory,
            num_slices=1)

    def inject(self, mtype, src, block=BLOCK, **payload):
        self.deliver(Message(mtype, src=src, dst=DIR_NODE,
                             block_addr=block, payload=payload))
        self.queue.run()

    def sent(self):
        return [(m.mtype, m.dst) for m in self.net.sent]

    def clear(self):
        self.net.sent.clear()

    def line(self, block=BLOCK):
        return self.dir.llc.peek(block)


class TestBaselinePaths:
    def test_first_get_fetches_and_grants_exclusive(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        assert h.sent() == [(MessageType.DATA_E, 0)]
        assert h.line().state == DirState.EM
        assert h.line().owner == 0
        last = h.net.sent[-1]
        assert bytes(last.payload["data"]) == DATA

    def test_second_get_intervenes(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        assert h.sent() == [(MessageType.FWD_GET, 0)]
        # Owner responds with a transfer ack: both become sharers.
        h.clear()
        h.inject(MessageType.XFER_ACK, src=0, requestor=1)
        assert h.line().state == DirState.S
        assert h.line().sharers == {0, 1}

    def test_getx_to_shared_invalidates_and_collects(self):
        # Make it S with two sharers via the proper path.
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        h.inject(MessageType.XFER_ACK, src=0, requestor=1)
        h.clear()
        h.inject(MessageType.GETX, src=2, touched_mask=0xF)
        dsts = {d for t, d in h.sent() if t == MessageType.INV}
        assert dsts == {0, 1}
        h.clear()
        h.inject(MessageType.INV_ACK, src=0, requestor=2)
        assert h.sent() == []  # still waiting
        h.inject(MessageType.INV_ACK, src=1, requestor=2)
        assert h.sent() == [(MessageType.DATA_E, 2)]
        assert h.line().state == DirState.EM
        assert h.line().owner == 2

    def test_upgrade_sole_sharer_immediate_ack(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.inject(MessageType.GET, src=1, touched_mask=0xF)
        h.inject(MessageType.XFER_ACK, src=0, requestor=1)
        # Drop core 1 via its own upgrade after core 0 is gone... instead:
        # core 0 upgrades while both share -> INV to 1 then UPG_ACK.
        h.clear()
        h.inject(MessageType.UPGRADE, src=0, touched_mask=0xF)
        assert (MessageType.INV, 1) in h.sent()
        h.clear()
        h.inject(MessageType.INV_ACK, src=1, requestor=0)
        assert h.sent() == [(MessageType.UPG_ACK, 0)]

    def test_upgrade_from_nonsharer_converts(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.UPGRADE, src=1, touched_mask=0xF)
        # Converted to GetX: intervene on the owner.
        assert h.sent() == [(MessageType.FWD_GETX, 0)]
        assert h.dir.stats[SLICE_UPGRADES_CONVERTED] == 1

    def test_regrant_to_owner(self):
        h = Harness()
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        h.clear()
        # The owner re-requests (drop-and-reissue race): idempotent regrant.
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        assert h.sent() == [(MessageType.DATA_E, 0)]
        assert h.dir.stats[SLICE_REGRANTS] == 1

    def test_putm_from_owner(self):
        h = Harness()
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        h.clear()
        new = bytes([7] * 64)
        h.inject(MessageType.PUTM, src=0, data=new)
        assert h.sent() == [(MessageType.WB_ACK, 0)]
        assert h.line().state == DirState.I
        assert bytes(h.line().data) == new

    def test_stale_putm_acked_and_ignored(self):
        h = Harness()
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.PUTM, src=3, data=bytes(64))
        assert h.sent() == [(MessageType.WB_ACK, 3)]
        assert h.dir.stats[SLICE_STALE_PUTM] == 1
        assert bytes(h.line().data) == DATA  # untouched

    def test_queued_request_drains_after_busy(self):
        h = Harness()
        h.inject(MessageType.GETX, src=0, touched_mask=0xF)
        h.clear()
        h.inject(MessageType.GETX, src=1, touched_mask=0xF)   # busy FWD
        h.inject(MessageType.GETX, src=2, touched_mask=0xF)   # queued
        assert h.sent() == [(MessageType.FWD_GETX, 0)]
        h.clear()
        h.inject(MessageType.DATA_WB, src=0, data=DATA, requestor=1,
                 xfer=True)
        # Completing the first transaction starts the queued one.
        assert (MessageType.FWD_GETX, 1) in h.sent()


class TestDetectionPaths:
    def _ping_pong(self, h, rounds):
        """Alternate exclusive ownership between cores 0 and 1."""
        h.inject(MessageType.GETX, src=0, touched_mask=0x0F)
        for i in range(rounds):
            src, other = (1, 0) if i % 2 == 0 else (0, 1)
            h.inject(MessageType.GETX, src=src,
                     touched_mask=0x0F if src == 0 else 0xF0)
            # The old owner responds with data + metadata.
            md_read, md_write = (0x0F, 0x0F) if other == 0 else (0xF0, 0xF0)
            h.inject(MessageType.DATA_WB, src=other, data=DATA,
                     requestor=src, xfer=True)
            h.inject(MessageType.REP_MD, src=other, read_bits=md_read,
                     write_bits=md_write, solicited=True)

    def test_req_md_set_while_ts_clear(self):
        h = Harness(mode=ProtocolMode.FSDETECT)
        h.inject(MessageType.GETX, src=0, touched_mask=0x0F)
        h.clear()
        h.inject(MessageType.GETX, src=1, touched_mask=0xF0)
        fwd = h.net.sent[0]
        assert fwd.mtype == MessageType.FWD_GETX
        assert fwd.payload["req_md"] is True

    def test_fsdetect_reports_after_threshold(self):
        h = Harness(mode=ProtocolMode.FSDETECT, tau_p=4)
        self._ping_pong(h, rounds=14)
        assert h.dir.detector.reports
        assert not any(r.privatized for r in h.dir.detector.reports)

    def test_fslite_privatizes_after_threshold(self):
        h = Harness(mode=ProtocolMode.FSLITE, tau_p=4)
        self._ping_pong(h, rounds=12)
        if h.line().state != DirState.PRV:
            # Trigger request once flagged.
            h.inject(MessageType.GETX, src=0, touched_mask=0x0F)
            # Owner responds to TR_PRV with metadata.
            sent = [m for m in h.net.sent if m.mtype == MessageType.TR_PRV]
            for m in sent:
                h.inject(MessageType.REP_MD, src=m.dst, read_bits=0,
                         write_bits=0xF0 if m.dst == 1 else 0x0F,
                         solicited=True)
        assert h.dir.stats[SLICE_PRIVATIZATIONS] >= 1


class TestExternalSocket:
    def test_hook_noop_when_not_prv(self):
        h = Harness(mode=ProtocolMode.FSLITE)
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        h.dir.external_access(BLOCK)  # must not raise or change state
        assert h.line().state == DirState.EM


class TestContextCompletion:
    """Every busy kind that collects responses finishes exactly once, on
    the last awaited response, whatever kind of response that is."""

    def _resident(self, mode, state, cores):
        h = Harness(mode=mode)
        h.inject(MessageType.GET, src=0, touched_mask=0xF)
        line = h.line()
        line.state, line.owner = state, None
        if state == DirState.S:
            line.sharers = set(cores)
        else:
            line.prv_sharers = set(cores)
        h.clear()
        return h, line

    def _respond(self, h, responses, finished):
        for mtype, src, payload in responses:
            assert finished() == 0 and BLOCK in h.dir.busy_contexts()
            h.inject(mtype, src=src, **payload)
        assert finished() == 1 and BLOCK not in h.dir.busy_contexts()

    INV_ACKS = [(MessageType.INV_ACK, 0, {"requestor": 3}),
                (MessageType.INV_ACK, 1, {"requestor": 3})]
    RECALL_RESPONSES = [(MessageType.INV_ACK, 0, {}),
                        (MessageType.ACK_NO_DATA, 1, {"recall": True}),
                        (MessageType.PUTM, 2, {"data": bytes(64)})]
    TERM_RESPONSES = [(MessageType.PRV_WB, 0, {"data": DATA}),
                      (MessageType.CTRL_WB, 1, {}),
                      (MessageType.PUTM, 2, {"data": DATA, "prv": True})]

    @pytest.mark.parametrize("order", list(itertools.permutations(range(2))))
    def test_inv_collect(self, order):
        h, line = self._resident(ProtocolMode.MESI, DirState.S, {0, 1})
        h.inject(MessageType.GETX, src=3, touched_mask=0xF)
        h.clear()
        self._respond(h, [self.INV_ACKS[i] for i in order],
                      lambda: h.sent().count((MessageType.DATA_E, 3)))
        assert line.state == DirState.EM and line.owner == 3

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_recall(self, order):
        h, line = self._resident(ProtocolMode.MESI, DirState.S, {0, 1, 2})
        calls = []
        h.dir._recall(BLOCK, line, then=lambda: calls.append(1))
        self._respond(h, [self.RECALL_RESPONSES[i] for i in order],
                      lambda: len(calls))
        assert h.line() is None

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_prv_term(self, order):
        h, line = self._resident(ProtocolMode.FSLITE, DirState.PRV, {0, 1, 2})
        h.dir.detector.sam.allocate(BLOCK)
        calls = []
        h.dir._start_termination(BLOCK, TerminationCause.CONFLICT,
                                 then=lambda: calls.append(1))
        self._respond(h, [self.TERM_RESPONSES[i] for i in order],
                      lambda: len(calls))
        assert line.state == DirState.I and not line.prv_sharers

    @pytest.mark.parametrize("in_flight", [MessageType.REP_MD,
                                           MessageType.PHANTOM_MD])
    def test_prv_init_waits_for_the_putm(self, in_flight):
        h, line = self._resident(ProtocolMode.FSLITE, DirState.S, {0, 1, 2})
        trigger = Message(MessageType.GETX, src=3, dst=DIR_NODE,
                          block_addr=BLOCK, payload={"touched_mask": 0xF << 32})
        h.dir._start_prv_init(trigger, line)
        h.queue.run()
        h.clear()
        md = {"read_bits": 0, "write_bits": 0, "solicited": True}
        self._respond(h, [
            (MessageType.PHANTOM_MD, 0, {"solicited": True}),
            (MessageType.REP_MD, 1, dict(md, write_bits=0x1)),
            # Core 2's eviction PUTM is still in flight: its metadata
            # response must not finish the init, the PUTM does.
            (in_flight, 2, dict(md, putm_in_flight=True)),
            (MessageType.PUTM, 2, {"data": DATA}),
        ], lambda: h.sent().count((MessageType.DATA_PRV, 3)))
        assert line.state == DirState.PRV and line.prv_sharers == {1, 3}
