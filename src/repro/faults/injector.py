"""Observer-based deterministic fault injector.

A :class:`FaultInjector` wires a :class:`~repro.faults.plan.FaultPlan`
into a running machine through two channels:

* the network fault seam (``Network.fault_seam``) perturbs metadata-class
  messages *before* they are scheduled or observed — drops, duplicates,
  extra delay, REQ_MD stripping;
* ``on_deliver`` counts message deliveries and, every
  ``plan.state_period``-th one, opens a *state opportunity* at which
  metadata-state and resource-pressure faults may fire through the
  None-guarded seams in the directory, L1, PAM and SAM.

Determinism contract
--------------------

The plan's RNG decides *only* fire/no-fire.  Everything else — which
message is eligible, which block a state fault targets — is a pure
function of simulation state: targets are chosen by rotating the
opportunity index over each component's sorted resident blocks.  Every
fault kind keeps an opportunity counter that advances at each of its
eligible decision points whether or not the fault fires, so a recorded
run's fired list (``FiredFault.event()``) replays exactly as a scripted
plan — and any *subset* of it is again a deterministic plan, which is
what makes ddmin shrinking over fault events sound.

Every fault recorded in :attr:`FaultInjector.fired` was *effective*
(dropped a real message, cleared nonzero bits, evicted a resident block);
decided-but-ineffective faults advance counters without being recorded.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.faults.plan import (
    ALL_KINDS,
    STATE_KINDS,
    FaultEvent,
    FaultPlan,
)
from repro.interconnect.message import Message, MessageType
from repro.obs.observer import Observer

#: Message types whose extra delay is always protocol-legal: per-channel
#: FIFO floors preserve ordering, so a delayed reply is indistinguishable
#: from network congestion.
_DELAYABLE = frozenset((MessageType.REP_MD, MessageType.PHANTOM_MD,
                        MessageType.ACK_PRV, MessageType.UPG_ACK_PRV))

#: Metadata messages whose duplication is legal: directory ingestion is
#: idempotent for repeated REP_MD/PHANTOM_MD (``md_arrived`` tolerates
#: unexpected cores; double-merged PAM bits only strengthen claims).
_DUPABLE = frozenset((MessageType.REP_MD, MessageType.PHANTOM_MD))

#: Messages carrying the piggybacked REQ_MD bit that drop_req_md strips.
_REQ_MD_CARRIERS = frozenset((MessageType.INV, MessageType.FWD_GET,
                              MessageType.FWD_GETX))

_GLITCH_BY_KIND = {"counter_reset": "reset", "counter_saturate": "saturate",
                   "pmmc_clear": "pmmc"}


@dataclass
class FiredFault:
    """One fault that actually changed simulation state."""

    kind: str
    opportunity: int
    cycle: int
    block: int

    def event(self) -> FaultEvent:
        """The scripted-replay form of this fault."""
        return FaultEvent(self.kind, self.opportunity)


class FaultInjector(Observer):
    """Inject a :class:`FaultPlan` into a machine (PR-5 Observer API).

    Attach with :meth:`attach`; only one injector may be attached to a
    machine at a time (the network has a single fault seam).
    """

    def __init__(self, machine, plan: FaultPlan) -> None:
        super().__init__(machine)
        self.plan = plan
        self._rng = random.Random(plan.seed)
        self._script: Optional[Set[Tuple[str, int]]] = None
        if plan.script is not None:
            self._script = {(e.kind, e.opportunity) for e in plan.script}
        self._rates = {kind: getattr(plan, kind) for kind in ALL_KINDS}
        self._opportunities: Dict[str, int] = dict.fromkeys(ALL_KINDS, 0)
        #: Effective faults, in firing order.
        self.fired: List[FiredFault] = []
        self._deliveries = 0
        self._in_dup = False

    # ---------------------------------------------------------- lifecycle

    def on_attach(self, machine) -> None:
        if machine.network.fault_seam is not None:
            raise RuntimeError("a fault injector is already attached to "
                               "this machine's network")
        machine.network.fault_seam = self._perturb

    def on_detach(self, machine) -> None:
        machine.network.fault_seam = None

    # ------------------------------------------------------ decision core

    def fired_by_kind(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for fault in self.fired:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    def _decide(self, kind: str) -> Optional[int]:
        """Advance ``kind``'s opportunity counter; return the opportunity
        index if the plan fires at it, else None.  The counter advances
        unconditionally (never gated on rate or RNG) so scripted replays
        see identical indices."""
        opp = self._opportunities[kind]
        self._opportunities[kind] = opp + 1
        if self._script is not None:
            return opp if (kind, opp) in self._script else None
        rate = self._rates[kind]
        if rate > 0.0 and self._rng.random() < rate:
            return opp
        return None

    def _record(self, kind: str, opp: int, block: int) -> None:
        self.fired.append(FiredFault(kind=kind, opportunity=opp,
                                     cycle=self.machine.queue.now,
                                     block=block))

    # ------------------------------------------------- message-fault seam

    def _perturb(self, msg: Message, extra_delay: int) -> Optional[int]:
        """Network seam: return the (possibly increased) extra delay, or
        None to drop the message.  Runs before scheduling and before any
        post-send hook, so observers never account a dropped message."""
        if self._in_dup:
            return extra_delay  # injected duplicates are never re-faulted
        mtype = msg.mtype
        if (mtype is MessageType.REP_MD
                and msg.payload.get("solicited", True) is False):
            # Only *unsolicited* metadata may be lost: a solicited REP_MD/
            # PHANTOM_MD answers a TR_PRV and the init would deadlock.
            opp = self._decide("drop_rep_md")
            if opp is not None:
                self._record("drop_rep_md", opp, msg.block_addr)
                return None
        if mtype in _DUPABLE:
            opp = self._decide("dup_md")
            if opp is not None:
                self._record("dup_md", opp, msg.block_addr)
                self._duplicate(msg)
        if mtype in _DELAYABLE:
            opp = self._decide("delay_md")
            if opp is not None:
                self._record("delay_md", opp, msg.block_addr)
                extra_delay += self.plan.delay_cycles
        if mtype in _REQ_MD_CARRIERS and msg.payload.get("req_md"):
            opp = self._decide("drop_req_md")
            if opp is not None:
                self._record("drop_req_md", opp, msg.block_addr)
                # Strip the piggybacked metadata request: the receiver
                # behaves as if the directory never asked (pure detection-
                # accuracy loss; the coherence part of the message stands).
                msg.payload["req_md"] = False
        return extra_delay

    def _duplicate(self, msg: Message) -> None:
        copy = Message(msg.mtype, src=msg.src, dst=msg.dst,
                       block_addr=msg.block_addr, payload=dict(msg.payload))
        self._in_dup = True
        try:
            self.machine.network.send(copy)
        finally:
            self._in_dup = False

    # ------------------------------------------------- state-fault driver

    def on_deliver(self, msg: Message) -> None:
        self._deliveries += 1
        if self._deliveries % self.plan.state_period:
            return
        for kind in STATE_KINDS:
            opp = self._decide(kind)
            if opp is None:
                continue
            block = self._apply_state_fault(kind, opp)
            if block is not None:
                self._record(kind, opp, block)

    def _apply_state_fault(self, kind: str, opp: int) -> Optional[int]:
        """Attempt ``kind`` on a deterministically rotated target; return
        the affected block, or None if no component would accept it."""
        if kind == "pam_clear":
            return self._over_l1s(opp, lambda l1: l1.pam.resident_blocks(),
                                  lambda l1, b: l1.pam.fault_clear(b))
        if kind == "l1_evict":
            return self._over_l1s(opp, lambda l1: l1.resident_blocks(),
                                  lambda l1, b: l1.fault_evict(b))
        if kind == "sam_invalidate":
            return self._over_slices(
                opp,
                lambda sl: (sl.detector.sam.resident_blocks()
                            if sl.detector is not None else []),
                lambda sl, b: sl.fault_sam_loss(b))
        if kind in _GLITCH_BY_KIND:
            glitch = _GLITCH_BY_KIND[kind]
            return self._over_slices(
                opp,
                lambda sl: (sorted(sl.detector.counter_metas())
                            if sl.detector is not None else []),
                lambda sl, b: sl.fault_counter_glitch(b, glitch))
        if kind == "llc_evict":
            return self._over_slices(
                opp,
                lambda sl: sorted(block for block, _ in sl.llc.items()),
                lambda sl, b: sl.fault_llc_eviction(b))
        raise AssertionError(f"unhandled state fault {kind!r}")

    def _over_l1s(self, opp, blocks_of, apply) -> Optional[int]:
        return self._rotate(self.machine.l1s, opp, blocks_of, apply)

    def _over_slices(self, opp, blocks_of, apply) -> Optional[int]:
        return self._rotate(self.machine.slices, opp, blocks_of, apply)

    @staticmethod
    def _rotate(components, opp, blocks_of, apply) -> Optional[int]:
        """Deterministic target selection: rotate the component list by the
        opportunity index, and within each component rotate its sorted
        resident blocks, taking the first target the seam accepts."""
        n = len(components)
        for i in range(n):
            comp = components[(opp + i) % n]
            blocks = blocks_of(comp)
            if not blocks:
                continue
            for j in range(len(blocks)):
                block = blocks[(opp + j) % len(blocks)]
                if apply(comp, block):
                    return block
        return None
