"""Deterministic discrete-event kernel.

The whole simulator is driven by one :class:`EventQueue`. Events at the same
timestamp fire in insertion order (a monotonically increasing sequence number
breaks ties), which makes every simulation fully deterministic.

Hot-path layout: the heap holds plain ``(time, seq, fn, arg)`` tuples and
firing one is ``fn(arg)``.  Ordering is C-level integer-tuple comparison
(``seq`` is unique, so ``fn``/``arg`` are never compared).  Every event
the simulator makes — L1 hit and MSHR completions, core start and
COMPUTE/FENCE continuations, network deliveries, directory queue drains
and memory-fill completions — is a bound method and its one argument
pushed with :meth:`EventQueue.post`/:meth:`EventQueue.post_at`: no
per-event handle object and no ``functools.partial``.

:meth:`EventQueue.schedule` is the handle API for zero-argument callbacks
(tests and drivers; no simulator component calls it):
it returns an :class:`Event` whose :meth:`Event.cancel` takes the entry off
the heap (an O(n) scan; nothing on the simulator's hot path cancels).  The
heap therefore only ever holds live entries, so a cancelled event can never
move ``now`` or count in ``executed``, :meth:`EventQueue.empty` is an O(1)
emptiness test, and the pop-and-fire loop needs no per-event liveness
check.  :meth:`EventQueue.drain` is that loop; :meth:`EventQueue.step`
remains as the single-step API for tests and drivers.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.common.errors import SimulationError


class Event:
    """Handle of a :meth:`EventQueue.schedule`-d callback, for cancelling it.

    Its heap entry is ``(time, seq, Event._fire, event)``.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "queue")

    def __init__(self, time: int, seq: int, callback: Callable[[], None],
                 queue: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: Owning queue; cancellation removes the entry from its heap.
        self.queue = queue

    def _fire(self) -> None:
        self.callback()

    def cancel(self) -> None:
        """Remove the event from its queue; a no-op once it has fired."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue._remove(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = ", C" if self.cancelled else ""
        return f"Event(t={self.time}, seq={self.seq}{flag})"


class EventQueue:
    """A time-ordered queue of callbacks with a current-time cursor."""

    def __init__(self) -> None:
        self._heap: list = []  # (time, seq, fn, arg) entries, all live
        self._seq = 0
        self._now = 0
        self._executed = 0

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def executed(self) -> int:
        """Number of events executed so far (useful for runaway detection)."""
        return self._executed

    def post(self, delay: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` ``delay`` cycles from now; no handle returned."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (self._now + delay, seq, fn, arg))

    def post_at(self, time: int, fn: Callable[[Any], None], arg: Any) -> None:
        """Run ``fn(arg)`` at absolute ``time`` (>= now); no handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (time={time}, now={self._now})")
        seq = self._seq
        self._seq = seq + 1
        heapq.heappush(self._heap, (time, seq, fn, arg))

    def schedule(self, delay: int, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, queue=self)
        heapq.heappush(self._heap, (time, seq, Event._fire, event))
        return event

    def _remove(self, event: Event) -> None:
        """Drop ``event``'s entry from the heap (absent once fired)."""
        heap = self._heap
        for i, entry in enumerate(heap):
            if entry[3] is event:
                last = heap.pop()
                if i < len(heap):
                    heap[i] = last
                    heapq.heapify(heap)
                return

    def empty(self) -> bool:
        """True when no live (non-cancelled) events remain. O(1)."""
        return not self._heap

    def step(self) -> bool:
        """Execute the next event. Return False if none left."""
        heap = self._heap
        if not heap:
            return False
        time, _seq, fn, arg = heapq.heappop(heap)
        self._now = time
        self._executed += 1
        fn(arg)
        return True

    def drain(self, max_events: Optional[int] = None) -> int:
        """Pop-and-fire until the queue is exhausted; the simulator's loop.

        Executes at most ``max_events`` events (None = unlimited) and
        returns how many ran.  This is :meth:`step` folded inline: one
        C-level heappop per event, no per-event method call, with the
        ``now``/``executed`` cursors kept live for callbacks that read them.

        Observers (the sanitizer's periodic sweep) may override ``step`` on
        the *instance*; drain honors such an override by stepping through
        it, so the tight loop runs exactly when nothing is watching.
        """
        stepper = self.__dict__.get("step")
        if stepper is not None:
            executed = 0
            while max_events is None or executed < max_events:
                if not stepper():
                    break
                executed += 1
            return executed
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        limit = max_events if max_events is not None else -1
        while heap:
            if executed == limit:
                break
            time, _seq, fn, arg = pop(heap)
            self._now = time
            self._executed += 1
            executed += 1
            fn(arg)
        return executed

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` cycles pass, or
        ``max_events`` events execute (whichever comes first)."""
        if until is None:
            self.drain(max_events)
            return
        executed = 0
        heap = self._heap
        while heap:
            if heap[0][0] > until:
                self._now = until
                return
            if max_events is not None and executed >= max_events:
                return
            if not self.step():
                return
            executed += 1
