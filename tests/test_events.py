"""Unit tests for the discrete-event kernel."""

import pytest

from repro.common.errors import SimulationError
from repro.common.events import EventQueue


class TestScheduling:
    def test_fires_in_time_order(self):
        q = EventQueue()
        log = []
        q.schedule(10, lambda: log.append("b"))
        q.schedule(5, lambda: log.append("a"))
        q.schedule(20, lambda: log.append("c"))
        q.run()
        assert log == ["a", "b", "c"]

    def test_same_time_fires_in_insertion_order(self):
        q = EventQueue()
        log = []
        for i in range(10):
            q.schedule(7, lambda i=i: log.append(i))
        q.run()
        assert log == list(range(10))

    def test_now_advances(self):
        q = EventQueue()
        seen = []
        q.schedule(3, lambda: seen.append(q.now))
        q.schedule(9, lambda: seen.append(q.now))
        q.run()
        assert seen == [3, 9]

    def test_negative_delay_rejected(self):
        q = EventQueue()
        with pytest.raises(SimulationError):
            q.schedule(-1, lambda: None)

    def test_schedule_from_callback(self):
        q = EventQueue()
        log = []

        def chain(n):
            log.append(n)
            if n < 4:
                q.schedule(2, lambda: chain(n + 1))

        q.schedule(0, lambda: chain(0))
        q.run()
        assert log == [0, 1, 2, 3, 4]
        assert q.now == 8


class TestCancel:
    def test_cancelled_event_skipped(self):
        q = EventQueue()
        log = []
        ev = q.schedule(5, lambda: log.append("x"))
        ev.cancel()
        q.run()
        assert log == []

    def test_cancelled_not_counted_empty(self):
        q = EventQueue()
        ev = q.schedule(5, lambda: None)
        ev.cancel()
        assert q.empty()

    def test_double_cancel_keeps_count_consistent(self):
        q = EventQueue()
        ev = q.schedule(5, lambda: None)
        live = q.schedule(6, lambda: None)
        ev.cancel()
        ev.cancel()
        assert not q.empty()
        live.cancel()
        assert q.empty()

    def test_cancel_after_fire_keeps_count_consistent(self):
        q = EventQueue()
        fired = []
        ev = q.schedule(1, lambda: fired.append(True))
        q.run()
        assert fired == [True]
        assert q.empty()
        ev.cancel()  # too late: must not corrupt the live count
        assert q.empty()
        q.schedule(1, lambda: None)
        assert not q.empty()

    def test_empty_tracks_mixed_schedule_cancel_run(self):
        q = EventQueue()
        events = [q.schedule(i + 1, lambda: None) for i in range(100)]
        assert not q.empty()
        for ev in events[::2]:
            ev.cancel()
        assert not q.empty()
        q.run()
        assert q.empty()


class TestRunLimits:
    def test_run_until(self):
        q = EventQueue()
        log = []
        q.schedule(5, lambda: log.append(1))
        q.schedule(15, lambda: log.append(2))
        q.run(until=10)
        assert log == [1]
        assert q.now == 10

    def test_run_max_events(self):
        q = EventQueue()
        log = []
        for i in range(10):
            q.schedule(i, lambda i=i: log.append(i))
        q.run(max_events=3)
        assert log == [0, 1, 2]

    def test_step_returns_false_when_empty(self):
        q = EventQueue()
        assert q.step() is False

    def test_executed_counter(self):
        q = EventQueue()
        for i in range(5):
            q.schedule(i, lambda: None)
        q.run()
        assert q.executed == 5


class TestHandleFreeEntries:
    """``post``/``post_at`` push ``(time, seq, fn, arg)`` with no handle;
    they share the heap and the sequence counter with ``schedule``."""

    def test_post_and_schedule_same_time_fire_in_insertion_order(self):
        q = EventQueue()
        log = []
        q.post(4, log.append, "post-1")
        q.schedule(4, lambda: log.append("sched-2"))
        q.post_at(4, log.append, "post_at-3")
        q.schedule(4, lambda: log.append("sched-4"))
        q.post(4, log.append, "post-5")
        q.post(2, log.append, "early")
        q.run()
        assert log == ["early", "post-1", "sched-2", "post_at-3",
                       "sched-4", "post-5"]
        assert q.executed == 6

    def test_post_into_the_past_rejected(self):
        q = EventQueue()
        q.post(5, lambda _: None, None)
        q.run()
        with pytest.raises(SimulationError):
            q.post(-1, lambda _: None, None)
        with pytest.raises(SimulationError):
            q.post_at(4, lambda _: None, None)

    def test_cancelled_event_leaves_now_and_executed_untouched(self):
        q = EventQueue()
        seen = []
        q.post(3, seen.append, "a")
        late = q.schedule(50, lambda: seen.append("late"))
        late.cancel()
        q.run()
        assert seen == ["a"]
        assert q.now == 3  # the cancelled event's time was never reached
        assert q.executed == 1
        assert q.empty()
        assert q.step() is False
        assert q.now == 3 and q.executed == 1

    def test_cancel_in_the_middle_keeps_heap_order(self):
        q = EventQueue()
        log = []
        events = [q.schedule(t, lambda t=t: log.append(t))
                  for t in (9, 2, 7, 4, 8, 1, 6)]
        q.post(5, log.append, 5)
        events[2].cancel()  # t=7
        events[5].cancel()  # t=1
        q.run()
        assert log == [2, 4, 5, 6, 8, 9]
        assert q.executed == 6

    def test_run_until_does_not_fire_post_due_after_until(self):
        q = EventQueue()
        log = []
        q.post(5, log.append, "in")
        q.post_at(11, log.append, "after")
        q.run(until=10)
        assert log == ["in"]
        assert q.now == 10
        assert q.executed == 1
        assert not q.empty()
        q.run()
        assert log == ["in", "after"]
        assert q.now == 11
