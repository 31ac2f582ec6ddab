"""Tests for the event queue and signals."""

import pytest

from repro.sim.events import EventQueue, Signal


class TestEventQueue:
    def test_pop_empty_returns_none(self):
        assert EventQueue().pop() is None

    def test_orders_by_time(self):
        queue = EventQueue()
        fired = []
        queue.push(2.0, lambda: fired.append("b"))
        queue.push(1.0, lambda: fired.append("a"))
        queue.push(3.0, lambda: fired.append("c"))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fifo(self):
        queue = EventQueue()
        fired = []
        for name in "abcde":
            queue.push(5.0, lambda n=name: fired.append(n))
        while (event := queue.pop()) is not None:
            event.callback()
        assert fired == list("abcde")

    def test_cancelled_events_skipped(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: pytest.fail("cancelled event ran"))
        queue.push(2.0, lambda: None)
        event.cancel()
        popped = queue.pop()
        assert popped is not None
        assert popped.time == 2.0

    def test_len_excludes_cancelled(self):
        queue = EventQueue()
        keep = queue.push(1.0, lambda: None)
        drop = queue.push(2.0, lambda: None)
        drop.cancel()
        assert len(queue) == 1
        assert keep.cancelled is False


class TestSignal:
    def test_fire_wakes_all_waiters(self):
        signal = Signal("test")
        woken = []
        signal.wait(lambda p: woken.append(("a", p)))
        signal.wait(lambda p: woken.append(("b", p)))
        count = signal.fire("payload")
        assert count == 2
        assert woken == [("a", "payload"), ("b", "payload")]

    def test_waiters_fire_once_only(self):
        signal = Signal()
        woken = []
        signal.wait(lambda p: woken.append(p))
        signal.fire(1)
        signal.fire(2)
        assert woken == [1]

    def test_waiter_registered_after_fire_waits_for_next(self):
        signal = Signal()
        signal.fire("early")
        woken = []
        signal.wait(lambda p: woken.append(p))
        assert woken == []
        signal.fire("late")
        assert woken == ["late"]

    def test_fire_count_and_payload_tracked(self):
        signal = Signal()
        signal.fire("x")
        signal.fire("y")
        assert signal.fire_count == 2
        assert signal.last_payload == "y"


class TestQueueAccounting:
    """O(1) live count over tombstones (the __len__ fix)."""

    def test_len_is_exact_after_cancels(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        assert len(queue) == 10
        for event in events[::2]:
            event.cancel()
        assert len(queue) == 5
        # double-cancel must not double-count
        events[0].cancel()
        assert len(queue) == 5

    def test_pop_skips_cancelled_events_in_order(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda i=i: i, label=str(i))
                  for i in range(20)]
        for event in events[:12]:
            event.cancel()
        order = []
        while queue:
            order.append(queue.pop().time)
        assert order == [float(i) for i in range(12, 20)]

    def test_push_many_matches_sequential_pushes(self):
        a, b = EventQueue(), EventQueue()
        entries = [(5.0, lambda: 1), (1.0, lambda: 2), (5.0, lambda: 3),
                   (0.0, lambda: 4)]
        for time, callback in entries:
            a.push(time, callback)
        b.push_many(entries)
        while a:
            ea, eb = a.pop(), b.pop()
            # FIFO among equal timestamps: seqs assigned in input order
            assert (ea.time, ea.callback()) == (eb.time, eb.callback())
        assert not b


class TestSignalReentrancy:
    def test_recursive_fire_of_same_signal(self):
        """A waiter that re-fires its own signal must not corrupt the
        waiter list: the inner fire sees only waiters registered after
        the outer snapshot-and-clear."""
        signal = Signal("reentrant")
        order = []

        def outer(payload):
            order.append(("outer", payload))
            signal.wait(lambda p: order.append(("inner", p)))
            signal.fire("from-outer")

        signal.wait(outer)
        woken = signal.fire("first")
        assert woken == 1
        assert order == [("outer", "first"), ("inner", "from-outer")]
        # counters reflect the innermost completed firing
        assert signal.fire_count == 2
        assert signal.last_payload == "from-outer"
        # the waiter list is clean: a fresh wait fires exactly once
        relit = []
        signal.wait(relit.append)
        assert signal.fire("again") == 1
        assert relit == ["again"]
