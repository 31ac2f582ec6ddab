"""Event queue primitives for the discrete-event engine.

Hot-path layout notes (DESIGN.md §15): ``Event`` and ``Signal`` are
slotted so a fig3-scale world allocating hundreds of thousands of
events avoids per-instance ``__dict__`` churn, and ``EventQueue`` keeps
an O(1) live counter so ``len(queue)`` never scans the heap.
Cancelled events stay in the heap as tombstones until they bubble to
the top, where ``pop`` drops them.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Tuple


@dataclass(order=True, slots=True)
class Event:
    """A scheduled callback.

    Events order by ``(time, seq)``; ``seq`` is a monotonically
    increasing tie-breaker so same-time events fire in scheduling order
    (FIFO), which keeps the simulation deterministic.
    """

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    # Back-reference so cancel() can keep the owning queue's live count
    # exact without a heap scan. None for events popped or never queued.
    _queue: Optional["EventQueue"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the engine skips it when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        queue = self._queue
        if queue is not None:
            self._queue = None
            queue._note_cancel()


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    ``__len__`` is O(1): the queue counts live events on
    push/pop/cancel instead of scanning the heap.
    """

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def push(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, False, label, self)
        heapq.heappush(self._heap, event)
        self._live += 1
        return event

    def push_many(
        self,
        entries: Iterable[Tuple[float, Callable[[], None]]],
        label: str = "",
    ) -> List[Event]:
        """Bulk-schedule ``(time, callback)`` pairs in one heapify pass.

        Sequence numbers are assigned in iteration order, so same-time
        entries keep FIFO semantics exactly as repeated :meth:`push`
        calls would.
        """
        seq = self._seq
        heap = self._heap
        events: List[Event] = []
        append = events.append
        for time, callback in entries:
            append(Event(time, seq, callback, False, label, self))
            seq += 1
        self._seq = seq
        if not events:
            return events
        heap.extend(events)
        heapq.heapify(heap)
        self._live += len(events)
        return events

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` if empty."""
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)
            if not event.cancelled:
                event._queue = None
                self._live -= 1
                return event
        return None

    def _note_cancel(self) -> None:
        """Account a cancellation: the event stays as a tombstone."""
        self._live -= 1


class Signal:
    """A broadcast condition processes can wait on.

    ``fire(payload)`` wakes every waiter exactly once. A signal may be
    fired repeatedly; waiters registered after a firing wait for the
    next one (edge-triggered semantics, like a condition variable).

    Re-entrancy contract: ``fire`` snapshots the current waiter list
    and clears it *before* invoking any waiter, so

    * a waiter that registers a new waiter during a firing defers that
      new waiter to the *next* firing, and
    * a waiter that recursively fires the same signal runs the inner
      firing to completion first — ``fire_count`` and ``last_payload``
      reflect the most recent (innermost) firing by the time the outer
      ``fire`` returns, and each waiter receives the payload of the
      firing that woke it, not whatever ``last_payload`` ends up as.
    """

    __slots__ = ("name", "_waiters", "fire_count", "last_payload")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._waiters: List[Callable[[Any], None]] = []
        self.fire_count = 0
        self.last_payload: Any = None

    def wait(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback`` to run on the next :meth:`fire`."""
        self._waiters.append(callback)

    def fire(self, payload: Any = None) -> int:
        """Wake all current waiters; return how many were woken."""
        self.fire_count += 1
        self.last_payload = payload
        waiters = self._waiters
        if not waiters:
            return 0
        self._waiters = []
        for waiter in waiters:
            waiter(payload)
        return len(waiters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Signal({self.name!r}, waiters={len(self._waiters)})"
