"""Coroutine-style discrete-event simulation engine.

Simulated activities (platform components, replicas, load generators)
are written as generator functions that ``yield`` either

* a ``float`` — sleep that many simulated milliseconds, or
* a :class:`~repro.sim.events.Signal` — park until the signal fires
  (the fired payload is sent back into the generator).

The engine interleaves processes deterministically: ties in virtual
time resolve in scheduling order. Substrate code that models
synchronous work (system calls, page copies) simply advances the shared
clock; both styles compose because the engine never moves the clock
backwards.

Hot-path layout notes (DESIGN.md §15): ``SimProcess`` is slotted and
binds its step/resume methods once at construction, so scheduling a
wakeup enqueues a pre-existing bound method instead of allocating a
fresh closure per yielded delay.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, List, Tuple

from repro.sim.clock import SimClock
from repro.sim.events import Event, EventQueue, Signal

SimGenerator = Generator[Any, Any, Any]


class SimProcess:
    """A running simulated activity wrapping a generator."""

    __slots__ = ("_sim", "_gen", "name", "finished", "result", "done_signal",
                 "_step_cb", "_resume_cb")

    def __init__(self, sim: "Simulation", gen: SimGenerator, name: str = "") -> None:
        self._sim = sim
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.finished = False
        self.result: Any = None
        self.done_signal = Signal(f"{self.name}.done")
        # Bind once: every timer/signal wakeup reuses these two bound
        # methods instead of allocating a closure per scheduled event.
        self._step_cb = self._step
        self._resume_cb = self._resume

    def _resume(self) -> None:
        """No-arg timer callback: resume the generator with None."""
        self._step(None)

    def _step(self, send_value: Any = None) -> None:
        """Resume the generator and schedule its next wakeup."""
        if self.finished:
            return
        try:
            yielded = self._gen.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.done_signal.fire(stop.value)
            return
        if isinstance(yielded, Signal):
            yielded.wait(self._step_cb)
        elif isinstance(yielded, (int, float)):
            if yielded < 0:
                raise ValueError(f"process {self.name!r} yielded negative delay {yielded}")
            self._sim.schedule_in(float(yielded), self._resume_cb, label=self.name)
        elif yielded is None:
            # Yielding None is a cooperative re-schedule at the current time.
            self._sim.schedule_in(0.0, self._resume_cb, label=self.name)
        else:
            raise TypeError(
                f"process {self.name!r} yielded unsupported value {yielded!r}; "
                "yield a delay in ms, a Signal, or None"
            )


class Simulation:
    """Owns the clock and event queue and drives processes to completion."""

    def __init__(self) -> None:
        self.clock = SimClock()
        self.queue = EventQueue()
        self.events_dispatched = 0
        self._trace: List[str] = []

    # -- scheduling ----------------------------------------------------------

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self.clock.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.clock.now}")
        return self.queue.push(time, callback, label=label)

    def schedule_in(self, delay_ms: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` after ``delay_ms`` simulated milliseconds."""
        return self.schedule_at(self.clock.now + delay_ms, callback, label=label)

    def schedule_many(
        self,
        entries: Iterable[Tuple[float, Callable[[], None]]],
        label: str = "",
    ) -> List[Event]:
        """Bulk-schedule ``(absolute_time, callback)`` pairs.

        One past-time validation sweep plus a single heapify replaces a
        Python-level ``schedule_at`` call per entry; FIFO tie-breaking
        matches sequential scheduling exactly.
        """
        batch = list(entries)
        now = self.clock.now
        for time, _ in batch:
            if time < now:
                raise ValueError(f"cannot schedule in the past: {time} < {now}")
        return self.queue.push_many(batch, label=label)

    def spawn(self, gen: SimGenerator, name: str = "") -> SimProcess:
        """Start a new simulated process; it takes its first step at t=now."""
        process = SimProcess(self, gen, name=name)
        self.schedule_in(0.0, process._resume_cb, label=f"spawn:{process.name}")
        return process

    # -- execution -----------------------------------------------------------

    def run(self, max_events: int = 10_000_000) -> None:
        """Run until no events remain (bounded to catch runaway loops)."""
        pop = self.queue.pop
        set_time = self.clock.set_time
        dispatched = 0
        try:
            for _ in range(max_events):
                event = pop()
                if event is None:
                    return
                set_time(event.time)
                dispatched += 1
                event.callback()
        finally:
            self.events_dispatched += dispatched
        raise RuntimeError(f"simulation exceeded {max_events} events; likely a livelock")

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.clock.now
