"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Simulation
from repro.sim.events import Signal


class TestScheduling:
    def test_schedule_in_advances_clock_on_dispatch(self):
        sim = Simulation()
        times = []
        sim.schedule_in(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]

    def test_schedule_at_past_rejected(self):
        sim = Simulation()
        sim.clock.advance(10.0)
        with pytest.raises(ValueError):
            sim.schedule_at(9.0, lambda: None)

    def test_run_returns_on_an_empty_queue(self):
        sim = Simulation()
        sim.run()
        assert sim.events_dispatched == 0

    def test_run_detects_livelock(self):
        sim = Simulation()

        def reschedule():
            sim.schedule_in(0.0, reschedule)

        sim.schedule_in(0.0, reschedule)
        with pytest.raises(RuntimeError, match="livelock"):
            sim.run(max_events=1000)


class TestProcesses:
    def test_process_sleeps_for_yielded_delay(self):
        sim = Simulation()
        trace = []

        def proc():
            trace.append(sim.now)
            yield 3.0
            trace.append(sim.now)
            yield 2.0
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 3.0, 5.0]

    def test_process_waits_on_signal(self):
        sim = Simulation()
        gate = Signal("gate")
        trace = []

        def waiter():
            payload = yield gate
            trace.append((sim.now, payload))

        def firer():
            yield 7.0
            gate.fire("go")

        sim.spawn(waiter())
        sim.spawn(firer())
        sim.run()
        assert trace == [(7.0, "go")]

    def test_two_processes_interleave_deterministically(self):
        sim = Simulation()
        trace = []

        def proc(name, delay):
            for _ in range(3):
                yield delay
                trace.append((name, sim.now))

        sim.spawn(proc("fast", 1.0))
        sim.spawn(proc("slow", 2.5))
        sim.run()
        assert trace == [
            ("fast", 1.0), ("fast", 2.0), ("slow", 2.5),
            ("fast", 3.0), ("slow", 5.0), ("slow", 7.5),
        ]

    def test_negative_yield_rejected(self):
        sim = Simulation()

        def proc():
            yield -1.0

        sim.spawn(proc())
        with pytest.raises(ValueError, match="negative delay"):
            sim.run()

    def test_unsupported_yield_type_rejected(self):
        sim = Simulation()

        def proc():
            yield "nonsense"

        sim.spawn(proc())
        with pytest.raises(TypeError):
            sim.run()

    def test_yield_none_reschedules_at_same_time(self):
        sim = Simulation()
        trace = []

        def proc():
            trace.append(sim.now)
            yield None
            trace.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert trace == [0.0, 0.0]

    def test_done_signal_fires_with_result(self):
        sim = Simulation()
        results = []

        def proc():
            yield 1.0
            return 42

        process = sim.spawn(proc())
        process.done_signal.wait(lambda value: results.append(value))
        sim.run()
        assert results == [42]
        assert process.finished and process.result == 42


class TestBulkScheduling:
    def test_schedule_many_matches_sequential(self):
        """Bulk scheduling preserves FIFO tie-breaking exactly."""
        times = [3.0, 1.0, 3.0, 0.0, 1.0]

        def run(bulk):
            sim = Simulation()
            trace = []
            entries = [(t, lambda i=i, t=t: trace.append((t, i)))
                       for i, t in enumerate(times)]
            if bulk:
                sim.schedule_many(entries, label="bulk")
            else:
                for t, callback in entries:
                    sim.schedule_at(t, callback)
            sim.run()
            return trace

        assert run(bulk=True) == run(bulk=False)

    def test_schedule_many_rejects_past_times(self):
        sim = Simulation()
        sim.clock.advance(10.0)
        with pytest.raises(ValueError, match="past"):
            sim.schedule_many([(11.0, lambda: None), (9.0, lambda: None)])
        # the failed batch must not have enqueued anything
        assert len(sim.queue) == 0

    def test_events_dispatched_counter(self):
        sim = Simulation()
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        doomed = sim.schedule_at(4.0, lambda: None)
        doomed.cancel()
        sim.run()
        # cancelled events never dispatch
        assert sim.events_dispatched == 3
