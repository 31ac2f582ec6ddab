"""Tests for the virtual clock."""

import pytest

from repro.sim.clock import ClockError, SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_advance_returns_new_time(self):
        clock = SimClock()
        assert clock.advance(3.25) == 3.25
        assert clock.now == 3.25

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.0)
        clock.advance(2.0)
        clock.advance(0.5)
        assert clock.now == pytest.approx(3.5)

    def test_advance_by_zero_is_allowed(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(0.0)
        assert clock.now == 5.0

    def test_negative_advance_rejected(self):
        clock = SimClock()
        with pytest.raises(ClockError):
            clock.advance(-0.001)

    def test_set_time_moves_forward(self):
        clock = SimClock()
        clock.set_time(10.0)
        assert clock.now == 10.0

    def test_set_time_to_current_is_noop(self):
        clock = SimClock()
        clock.advance(4.0)
        clock.set_time(4.0)
        assert clock.now == 4.0

    def test_set_time_backwards_rejected(self):
        clock = SimClock()
        clock.advance(10.0)
        with pytest.raises(ClockError):
            clock.set_time(9.999)
