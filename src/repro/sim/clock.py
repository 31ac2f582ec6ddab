"""Virtual clock used by the whole simulated substrate.

All durations in this codebase are expressed in *milliseconds* as
floats, matching the unit the paper reports its results in.
"""

from __future__ import annotations


class ClockError(Exception):
    """Raised on attempts to move the clock backwards."""


class SimClock:
    """A monotonically advancing virtual clock.

    The clock is advanced in two ways:

    * synchronously, by substrate code that models work being done
      (:meth:`advance`), e.g. the simulated kernel charging the cost of
      an ``exec`` system call;
    * by the event engine when it dispatches the next scheduled event
      (:meth:`set_time`).
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    @property
    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self._now

    def advance(self, delta_ms: float) -> float:
        """Advance the clock by ``delta_ms`` and return the new time.

        Negative deltas are rejected: simulated work cannot take
        negative time and allowing it would corrupt event ordering.
        """
        if delta_ms < 0:
            raise ClockError(f"cannot advance clock by negative delta {delta_ms!r}")
        self._now += delta_ms
        return self._now

    def set_time(self, t: float) -> None:
        """Jump the clock forward to absolute time ``t`` (engine use)."""
        if t < self._now:
            raise ClockError(f"cannot move clock backwards: {t} < {self._now}")
        self._now = float(t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.3f}ms)"
