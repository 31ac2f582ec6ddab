"""Windowed time-series rollups."""

import numpy as np
import pytest

from repro import make_world, obs
from repro.obs.timeseries import (
    COUNTER_SAMPLE,
    TimeseriesTable,
    VALUE_SAMPLE,
    WindowedSeries,
)


class TestWindowedSeries:
    def test_windows_align_to_t0_and_keep_interior_gaps(self):
        series = WindowedSeries("latency_ms")
        for at_ms, value in [(50.0, 1.0), (150.0, 2.0), (850.0, 3.0)]:
            series.record(at_ms, value)
        windows = series.windows(100.0)
        # [0,100) .. [800,900): leading window populated, interior
        # empties kept so the curve shows the gap.
        assert windows[0].start_ms == 0.0
        assert windows[-1].end_ms == 900.0
        assert len(windows) == 9
        assert [w.count for w in windows] == [1, 1, 0, 0, 0, 0, 0, 0, 1]

    def test_window_stats_are_numpy_exact(self):
        series = WindowedSeries("latency_ms")
        values = [5.0, 1.0, 9.0, 3.0]
        for index, value in enumerate(values):
            series.record(10.0 * index, value)
        (window,) = series.windows(100.0)
        assert window.count == 4
        assert window.total == 18.0
        assert window.mean == pytest.approx(4.5)
        assert window.min_value == 1.0
        assert window.max_value == 9.0
        assert window.p50 == pytest.approx(np.percentile(values, 50))
        assert window.p99 == pytest.approx(np.percentile(values, 99))

    def test_ring_is_bounded(self):
        series = WindowedSeries("latency_ms", capacity=3)
        for index in range(10):
            series.record(float(index), float(index))
        assert len(series) == 3
        assert series.total_samples == 10
        assert [v for _, v in series._samples] == [7.0, 8.0, 9.0]


class TestTimeseriesTable:
    def test_helpers_feed_the_table(self):
        kernel = make_world(seed=4, observe=True).kernel
        table = obs.enable_timeseries(kernel, window_ms=100.0)
        kernel.clock.advance(30.0)
        obs.observe(kernel, "criu_restore_duration_ms", 52.0)
        obs.count(kernel, "criu_restore_total")
        assert table._series["criu_restore_duration_ms"].kind == VALUE_SAMPLE
        assert table._series["criu_restore_total"].kind == COUNTER_SAMPLE
        (window,) = table.windows("criu_restore_duration_ms")
        assert window.p50 == 52.0

    def test_rollup_is_json_ready(self):
        table = TimeseriesTable(window_ms=100.0)
        table.record("latency_ms", 10.0, 5.0)
        rollup = table.rollup()
        (window,) = rollup["latency_ms"]
        assert window["count"] == 1
        assert set(window) == {"start_ms", "end_ms", "count", "sum", "mean",
                               "min", "max", "p50", "p99"}

