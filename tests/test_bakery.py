"""Tests for the concurrent bake service (§7)."""

import pytest

from repro.core.bakery import (
    BakeService,
    bake_farm_sweep,
    measure_bake_duration,
)
from repro.core.policy import AfterWarmup
from repro.sim.engine import Simulation


def make_service(workers=2):
    sim = Simulation()
    service = BakeService(sim, workers=workers)
    service.register_function("fast", 100.0)
    service.register_function("slow", 400.0)
    return sim, service


class TestBakeService:
    def test_single_job(self):
        sim, service = make_service()
        service.submit("fast")
        metrics = service.run()
        job = metrics.jobs[0]
        assert job.queue_wait_ms == 0.0
        assert job.finished_ms - job.submitted_ms == pytest.approx(100.0)

    def test_parallel_jobs_no_queueing(self):
        sim, service = make_service(workers=2)
        service.submit("fast", at_ms=0.0)
        service.submit("fast", at_ms=0.0)
        metrics = service.run()
        assert all(j.queue_wait_ms == 0.0 for j in metrics.jobs)
        assert metrics.makespan_ms == pytest.approx(100.0)

    def test_queueing_beyond_workers(self):
        sim, service = make_service(workers=1)
        for _ in range(3):
            service.submit("fast", at_ms=0.0)
        metrics = service.run()
        waits = sorted(j.queue_wait_ms for j in metrics.jobs)
        assert waits == [pytest.approx(0.0), pytest.approx(100.0),
                         pytest.approx(200.0)]
        assert metrics.makespan_ms == pytest.approx(300.0)

    def test_fifo_order(self):
        sim, service = make_service(workers=1)
        service.submit("slow", at_ms=0.0)
        service.submit("fast", at_ms=0.0)
        metrics = service.run()
        slow = next(j for j in metrics.jobs if j.function == "slow")
        fast = next(j for j in metrics.jobs if j.function == "fast")
        assert slow.started_ms < fast.started_ms

    def test_worker_frees_and_takes_next(self):
        sim, service = make_service(workers=1)
        service.submit("fast", at_ms=0.0)
        service.submit("fast", at_ms=50.0)
        metrics = service.run()
        second = metrics.jobs[1]
        assert second.started_ms == pytest.approx(100.0)
        assert second.queue_wait_ms == pytest.approx(50.0)

    def test_unknown_function_rejected(self):
        _, service = make_service()
        with pytest.raises(KeyError):
            service.submit("ghost")

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            BakeService(Simulation(), workers=0)
        _, service = make_service()
        with pytest.raises(ValueError):
            service.register_function("bad", 0.0)

    def test_empty_metrics(self):
        _, service = make_service()
        assert service.metrics.makespan_ms == 0.0
        assert service.metrics.wait_quantile(0.9) == 0.0


class TestBakeOracle:
    def test_bake_duration_scales_with_function_size(self):
        small = measure_bake_duration("synthetic-small",
                                      policy=AfterWarmup(1))
        big = measure_bake_duration("synthetic-big",
                                    policy=AfterWarmup(1))
        assert big > 1.5 * small

    def test_deterministic(self):
        a = measure_bake_duration("noop")
        b = measure_bake_duration("noop")
        assert a == b


class TestFarmSweep:
    def test_more_workers_shorter_makespan(self):
        results = bake_farm_sweep(
            ["noop", "markdown"], submissions=8,
            worker_counts=[1, 4],
        )
        assert results[4].makespan_ms < 0.5 * results[1].makespan_ms
        assert results[4].wait_quantile(0.9) < results[1].wait_quantile(0.9)

    def test_all_jobs_complete(self):
        results = bake_farm_sweep(["noop"], submissions=5,
                                  worker_counts=[2])
        assert all(j.done for j in results[2].jobs)
        assert len(results[2].jobs) == 5
