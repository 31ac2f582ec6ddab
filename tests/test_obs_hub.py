"""One telemetry switch: every layer lives on the hub, and none steers.

Two claims are pinned here:

* the flight tape and the phase profile are hub layers — the kernel
  has no other telemetry attribute, and installing either layer
  installs the hub, so a tape installed "first" still correlates
  events and counts its drops;
* installing every layer at once (hub, tape, profiler, time series,
  SLO burn check) leaves a platform run that combines sharding, node
  caches, prewarming and restore faults bit-identical to the same run
  unobserved.
"""

from repro import make_world, obs
from repro.faas import FaaSPlatform
from repro.faas.platform import PlatformConfig
from repro.faults import FaultPlan, FaultSpec, RESTORE_FAIL
from repro.functions import make_app
from repro.osproc.kernel import Kernel
from repro.predict.policy import PrewarmConfig


def _fault_plan(probability: float) -> FaultPlan:
    return FaultPlan(specs={
        RESTORE_FAIL: FaultSpec(site=RESTORE_FAIL, probability=probability)})


class TestSingleSwitch:
    def test_kernel_has_no_telemetry_attribute_but_the_hub(self):
        kernel = make_world(seed=1).kernel
        assert kernel.obs is None
        assert not hasattr(kernel, "flight")
        assert not hasattr(kernel, "profile")
        assert not hasattr(Kernel, "flight")
        assert not hasattr(Kernel, "profile")

    def test_installing_a_layer_installs_the_hub(self):
        taped = make_world(seed=1).kernel
        recorder = obs.install_flight(taped)
        assert taped.obs is not None and taped.obs.flight is recorder
        assert recorder.tracer is taped.obs.tracer
        assert recorder.metrics is taped.obs.metrics

        profiled = make_world(seed=1).kernel
        profiler = obs.profile.install(profiled)
        assert profiled.obs is not None and profiled.obs.profile is profiler

    def test_tape_installed_before_hub_correlates_and_counts_drops(
            self, monkeypatch):
        monkeypatch.setattr(obs.flight, "CAPACITY", 2)
        kernel = make_world(seed=1).kernel
        recorder = obs.install_flight(kernel)
        hub = obs.install(kernel)
        with obs.span(kernel, "unit.work"):
            for index in range(3):
                obs.record(kernel, "request.admitted", request_id=index)
        assert [e.trace_id for e in recorder.events()] == ["t-0001"] * 2
        assert hub.metrics.value("flight_dropped_total") == 1.0


def _combined_run(observed: bool):
    """Sharded store + node caches + histogram prewarm + restore faults,
    driven by bursts whose 40 s gaps outlast the 30 s prewarm keep-alive
    cap, with an autoscaler tick every simulated second."""
    kernel = make_world(seed=5).kernel
    if observed:
        obs.install(kernel)
        obs.install_flight(kernel)
        obs.profile.install(kernel)
        obs.enable_timeseries(kernel)
        obs.enable_burn_check(kernel, window_ms=500.0)
    platform = FaaSPlatform(kernel, PlatformConfig(
        nodes=2, storage_nodes=4, replication_factor=2,
        prewarm=PrewarmConfig(policy="histogram")))
    functions = ("noop", "markdown")
    for name in functions:
        platform.register_function(lambda name=name: make_app(name),
                                   start_technique="prebake",
                                   cache_policy="freq-over-size")
    injector = platform.install_faults(_fault_plan(0.1))
    due = tick = kernel.clock.now
    for index in range(300):
        if index and index % 20 == 0:
            due += 40_000.0
        while tick <= due:             # the autoscaler ticks every 1 s
            if kernel.clock.now < tick:
                kernel.clock.advance(tick - kernel.clock.now)
            platform.gc_tick()
            tick += 1_000.0
        if kernel.clock.now < due:
            kernel.clock.advance(due - kernel.clock.now)
        platform.invoke(functions[index % 2])
        due += 30.0
    records = [(r.function, r.cold_start, r.total_ms)
               for r in platform.router.stats.records]
    return (records, platform.prewarm.stats, injector.schedule_digest(),
            kernel.clock.now, kernel)


class TestBehaviourNeutral:
    def test_all_layers_installed_leave_a_combined_run_bit_identical(self):
        *plain, _ = _combined_run(observed=False)
        *observed, kernel = _combined_run(observed=True)
        assert observed == plain
        records, stats, _, _ = plain
        assert len(records) == 300
        # Every burst restores again: the gaps outlast the keep-alive
        # cap, and the histogram's timer schedule pre-places a replica
        # per function ahead of each burst.
        assert stats.prewarm_replicas >= 28
        hub = kernel.obs
        assert hub.metrics.value("criu_restore_total") >= 30
        # The telemetry really was live: restores were retried, the
        # profiler attributed the backoff, the tape recorded them.
        assert hub.metrics.value("prebake_restore_retries_total") > 0
        assert obs.profile.fold(hub.profile.samples).get(
            "restore.retry-backoff", 0.0) > 0
        assert any(e.kind == obs.flight.RESTORE_RETRY
                   for e in hub.flight.events())
        assert hub.timeseries.names()
        assert hub.burn.breaches

