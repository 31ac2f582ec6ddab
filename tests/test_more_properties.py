"""Cross-cutting property-based invariants over the whole stack."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.bench.stats import ecdf
from repro.sim.costmodel import DEFAULT_COST_MODEL
from repro.sim.engine import Simulation


class TestCostModelProperties:
    @given(a=st.floats(min_value=0.0, max_value=500.0),
           b=st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=60)
    def test_restore_cost_monotone_in_size(self, a, b):
        m = DEFAULT_COST_MODEL
        low, high = sorted((a, b))
        assert m.restore_cost(low) <= m.restore_cost(high)

    @given(classes=st.integers(min_value=0, max_value=5000),
           kib=st.floats(min_value=0.0, max_value=100_000.0))
    @settings(max_examples=60)
    def test_restored_load_never_exceeds_cold_load(self, classes, kib):
        m = DEFAULT_COST_MODEL
        assert m.restored_load_cost(classes, kib) <= \
            m.cold_load_cost(classes, kib) + 1e-9

    @given(mib=st.floats(min_value=0.0, max_value=1000.0))
    @settings(max_examples=60)
    def test_dump_cost_positive_and_monotone(self, mib):
        m = DEFAULT_COST_MODEL
        assert m.dump_cost(mib) > 0
        assert m.dump_cost(mib + 1.0) > m.dump_cost(mib)


class TestEcdfProperties:
    @given(data=st.lists(st.floats(min_value=-1e6, max_value=1e6),
                         min_size=1, max_size=200))
    @settings(max_examples=60)
    def test_ecdf_monotone_and_bounded(self, data):
        xs, ps = ecdf(data)
        assert xs == sorted(xs)
        assert all(0.0 < p <= 1.0 for p in ps)
        assert all(a <= b for a, b in zip(ps, ps[1:]))
        assert ps[-1] == 1.0


class TestEngineProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0),
                           min_size=1, max_size=30))
    @settings(max_examples=40)
    def test_events_dispatch_in_time_order(self, delays):
        sim = Simulation()
        fired = []
        for delay in delays:
            sim.schedule_in(delay, lambda d=delay: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert sim.now == pytest.approx(max(delays))

    @given(delays=st.lists(st.floats(min_value=0.01, max_value=50.0),
                           min_size=1, max_size=10))
    @settings(max_examples=40)
    def test_sequential_process_time_sums(self, delays):
        sim = Simulation()

        def proc():
            for delay in delays:
                yield delay
            return sim.now

        process = sim.spawn(proc())
        sim.run()
        assert process.result == pytest.approx(sum(delays))


class TestSnapshotStoreProperties:
    @given(seed=st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_snapshot_restore_count_monotone(self, seed):
        from repro.core.manager import PrebakeManager
        from repro.functions import make_app
        world = make_world(seed=seed)
        manager = PrebakeManager(world.kernel)
        app = make_app("noop")
        manager.deploy(app)
        key = manager.prebaker.store.keys()[0]
        counts = []
        for _ in range(3):
            manager.start_replica(app, technique="prebake")
            counts.append(manager.prebaker.store.restore_count(key))
        assert counts == sorted(counts)
        assert counts[-1] == 3


class TestDeterminismProperties:
    @given(seed=st.integers(0, 2**20))
    @settings(max_examples=15, deadline=None)
    def test_same_seed_same_startup(self, seed):
        from repro.core.starters import VanillaStarter
        from repro.functions import make_app

        def measure():
            world = make_world(seed=seed)
            handle = VanillaStarter(world.kernel).start(make_app("markdown"))
            return handle.startup_ms("ready")

        assert measure() == measure()
