"""Tests for the sharded, replicated snapshot store (ISSUE 7).

Covers the hash ring, the circuit breaker, quorum fetches and direct
writes (a home that is down at the write serves the window once it is
back), the degraded-mode restore ladder through the
platform, the RF=1 byte-identity guarantee, the X10
shard-chaos experiment, and the satellite items (eviction counter
export, ghost-history promotion).
"""

import pytest

from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady
from repro.core.starters import PrebakeStarter
from repro.core.store import SnapshotStore
from repro.criu.chunkcache import LRU, HotChunkCache
from repro.criu.shardstore import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    CircuitBreaker,
    HashRing,
    ShardedSnapshotStore,
)
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions import make_app


def _replicas(store, cid):
    """Live, reachable copies of one window right now."""
    return sum(1 for home in store.placement(cid)
               if store.nodes[home].up and cid in store.nodes[home].holdings)


def _stored_bytes(store):
    """Bytes each node's disk holds."""
    return {name: sum(node.holdings.values())
            for name, node in store.nodes.items()}


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_walk_yields_each_node_once(self):
        ring = HashRing([f"store-{i}" for i in range(5)])
        walked = list(ring.walk("some-chunk-digest"))
        assert sorted(walked) == [f"store-{i}" for i in range(5)]

    def test_nodes_for_returns_distinct_prefix(self):
        ring = HashRing(["a", "b", "c"])
        homes = ring.nodes_for("digest", 2)
        assert len(homes) == 2
        assert len(set(homes)) == 2

    def test_placement_is_deterministic_across_instances(self):
        names = [f"store-{i}" for i in range(4)]
        first = HashRing(names)
        second = HashRing(names)
        for digest in ("aa", "bb", "cc", "dd", "ee"):
            assert first.nodes_for(digest, 2) == second.nodes_for(digest, 2)

    def test_rejects_empty_ring(self):
        with pytest.raises(ValueError, match="at least one node"):
            HashRing([])


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker()          # threshold 3, 2 s cooldown
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.0)      # third failure opens
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(500.0)         # still cooling down

    def test_half_open_probe_then_close_on_success(self):
        breaker = CircuitBreaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allow(2_000.0)           # cooldown elapsed: probe
        assert breaker.state == BREAKER_HALF_OPEN
        assert breaker.record_success()         # probe worked: closed
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_probe_failure_reopens(self):
        breaker = CircuitBreaker()
        for _ in range(3):
            breaker.record_failure(0.0)
        assert breaker.allow(2_500.0)
        assert breaker.record_failure(2_500.0)  # one strike in half-open
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(4_000.0)       # new cooldown from 2500

    def test_success_resets_failure_streak(self):
        breaker = CircuitBreaker()
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        breaker.record_success()
        breaker.record_failure(0.0)
        assert not breaker.record_failure(0.0)  # streak restarted
        assert breaker.state == BREAKER_CLOSED


# ---------------------------------------------------------------------------
# Placement, quorum fetch, writes during an outage
# ---------------------------------------------------------------------------


def _baked_layered(kernel, name="markdown"):
    store = SnapshotStore()
    report = Prebaker(kernel, store).bake(make_app(name), policy=AfterReady())
    return store.layered(report.key)


class TestShardedSnapshotStore:
    def test_replication_factor_bounds(self, kernel):
        with pytest.raises(ValueError, match="replication_factor"):
            ShardedSnapshotStore(kernel, node_count=3, replication_factor=4)
        with pytest.raises(ValueError, match="replication_factor"):
            ShardedSnapshotStore(kernel, node_count=3, replication_factor=0)

    def test_register_places_rf_copies_on_every_window(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered)
        assert store.has_image(layered.image_id)
        for ref in layered.chunk_refs:
            assert _replicas(store, ref.chunk_id) == 2

    def test_placement_spreads_over_all_nodes(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=1)
        store.register_image(layered)
        balance = _stored_bytes(store)
        assert len(balance) == 5
        # Snapshot windows dedup to a modest set of distinct digests,
        # so demand a spread, not perfection: most nodes own data and
        # the stored bytes add up to exactly one copy of each digest.
        assert sum(1 for stored in balance.values() if stored > 0) >= 3
        distinct = {ref.chunk_id: ref.size_bytes
                    for ref in layered.chunk_refs}
        assert sum(balance.values()) == sum(distinct.values())

    def test_quorum_fetch_survives_one_down_replica(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        homes = store.placement(ref.chunk_id)
        store.fail_node(homes[0], down_for_ms=60_000.0)
        result = store.fetch_window(ref.chunk_id)
        assert result.found
        assert result.served_by == homes[1]
        assert result.retry_hops == 1
        assert result.degraded

    def test_rf1_fetch_fails_when_the_only_home_is_down(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=3,
                                     replication_factor=1)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        (home,) = store.placement(ref.chunk_id)
        store.fail_node(home, down_for_ms=60_000.0)
        result = store.fetch_window(ref.chunk_id)
        assert not result.found
        assert result.retry_hops == 1

    def test_breaker_stops_charging_hops_for_a_dead_node(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=3,
                                     replication_factor=1)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        (home,) = store.placement(ref.chunk_id)
        store.fail_node(home, down_for_ms=600_000.0)
        for _ in range(3):                     # three hops open the breaker
            assert store.fetch_window(ref.chunk_id).retry_hops == 1
        assert store.breakers[home].state == BREAKER_OPEN
        # An open breaker is skipped for free: no more retry hops.
        assert store.fetch_window(ref.chunk_id).retry_hops == 0
        # After the cooldown a half-open probe pays one hop and re-opens.
        kernel.clock.advance(2_500.0)
        assert store.fetch_window(ref.chunk_id).retry_hops == 1
        assert store.breakers[home].state == BREAKER_OPEN

    @pytest.mark.parametrize("rf", [1, 2])
    def test_a_write_during_an_outage_is_served_once_the_home_is_back(
            self, kernel, rf):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=4,
                                     replication_factor=rf)
        ref = layered.chunk_refs[0]
        homes = store.placement(ref.chunk_id)
        store.fail_node(homes[0], down_for_ms=60_000.0)
        store.register_image(layered)          # the bake writes while down
        during = store.fetch_window(ref.chunk_id)
        assert during.retry_hops == 1
        if rf == 1:
            assert not during.found
        else:
            assert during.found and during.served_by == homes[1]
            assert during.degraded
        kernel.clock.advance(60_000.0)
        store._refresh()
        assert store.nodes[homes[0]].up
        after = store.fetch_window(ref.chunk_id)
        assert after.found and after.served_by == homes[0]
        assert after.retry_hops == 0 and not after.degraded


    def test_register_writes_every_home_even_one_that_is_down(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=3)
        down = store.placement(layered.chunk_refs[0].chunk_id)[0]
        store.fail_node(down, down_for_ms=60_000.0)
        store.register_image(layered)
        assert not store.nodes[down].up
        for ref in layered.chunk_refs:
            homes = store.placement(ref.chunk_id)
            for home in homes:
                assert ref.chunk_id in store.nodes[home].holdings
            # Only reachable copies count while ``down`` is out.
            assert _replicas(store, ref.chunk_id) == 3 - (down in homes)

    def test_a_recovered_node_serves_what_its_disk_held(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=4,
                                     replication_factor=1)
        store.register_image(layered)
        ref = layered.chunk_refs[0]
        (home,) = store.placement(ref.chunk_id)
        held = dict(store.nodes[home].holdings)
        store.fail_node(home, down_for_ms=60_000.0)
        assert not store.fetch_window(ref.chunk_id).found
        store.recover_node(home)
        assert store.nodes[home].holdings == held
        result = store.fetch_window(ref.chunk_id)
        assert result.found and result.served_by == home
        assert result.retry_hops == 0

    def test_an_unregistered_window_costs_a_hop_at_each_home(self, kernel):
        """A reachable home that lacks the window answers: a hop, but no
        breaker failure, and nothing is written back."""
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        cid = "0" * 64
        result = store.fetch_window(cid)
        assert not result.found
        assert result.retry_hops == 2
        assert all(b.state == BREAKER_CLOSED
                   for b in store.breakers.values())
        assert _replicas(store, cid) == 0

    def test_registering_an_image_again_changes_no_holding(self, kernel):
        layered = _baked_layered(kernel)
        store = ShardedSnapshotStore(kernel, node_count=5,
                                     replication_factor=2)
        store.register_image(layered)
        before = {n: dict(node.holdings) for n, node in store.nodes.items()}
        store.register_image(layered)
        assert {n: dict(node.holdings)
                for n, node in store.nodes.items()} == before


# ---------------------------------------------------------------------------
# Degraded-mode restores through the platform
# ---------------------------------------------------------------------------


def _sharded_platform(seed=42, rf=2, storage_nodes=5):
    world = make_world(seed=seed, observe=True)
    platform = FaaSPlatform(world.kernel, PlatformConfig(
        nodes=2, storage_nodes=storage_nodes, replication_factor=rf))
    platform.register_function(lambda: make_app("markdown"),
                               start_technique="prebake")
    return world, platform


class TestDegradedRestores:
    def test_rf2_cold_start_survives_a_node_kill_without_fallback(self):
        world, platform = _sharded_platform(rf=2)
        kernel = world.kernel
        assert platform.invoke("markdown").status == 200
        platform.deployer.retire(platform.deployer.replicas("markdown"))
        platform.shard_store.fail_node("store-0", down_for_ms=600_000.0)
        response = platform.invoke("markdown")
        assert response.status == 200
        metrics = kernel.obs.metrics
        assert metrics.value("restore_degraded_total") >= 1
        assert metrics.value("prebake_fallback_total") == 0
        assert metrics.value("shard_fetch_retry_hops_total") >= 1

    def test_rf1_node_kill_rides_the_fallback_ladder(self):
        world, platform = _sharded_platform(rf=1)
        kernel = world.kernel
        assert platform.invoke("markdown").status == 200
        platform.deployer.retire(platform.deployer.replicas("markdown"))
        # Kill the node holding the most of this image; with RF=1 its
        # windows are unobtainable, so prebake must fall back.
        balance = _stored_bytes(platform.shard_store)
        victim = max(balance, key=balance.get)
        platform.shard_store.fail_node(victim, down_for_ms=600_000.0)
        response = platform.invoke("markdown")
        assert response.status == 200          # vanilla start saved it
        metrics = kernel.obs.metrics
        assert metrics.value("prebake_fallback_total") >= 1
        assert metrics.value(
            "criu_restore_failures_total", {"reason": "shard"}) >= 1

    def test_rf1_single_node_store_is_byte_identical_to_unsharded(self):
        """The acceptance pin: a clean single-shard RF=1 store charges
        the exact unsharded restore costs — same seeds, same clock."""
        sequences = []
        for sharded in (False, True):
            world = make_world(seed=42)
            kernel = world.kernel
            store = SnapshotStore()
            prebaker = Prebaker(kernel, store)
            report = prebaker.bake(make_app("markdown"), policy=AfterReady())
            shard_store = None
            if sharded:
                shard_store = ShardedSnapshotStore(kernel, node_count=1,
                                                   replication_factor=1)
                shard_store.register_image(store.layered(report.key))
            starter = PrebakeStarter(kernel, store, policy=AfterReady(),
                                     shard_store=shard_store)
            sequences.append([
                starter.start(make_app("markdown")).startup_ms("ready")
                for _ in range(5)
            ])
        assert sequences[0] == sequences[1]


# ---------------------------------------------------------------------------
# X10 shard-chaos experiment
# ---------------------------------------------------------------------------


class TestShardChaosExperiment:
    def test_rf2_node_kills_cause_zero_failed_requests(self):
        from repro.bench import fault_sweep
        result = fault_sweep.run(
            "shard-chaos", replication_factors=(2,), fault_rates=(0.0, 0.5),
            repetitions=2, requests_per_rep=4)
        assert sum(r.failed for r in result.cells
                   if r.cell.replication_factor >= 2) == 0
        faulty = result.cell(replication_factor=2, rate=0.5)
        assert faulty.requests == 8
        assert faulty.successes == 8
        assert faulty.counts["degraded"] + faulty.counts["fallback"] >= 1
        rendered = result.render()
        assert "RF>=2 failed requests: 0" in rendered
        assert "fault schedule digest:" in rendered

    def test_sweep_is_deterministic_for_a_seed(self):
        from repro.bench import fault_sweep
        runs = [
            fault_sweep.run("shard-chaos", replication_factors=(2,),
                            fault_rates=(0.5,), repetitions=1,
                            requests_per_rep=3)
            for _ in range(2)
        ]
        assert runs[0].render() == runs[1].render()
        assert runs[0].sweep_digest() == runs[1].sweep_digest()


# ---------------------------------------------------------------------------
# Satellites: eviction counter, ghost promotion
# ---------------------------------------------------------------------------


class TestNodeCacheEvictionCounter:
    def test_layer_pull_evictions_are_exported_per_node(self):
        world, platform = _sharded_platform(rf=1, storage_nodes=1)
        kernel = world.kernel
        # Pin both node caches far below the snapshot size so the pull
        # accounting must evict (LRU admits unconditionally).
        for node in ("node-0", "node-1"):
            platform.deployer._node_chunk_cache[node] = HotChunkCache(
                capacity_bytes=256 * 1024, policy=LRU)
        platform.invoke("markdown")
        metrics = kernel.obs.metrics
        total = metrics.value("deployer_node_cache_eviction_total")
        assert total > 0
        per_node = sum(
            metrics.value("deployer_node_cache_eviction_total",
                          {"node": node})
            for node in ("node-0", "node-1"))
        assert per_node == total               # always labeled by node

    def test_counter_exports_deltas_not_running_totals(self):
        world, platform = _sharded_platform(rf=1, storage_nodes=1)
        kernel = world.kernel
        for node in ("node-0", "node-1"):
            platform.deployer._node_chunk_cache[node] = HotChunkCache(
                capacity_bytes=256 * 1024, policy=LRU)
        platform.invoke("markdown")
        first = kernel.obs.metrics.value("deployer_node_cache_eviction_total")
        platform.deployer.retire(platform.deployer.replicas("markdown"))
        platform.invoke("markdown")
        second = kernel.obs.metrics.value("deployer_node_cache_eviction_total")
        caches = platform.deployer._node_chunk_cache.values()
        true_evictions = sum(c.stats.evictions for c in caches)
        assert second >= first
        assert second == true_evictions        # delta export, no double count


class TestGhostHistoryPromotion:
    def test_repeated_layer_pulls_promote_a_rejected_chunk(self):
        """freq-over-size keeps frequency for non-resident chunks, so
        a layer pulled often enough displaces a colder resident one."""
        cache = HotChunkCache(capacity_bytes=100)
        hot_layer = [("chunk-hot", 60)]
        cold_layer = [("chunk-cold", 60)]
        for _ in range(3):                     # hot layer pulled 3 times
            for cid, size in hot_layer:
                cache.lookup(cid, size)
        assert cache.contains("chunk-hot")
        # First two pulls of the other layer: score 1/60 then 2/60
        # never beats the resident 3/60, so admission rejects — but the
        # ghost history remembers each attempt.
        for expected_reject in (1, 2):
            for cid, size in cold_layer:
                assert not cache.lookup(cid, size)
            assert not cache.contains("chunk-cold")
            assert cache.stats.admission_rejects == expected_reject
        # Third pull: the ghost frequency ties the resident score and
        # the newcomer wins the slot.
        for cid, size in cold_layer:
            cache.lookup(cid, size)
        assert cache.contains("chunk-cold")
        assert not cache.contains("chunk-hot")
        assert cache.stats.evictions == 1

    def test_ghost_history_survives_while_not_resident(self):
        cache = HotChunkCache(capacity_bytes=100)
        cache.lookup("resident", 80)
        for _ in range(5):
            cache.lookup("ghost", 90)          # never fits alongside
        # The ghost's remembered frequency lets it take over the cache
        # in one admission once it finally beats the resident score.
        assert cache.contains("ghost")
        assert not cache.contains("resident")
