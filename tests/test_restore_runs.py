"""Run-length manifest walks leave exactly what per-window walks leave.

Every restore-side walk over a chunk manifest (the node cache's
lookups, the deployer's locality, pull and prefetch accounting, the
flat and sharded restore passes) takes one step per run of equal
windows. Each is checked here against the per-window walk it replaced:
the same results, and the same cache, sketch and store state after.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.core.policy import AfterWarmup
from repro.criu import chunkcache
from repro.criu.chunkcache import FREQ_OVER_SIZE, LRU, HotChunkCache
from repro.criu import pagestore
from repro.criu.pagestore import (
    ChunkRef,
    LayeredImage,
    PageStore,
    SnapshotLayer,
    chunk_runs,
    image_chunk_runs,
    image_windows,
    layer_image,
)
from repro.criu.restore import RestoreEngine
from repro.faas.platform import FaaSPlatform, PlatformConfig
from repro.functions import make_app
from repro.functions.synthetic import custom_function
from repro.obs.fleet import SpaceSavingSketch
from repro.osproc.memory import PAGE_SIZE

KIB = 1024


def cache_state(cache: HotChunkCache):
    """Everything a lookup can change, resident order included."""
    return (list(cache._resident.items()), dict(cache._freq), cache._tick,
            cache.used_bytes, dataclasses.asdict(cache.stats))


def sketch_state(sketch: SpaceSavingSketch):
    return (dict(sketch._counts), dict(sketch._errors), sketch.total,
            sketch.top(sketch.capacity))


def expand(runs):
    return [(cid, size) for cid, size, count in runs for _ in range(count)]


def windows_of(image):
    """``(chunk id, size bytes)`` of each chunk window, in manifest order."""
    return [(cid, len(pairs) * PAGE_SIZE)
            for _vma, _start, pairs, cid in image_windows(image)]


# -- the cache's run lookup ---------------------------------------------------

# Sizes are a function of the chunk id, as for real chunk windows; chunk
# "f" is larger than any capacity drawn below.
_SIZES = {"a": 1, "b": 2, "c": 3, "d": 5, "e": 8, "f": 64}
_cache_ops = st.lists(st.tuples(st.sampled_from(["run", "prefetch"]),
                                st.sampled_from(sorted(_SIZES)),
                                st.integers(min_value=0, max_value=6)),
                      max_size=40)


@given(ops=_cache_ops, policy=st.sampled_from([FREQ_OVER_SIZE, LRU]),
       capacity=st.integers(min_value=1, max_value=20),
       ghosts=st.sampled_from([2, 3, 65536]))
@settings(max_examples=400, deadline=None)
def test_run_lookup_equals_single_lookups(ops, policy, capacity, ghosts):
    with pytest.MonkeyPatch.context() as patch:
        # A tiny ghost bound makes the frequency history trim mid-run.
        patch.setattr(chunkcache, "_MAX_GHOST_ENTRIES", ghosts)
        runs = HotChunkCache(capacity_bytes=capacity, policy=policy)
        singles = HotChunkCache(capacity_bytes=capacity, policy=policy)
        for kind, cid, count in ops:
            size = _SIZES[cid]
            if kind == "prefetch":
                assert runs.prefetch(cid, size) == singles.prefetch(cid, size)
            else:
                hits = runs.lookup_run(cid, size, count)
                assert hits == sum(singles.lookup(cid, size)
                                   for _ in range(count))
            assert cache_state(runs) == cache_state(singles)


# -- the sketch's weighted offer ----------------------------------------------

@given(offers=st.lists(st.tuples(st.sampled_from("abcdefghij"),
                                 st.integers(min_value=1, max_value=7)),
                       max_size=60),
       capacity=st.integers(min_value=1, max_value=5))
@settings(max_examples=400, deadline=None)
def test_weighted_offer_equals_unit_offers(offers, capacity):
    weighted = SpaceSavingSketch(capacity)
    units = SpaceSavingSketch(capacity)
    for key, count in offers:
        weighted.offer(key, float(count))
        for _ in range(count):
            units.offer(key)
        assert sketch_state(weighted) == sketch_state(units)


# -- runs of real manifests ---------------------------------------------------

def test_chunk_runs_fold_consecutive_equal_windows():
    windows = [("x", 4), ("x", 4), ("y", 4), ("x", 4), ("x", 2)]
    assert chunk_runs(windows) == (("x", 4, 2), ("y", 4, 1),
                                   ("x", 4, 1), ("x", 2, 1))
    assert chunk_runs([]) == ()


_FACTORIES = (
    lambda: make_app("markdown"),
    lambda: custom_function(400, 2_000.0, name="syn-a"),
    lambda: custom_function(900, 6_000.0, name="syn-b"),
)


def _platform(storage_nodes: int = 0, capacity: int = 0):
    """A small fleet, every function baked and one replica of each started.

    Identical arguments give identical platforms. ``capacity`` > 0
    gives every compute node a cache that small before the first
    replica, so walks meet evictions and admission rejects.
    """
    world = make_world(seed=11, observe=True)
    platform = FaaSPlatform(world.kernel, PlatformConfig(
        nodes=2, storage_nodes=storage_nodes,
        replication_factor=2 if storage_nodes else 1))
    names = [platform.register_function(
        factory, start_technique="prebake",
        snapshot_policy=AfterWarmup(requests=1),
        cache_policy=FREQ_OVER_SIZE).name for factory in _FACTORIES]
    if capacity:
        for node in platform.resources.nodes:
            platform.deployer._node_chunk_cache[node.name] = HotChunkCache(
                capacity_bytes=capacity)
    for name in names:
        assert platform.invoke(name).status == 200
    return world, platform, names


def _metadata(platform, name):
    return platform.registry.lookup(name)


def _layered(platform, name):
    deployer = platform.deployer
    return deployer.prebake_manager.store.layered(
        deployer._snapshot_key(_metadata(platform, name)))


def _image(platform, name):
    deployer = platform.deployer
    return deployer.prebake_manager.store.get(
        deployer._snapshot_key(_metadata(platform, name)))


def _caches(platform):
    return platform.deployer._node_chunk_cache


@pytest.fixture(scope="module")
def fleet():
    return _platform(storage_nodes=3)


def test_runs_expand_to_the_manifests(fleet):
    _, platform, names = fleet
    for name in names:
        layered = _layered(platform, name)
        assert expand(layered.chunk_runs) == [
            (ref.chunk_id, ref.size_bytes) for ref in layered.chunk_refs]
        assert len(layered.chunk_runs) < len(layered.chunk_refs)
        image = _image(platform, name)
        assert expand(image_chunk_runs(image)) == windows_of(image)


def _reference_layer(image, store):
    """``layer_image`` as it was: one ``PageStore.add`` per window."""
    refs = {name: [] for name in (pagestore.RUNTIME_BASE_LAYER,
                                  pagestore.FUNCTION_CODE_LAYER,
                                  pagestore.WARM_DELTA_LAYER)}
    for vma_index, window_start, pairs, cid in image_windows(
            image, store.chunk_pages, store.window_memo):
        vma = image.vmas[vma_index]
        store.add(vma.kind, vma.prot, pairs, cid=cid)
        refs[pagestore._vma_layer(vma, frozenset())].append(ChunkRef(
            vma_index=vma_index, window_start=window_start, chunk_id=cid,
            page_count=len(pairs)))
    return LayeredImage(image_id=image.image_id, layers=[
        SnapshotLayer(name, tuple(chunk_refs))
        for name, chunk_refs in refs.items()])


def _page_store_state(store):
    return ({cid: (chunk.kind, chunk.prot, chunk.pairs)
             for cid, chunk in store._chunks.items()},
            store.dedup_hits)


def tamper_at(image, first, pages):
    """``image.tamper(pages)``, starting ``first`` resident pages into
    the first VMA that has any (clamped to its last page)."""
    image.generation += 1
    for index, vma in enumerate(image.vmas):
        if vma.resident_pages:
            tags = list(vma.content_tags)
            start = min(first, len(tags) - 1)
            for offset in range(start, min(start + pages, len(tags))):
                tags[offset] += "\x00corrupt"
            image.vmas[index] = vma.with_pages(vma.resident_indices, tags)
            return


@pytest.mark.parametrize("chunk_pages", [64, 8])
def test_layering_registers_runs_as_the_per_window_walk_did(fleet, chunk_pages):
    _, platform, names = fleet
    images = [_image(platform, name) for name in names]
    # A copy with one retagged page inside a run of equal heap windows.
    tampered = dataclasses.replace(images[-1], vmas=list(images[-1].vmas))
    tamper_at(tampered, 3 * chunk_pages + 1, 1)
    by_runs, by_windows = PageStore(chunk_pages), PageStore(chunk_pages)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        add = PageStore.add
        patch.setattr(PageStore, "add", lambda store, *args, **kwargs: (
            calls.append(store is by_runs) or add(store, *args, **kwargs)))
        # The second time round every window dedups.
        for image in images + [tampered] + images:
            assert layer_image(image, by_runs) == \
                _reference_layer(image, by_windows)
            assert _page_store_state(by_runs) == _page_store_state(by_windows)
    assert by_runs.dedup_hits > 0
    # One add per run of equal windows, not one per window.
    assert 0 < calls.count(True) < calls.count(False)


# -- the deployer's four walks ------------------------------------------------

def _reference_cached(cache, layered):
    return sum(ref.size_bytes for ref in layered.chunk_refs
               if cache is not None and cache.contains(ref.chunk_id))


@pytest.mark.parametrize("capacity", [0, 1024 * KIB])
def test_locality_hint_equals_the_per_window_choice(capacity):
    _, platform, names = _platform(storage_nodes=3, capacity=capacity)
    caches = _caches(platform)
    for name in names:
        scores = {node: _reference_cached(caches[node], _layered(platform, name))
                  for node in sorted(caches)}
        best = max(scores.values())
        expected = None if best == 0 else min(
            node for node, cached in scores.items() if cached == best)
        assert platform.deployer._locality_hint(
            _metadata(platform, name)) == expected


@pytest.mark.parametrize("capacity", [0, 1024 * KIB])
def test_placement_locality_equals_the_per_window_sum(capacity):
    world, platform, names = _platform(storage_nodes=3, capacity=capacity)
    metrics = world.kernel.obs.metrics
    caches = _caches(platform)
    misses = set()
    for name in names:
        layered = _layered(platform, name)
        total = sum(ref.size_bytes for ref in layered.chunk_refs)
        for node in ("node-0", "node-1"):
            labels = {"function": name, "node": node}
            before = metrics.value("deployer_locality_miss_total", labels)
            platform.deployer._account_placement_locality(
                _metadata(platform, name), node)
            missed = metrics.value("deployer_locality_miss_total", labels) > before
            assert missed == (
                _reference_cached(caches.get(node), layered) * 2 < total)
            misses.add(missed)
    assert misses == {True, False}  # both outcomes are exercised


def test_locality_walks_weigh_each_run_by_its_length():
    """Caches where counting windows and counting runs disagree."""
    world, platform, names = _platform(storage_nodes=3)
    name = names[2]
    layered = _layered(platform, name)
    runs = layered.chunk_runs
    longest = max(runs, key=lambda run: run[2])
    short = [run for run in runs if run[2] <= 2 and run[0] != longest[0]]
    caches = _caches(platform)
    caches.clear()
    caches["node-0"], caches["node-1"] = HotChunkCache(), HotChunkCache()
    caches["node-0"].prefetch(longest[0], longest[1])
    for cid, size, _count in short:
        caches["node-1"].prefetch(cid, size)
    # Per run, node-1 would hold more bytes; per window, node-0 does.
    assert sum(size for _cid, size, _count in short) > longest[1]
    scores = {node: _reference_cached(cache, layered)
              for node, cache in caches.items()}
    assert scores["node-0"] > scores["node-1"]
    metadata = _metadata(platform, name)
    assert platform.deployer._locality_hint(metadata) == "node-0"

    total = sum(ref.size_bytes for ref in layered.chunk_refs)
    assert scores["node-0"] * 2 < total
    assert longest[1] * longest[2] * 2 > sum(size for _cid, size, _n in runs)
    metrics = world.kernel.obs.metrics
    labels = {"function": name, "node": "node-0"}
    platform.deployer._account_placement_locality(metadata, "node-0")
    assert metrics.value("deployer_locality_miss_total", labels) == 1


def _reference_layer_pull(deployer, layered, node):
    cache = deployer.node_cache(node)
    pulled = cached = 0
    for ref in layered.chunk_refs:
        deployer.chunk_sketch.offer(ref.chunk_id)
        if cache.lookup(ref.chunk_id, ref.size_bytes):
            cached += ref.size_bytes
        else:
            pulled += ref.size_bytes
    return pulled, cached


@pytest.mark.parametrize("storage_nodes", [0, 3])
@pytest.mark.parametrize("capacity", [0, 1024 * KIB])
def test_layer_pull_equals_the_per_window_walk(capacity, storage_nodes):
    world, runs, names = _platform(storage_nodes, capacity)
    _, windows, _ = _platform(storage_nodes, capacity)
    metrics = world.kernel.obs.metrics
    for node in ("node-1", "node-0"):
        for name in names + names[::-1]:
            labels = {"function": name}
            before = (metrics.value("deployer_layer_bytes_pulled_total", labels),
                      metrics.value("deployer_layer_bytes_cached_total", labels))
            runs.deployer._account_layer_pull(_metadata(runs, name), node)
            after = (metrics.value("deployer_layer_bytes_pulled_total", labels),
                     metrics.value("deployer_layer_bytes_cached_total", labels))
            expected = _reference_layer_pull(
                windows.deployer, _layered(windows, name), node)
            assert (after[0] - before[0], after[1] - before[1]) == expected
            assert cache_state(runs.deployer.node_cache(node)) == \
                cache_state(windows.deployer.node_cache(node))
            assert sketch_state(runs.deployer.chunk_sketch) == \
                sketch_state(windows.deployer.chunk_sketch)
    if capacity:  # the small caches did evict and reject
        stats = runs.deployer.node_cache("node-0").stats
        assert stats.evictions and stats.admission_rejects


def _reference_prefetch(platform, name, node, budget):
    """The per-window prefetch walk onto ``node``."""
    deployer = platform.deployer
    cache = deployer._restore_cache(node, _metadata(platform, name))
    refs = _layered(platform, name).chunk_refs
    if all(cache.contains(ref.chunk_id) for ref in refs):
        return 0
    heat = {cid: count for cid, count, _ in deployer.chunk_sketch.top(512)}
    ranked = sorted(
        refs, key=lambda ref: (-heat.get(ref.chunk_id, 0.0), ref.chunk_id))
    admitted = 0
    for ref in ranked:
        if cache.contains(ref.chunk_id):
            continue
        if admitted + ref.size_bytes > budget:
            continue
        if cache.prefetch(ref.chunk_id, ref.size_bytes):
            admitted += ref.size_bytes
    return admitted


@pytest.mark.parametrize("storage_nodes", [0, 3])
@pytest.mark.parametrize("capacity,budget", [
    (0, 1 << 40), (0, 2048 * KIB), (1024 * KIB, 1 << 40), (768 * KIB, 512 * KIB)])
def test_prefetch_equals_the_per_window_walk(capacity, budget, storage_nodes):
    _, runs, names = _platform(storage_nodes, capacity)
    _, windows, _ = _platform(storage_nodes, capacity)
    for platform in (runs, windows):
        # Start from empty node caches, so the prefetches admit.
        platform.deployer._resident_images.clear()
        for node in platform.resources.nodes:
            platform.deployer._node_chunk_cache[node.name] = HotChunkCache(
                capacity_bytes=capacity or chunkcache.DEFAULT_CAPACITY_BYTES)
    admitted = []
    for _ in range(2):
        for name in names:
            # The node the deployer prefetches onto: its placement hint.
            node = (runs.deployer._locality_hint(_metadata(runs, name))
                    or runs.resources.nodes[0].name)
            got = runs.deployer.prefetch_function(name, budget)
            want = _reference_prefetch(windows, name, node, budget)
            assert got == want
            admitted.append(got)
            assert cache_state(_caches(runs)[node]) == \
                cache_state(_caches(windows)[node])
    assert any(admitted)


# -- the two restore passes ---------------------------------------------------

def _reference_cache_pass(cache, image):
    if cache is None:
        return 0, 0, 0, 0
    hits = hit_bytes = total = 0
    windows = windows_of(image)
    for cid, size in windows:
        total += size
        if cache.lookup(cid, size):
            hits += 1
            hit_bytes += size
    return len(windows), hits, hit_bytes, total


@pytest.mark.parametrize("capacity", [None, 256 * 1024 * KIB, 1024 * KIB])
def test_chunk_cache_pass_equals_per_window_lookups(fleet, capacity):
    world, platform, names = fleet
    def make():
        return None if capacity is None else HotChunkCache(capacity)
    runs_cache, windows_cache = make(), make()
    engine = RestoreEngine(world.kernel, chunk_cache=runs_cache)
    for name in names + names[::-1] + names:
        image = _image(platform, name)
        assert engine._chunk_cache_pass(image) == \
            _reference_cache_pass(windows_cache, image)
        if capacity is not None:
            assert cache_state(runs_cache) == cache_state(windows_cache)


def _reference_restore_pass(store, image, cache):
    """The per-window sharded pass: (report fields, failed chunk ids)."""
    store.maybe_crash_node(detail=image.image_id)
    out = dict(chunks=0, total_bytes=0, cached_chunks=0, cached_bytes=0,
               shard_chunks=0, degraded_chunks=0, retry_hops=0, slow_ms=0.0)
    failed = []
    for cid, size in windows_of(image):
        out["chunks"] += 1
        out["total_bytes"] += size
        if cache is not None and cache.contains(cid):
            cache.lookup(cid, size)
            out["cached_chunks"] += 1
            out["cached_bytes"] += size
            continue
        fetched = store.fetch_window(cid)
        out["retry_hops"] += fetched.retry_hops
        out["slow_ms"] += fetched.slow_ms
        if fetched.found:
            out["shard_chunks"] += 1
            if fetched.degraded:
                out["degraded_chunks"] += 1
            if cache is not None:
                cache.lookup(cid, size)
        else:
            failed.append(cid)
    return out, failed


def _store_state(store):
    return ({name: dict(node.holdings) for name, node in store.nodes.items()},
            {name: (b.state, b.consecutive_failures, b.opens)
             for name, b in store.breakers.items()})


def _damage(platform, names):
    """One storage node down, and one up node missing a window it homes."""
    store = platform.shard_store
    store.fail_node("store-0", down_for_ms=600_000.0)
    cid = _layered(platform, names[2]).chunk_refs[-1].chunk_id
    for home in store.placement(cid):
        if home != "store-0":
            del store.nodes[home].holdings[cid]
            break


@pytest.mark.parametrize("capacity", [None, 256 * 1024 * KIB, 1024 * KIB])
def test_shard_restore_pass_equals_per_window_fetches(capacity):
    _, runs, names = _platform(storage_nodes=3)
    _, windows, _ = _platform(storage_nodes=3)
    _damage(runs, names)
    _damage(windows, names)
    def make():
        return None if capacity is None else HotChunkCache(capacity)
    runs_cache, windows_cache = make(), make()
    fields = ("chunks", "total_bytes", "cached_chunks", "cached_bytes",
              "shard_chunks", "degraded_chunks", "retry_hops", "slow_ms")
    hops = 0
    for name in names + names[::-1]:
        report = runs.shard_store.restore_pass(_image(runs, name),
                                               cache=runs_cache)
        expected, failed = _reference_restore_pass(
            windows.shard_store, _image(windows, name), windows_cache)
        assert {f: getattr(report, f) for f in fields} == expected
        assert report.failed_chunks == failed
        assert _store_state(runs.shard_store) == \
            _store_state(windows.shard_store)
        if capacity is not None:
            assert cache_state(runs_cache) == cache_state(windows_cache)
        hops += report.retry_hops
    assert hops > 0
