"""Property test over the restore-path feature matrix.

Pipeline workers x node cache policy x store (flat registry or a
sharded ring) x restore mode x in-memory images, all through one
:class:`RestoreEngine`. Whatever the combination, the restore must
stay internally consistent:

* the recorded ``restore.*`` sub-phases add up to the jittered charge
  exactly (the recorder gives the last part the remainder);
* the ``chunk_cache_*`` counters equal the cache's own stats;
* the flat registry and a clean 1-node RF=1 ring leave the same cache
  stats, the same counters and the same charges;
* a same-seed re-run charges exactly the same.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.chunkcache import FREQ_OVER_SIZE, LRU, HotChunkCache
from repro.criu.pagestore import PageStore, layer_image
from repro.criu.restore import RestoreEngine, RestoreMode
from repro.criu.shardstore import ShardedSnapshotStore
from repro.obs.profile import install as install_profiler

MIB = 1024 * 1024

# Two small images sharing a runtime-like base, so a cache warmed by
# one serves part of the other; a 1 MiB cache forces evictions.
CACHE_BYTES = 1 * MIB


class _ChargeLog:
    """Cost-model proxy that keeps every jittered restore charge."""

    def __init__(self, costs) -> None:
        self._costs = costs
        self.charges = []

    def __getattr__(self, name):
        return getattr(self._costs, name)

    def jitter(self, median, streams, stream_name):
        value = self._costs.jitter(median, streams, stream_name)
        if stream_name == "criu.restore":
            self.charges.append(value)
        return value


def _images(kernel):
    images = []
    for own in ("fn-a", "fn-b"):
        proc = kernel.clone(kernel.init_process, comm=own)
        proc.address_space.grow_anon("base", 0.75, content_tag="base")
        proc.address_space.grow_anon("heap", 0.5, content_tag=own)
        images.append(
            CheckpointEngine(kernel).dump(proc, leave_running=False))
    return images


def _run(seed, workers, policy, store, mode, in_memory, sequence):
    """Restore ``sequence`` (image indices); return what it left."""
    world = make_world(seed=seed, observe=True)
    kernel = world.kernel
    log = _ChargeLog(kernel.costs)
    kernel.costs = log
    profiler = install_profiler(kernel)
    images = _images(kernel)
    shard_store = None
    if store is not None:
        nodes, rf = store
        shard_store = ShardedSnapshotStore(kernel, node_count=nodes,
                                           replication_factor=rf)
        pages = PageStore()
        for image in images:
            shard_store.register_image(layer_image(image, pages))
    cache = (HotChunkCache(capacity_bytes=CACHE_BYTES, policy=policy)
             if policy is not None else None)
    engine = RestoreEngine(kernel, pipeline_workers=workers,
                           chunk_cache=cache, shard_store=shard_store)
    phase_sums = []
    for index in sequence:
        profiler.reset()
        engine.restore(images[index], mode=mode, in_memory=in_memory)
        total = 0.0
        for sample in profiler.reset():
            if sample.phase.startswith("restore."):
                total += sample.duration_ms
        phase_sums.append(total)
    metrics = kernel.obs.metrics
    counters = tuple(metrics.value(f"chunk_cache_{name}_total")
                     for name in ("lookups", "hits", "misses"))
    return log.charges, phase_sums, cache, counters


MATRIX = dict(
    seed=st.integers(min_value=1, max_value=10_000),
    workers=st.sampled_from((1, 2, 4)),
    policy=st.sampled_from((None, LRU, FREQ_OVER_SIZE)),
    store=st.one_of(
        st.none(),
        st.integers(min_value=1, max_value=3).flatmap(
            lambda nodes: st.tuples(
                st.just(nodes), st.integers(min_value=1, max_value=nodes)))),
    mode=st.sampled_from(tuple(RestoreMode)),
    in_memory=st.booleans(),
    sequence=st.lists(st.integers(min_value=0, max_value=1),
                      min_size=1, max_size=5),
)


class TestRestoreFeatureMatrix:
    @settings(max_examples=40, deadline=None)
    @given(**MATRIX)
    def test_restore_path_is_consistent(self, seed, workers, policy, store,
                                        mode, in_memory, sequence):
        args = (seed, workers, policy, store, mode, in_memory, sequence)
        charges, phase_sums, cache, counters = _run(*args)
        assert len(charges) == len(sequence)
        assert phase_sums == charges

        if cache is None:
            assert counters == (0.0, 0.0, 0.0)
        else:
            stats = cache.stats
            assert counters == (float(stats.lookups), float(stats.hits),
                                float(stats.misses))

        again, _, _, _ = _run(*args)
        assert again == charges

        if cache is not None:
            flat = _run(seed, workers, policy, None, mode, in_memory,
                        sequence)
            ring = _run(seed, workers, policy, (1, 1), mode, in_memory,
                        sequence)
            assert flat[2].stats == ring[2].stats
            assert flat[3] == ring[3]
            assert flat[0] == ring[0]
