"""Node-local hot-chunk cache for snapshot restores.

PR 3's content-addressed store makes snapshots *share* chunks; this
cache makes that sharing pay off at restore time. Each node keeps the
hot subset of registry chunks resident, so a replica restoring on a
node that recently restored the same function — or any function on the
same runtime base — fetches only the cold chunks from the registry.

Two policies:

* ``freq-over-size`` (default) — admission-controlled frequency cache:
  every lookup bumps a per-chunk frequency estimate (kept even for
  chunks not resident, like TinyLFU's ghost history); when the cache is
  full, a new chunk is admitted only if its frequency/size score beats
  the coldest resident chunk's, which protects the cache from one huge
  cold snapshot evicting many small hot chunks.
* ``lru`` — classic recency eviction, always admits.

The cache is deliberately deterministic (no RNG, no wall clock): the
recency stamp is a monotonic lookup counter, so identically seeded
experiments produce identical hit sequences. Resident chunks are kept
in stamp order (a touched chunk moves to the end), so the LRU victim
is the first resident key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

FREQ_OVER_SIZE = "freq-over-size"
LRU = "lru"
POLICIES = (FREQ_OVER_SIZE, LRU)

# Default node cache: 256 MiB holds the paper's whole function set
# (largest snapshot 99.2 MiB) with room for churn; sweeps shrink it to
# force eviction pressure.
DEFAULT_CAPACITY_BYTES = 256 * 1024 * 1024

# Cap on the ghost frequency history so a long-lived node's bookkeeping
# stays bounded; coldest entries are dropped first.
_MAX_GHOST_ENTRIES = 65536


@dataclass
class CacheStats:
    """Cumulative effectiveness counters (what the metrics export)."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    hit_bytes: int = 0
    miss_bytes: int = 0
    evictions: int = 0
    admission_rejects: int = 0
    prefetches: int = 0
    prefetch_bytes: int = 0

    @property
    def hit_ratio(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class HotChunkCache:
    """Bounded chunk-id cache with a real admission/eviction policy."""

    def __init__(self, capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
                 policy: str = FREQ_OVER_SIZE) -> None:
        if policy not in POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; known: {POLICIES}")
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.policy = policy
        self.stats = CacheStats()
        # cid -> (size, stamp), in ascending stamp order.
        self._resident: Dict[str, Tuple[int, int]] = {}
        self._freq: Dict[str, int] = {}                  # ghost history too
        self._used_bytes = 0
        self._tick = 0

    # -- inspection ----------------------------------------------------------

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def contains(self, chunk_id: str) -> bool:
        return chunk_id in self._resident

    # -- the one hot-path operation ------------------------------------------

    def lookup(self, chunk_id: str, size_bytes: int) -> bool:
        """One restore-time chunk access: hit check + admission on miss.

        Returns True when the chunk was already resident (served at
        node-local speed). On a miss the chunk has just been fetched
        from the registry, so the policy decides whether to keep it.
        """
        self._tick += 1
        self.stats.lookups += 1
        freq = self._freq.get(chunk_id, 0) + 1
        self._freq[chunk_id] = freq
        if len(self._freq) > _MAX_GHOST_ENTRIES:
            self._trim_ghosts()
        if chunk_id in self._resident:
            self.stats.hits += 1
            self.stats.hit_bytes += size_bytes
            self._touch(chunk_id, size_bytes)
            return True
        self.stats.misses += 1
        self.stats.miss_bytes += size_bytes
        self._admit(chunk_id, size_bytes, freq)
        return False

    def lookup_run(self, chunk_id: str, size_bytes: int, count: int) -> int:
        """``count`` consecutive :meth:`lookup` calls of one chunk.

        Returns how many of them hit. Leaves exactly the state the
        single lookups would: accesses run one at a time until the chunk
        is resident, and every later access of the run is a hit on the
        newest key, so those are applied at once (tick, lookups, hits,
        hit bytes and frequency advance by the remainder, and the stamp
        is the final tick). A chunk the policy refuses, or one larger
        than the cache, thus misses exactly as often as before.
        """
        hits = 0
        for done in range(1, count + 1):
            hits += self.lookup(chunk_id, size_bytes)
            # Bulk only once a further access can change nothing but
            # counts: the chunk is resident and its frequency entry
            # exists (a ghost trim may have dropped it before admission),
            # so no access adds an entry or trims the history.
            if chunk_id in self._resident and chunk_id in self._freq \
                    and len(self._freq) <= _MAX_GHOST_ENTRIES:
                rest = count - done
                if rest:
                    self._tick += rest
                    self._freq[chunk_id] += rest
                    stats = self.stats
                    stats.lookups += rest
                    stats.hits += rest
                    stats.hit_bytes += rest * size_bytes
                    # Already the newest key: restamping keeps its place.
                    self._resident[chunk_id] = (size_bytes, self._tick)
                return hits + rest
        return hits

    def prefetch(self, chunk_id: str, size_bytes: int) -> bool:
        """Warm-path admission without miss accounting.

        Predictive prefetch pushes a chunk the policy *expects* to be
        needed; it is not a restore-time access, so it must not skew
        the hit/miss effectiveness counters. The frequency estimate
        still bumps (a prefetched chunk is evidence of heat) and the
        normal admission policy applies. Returns True when the chunk
        is resident afterwards (already present counts as success).
        """
        self._tick += 1
        freq = self._freq.get(chunk_id, 0) + 1
        self._freq[chunk_id] = freq
        if len(self._freq) > _MAX_GHOST_ENTRIES:
            self._trim_ghosts()
        if chunk_id in self._resident:
            self._touch(chunk_id, size_bytes)
            return True
        self._admit(chunk_id, size_bytes, freq)
        admitted = chunk_id in self._resident
        if admitted:
            self.stats.prefetches += 1
            self.stats.prefetch_bytes += size_bytes
        return admitted

    # -- policy internals ----------------------------------------------------

    def _touch(self, chunk_id: str, size_bytes: int) -> None:
        """Restamp a resident chunk and move it to the recency end."""
        del self._resident[chunk_id]
        self._resident[chunk_id] = (size_bytes, self._tick)

    def _score(self, chunk_id: str, size_bytes: int) -> float:
        """Frequency-over-size: hot small chunks are worth the most."""
        return self._freq.get(chunk_id, 0) / max(1, size_bytes)

    def _admit(self, chunk_id: str, size_bytes: int, freq: int) -> None:
        if size_bytes > self.capacity_bytes:
            self.stats.admission_rejects += 1
            return
        while self._used_bytes + size_bytes > self.capacity_bytes:
            victim = self._pick_victim()
            if victim is None:
                self.stats.admission_rejects += 1
                return
            if (self.policy == FREQ_OVER_SIZE
                    and self._score(chunk_id, size_bytes)
                    < self._score(victim, self._resident[victim][0])):
                # The incoming chunk is colder than the coldest resident
                # one: keep the cache as is (TinyLFU-style admission).
                self.stats.admission_rejects += 1
                return
            self._evict(victim)
        self._resident[chunk_id] = (size_bytes, self._tick)
        self._used_bytes += size_bytes

    def _pick_victim(self) -> Optional[str]:
        if not self._resident:
            return None
        if self.policy == LRU:
            return next(iter(self._resident))
        # freq-over-size, LRU as the tie-break so equal-score chunks
        # age out in access order.
        return min(
            self._resident,
            key=lambda cid: (self._score(cid, self._resident[cid][0]),
                             self._resident[cid][1]),
        )

    def _evict(self, chunk_id: str) -> None:
        size, _ = self._resident.pop(chunk_id)
        self._used_bytes -= size
        self.stats.evictions += 1

    def _trim_ghosts(self) -> None:
        """Drop the coldest non-resident history entries."""
        ghosts = sorted(
            (cid for cid in self._freq if cid not in self._resident),
            key=lambda cid: self._freq[cid],
        )
        for cid in ghosts[:len(ghosts) // 2]:
            del self._freq[cid]


def make_cache(policy: Optional[str]) -> Optional[HotChunkCache]:
    """Build a cache from a knob value (``None`` -> no cache)."""
    if policy is None:
        return None
    return HotChunkCache(policy=policy)
