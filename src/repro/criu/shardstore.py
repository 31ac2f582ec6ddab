"""Sharded, replicated snapshot chunk storage (ROADMAP item 1).

The registry PR 3 built is one logical store; at production scale the
snapshot store is itself a distributed system whose nodes crash,
partition and straggle. This module shards the content-addressed chunk
space across N simulated storage nodes with the machinery real stores
use to keep restores alive through that weather:

* **consistent-hash placement** — chunk digests map onto a ring of
  virtual nodes (:class:`HashRing`), so each window has a stable home
  set of ``replication_factor`` distinct nodes and adding a node moves
  only its arc of the ring;
* **quorum fetches** — a restore tries the replica set in ring order
  and takes the first success; every failed hop (down node, injected
  partition) is counted and priced through
  :meth:`CostModel.shard_fetch_overhead_ms`;
* **direct writes** — a bake writes each window into every home's
  holdings, up or down: a crash keeps the node's disk, so a home that
  was down at the write holds the window once it recovers;
* **circuit breakers** — per-node, open after K consecutive failures,
  half-open probe after a sim-clock cooldown, so a dead node stops
  costing a retry hop on every single window once the breaker learns.

Fault sites (:mod:`repro.faults`): ``store.node_down`` crashes a node
for its armed delay, ``store.partition`` fails one replica hop,
``store.slow_shard`` makes one shard answer late. All draw from their
own seeded streams, so a plan that arms none of them — in particular
the RF=1 single-shard configuration the committed baselines pin —
consumes no randomness and charges no time beyond the unsharded model.
"""

from __future__ import annotations

import bisect
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro import faults, obs
from repro.criu.pagestore import LayeredImage

# Virtual nodes per physical storage node. 64 keeps the per-node load
# spread within a few percent of uniform for small clusters without
# making ring construction noticeable.
VIRTUAL_NODES = 64

# Circuit breakers open after 3 consecutive failures and probe
# again 2 simulated seconds later (comfortably shorter than the default
# store.node_down outage, so recovery is observed via a probe).
BREAKER_THRESHOLD = 3
BREAKER_RESET_MS = 2_000.0

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"


def _ring_point(token: str) -> int:
    """Position of ``token`` on the 2**64 ring."""
    return int.from_bytes(
        hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """Consistent hashing over chunk digests with virtual nodes."""

    def __init__(self, node_names: List[str]) -> None:
        if not node_names:
            raise ValueError("hash ring needs at least one node")
        points: List[Tuple[int, str]] = []
        for name in node_names:
            for replica in range(VIRTUAL_NODES):
                points.append((_ring_point(f"{name}#{replica}"), name))
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [name for _, name in points]
        self._node_count = len(node_names)

    def walk(self, digest: str) -> Iterator[str]:
        """Distinct node names in ring order from ``digest``'s arc."""
        start = bisect.bisect_left(self._points, _ring_point(digest))
        seen = set()
        for offset in range(len(self._owners)):
            owner = self._owners[(start + offset) % len(self._owners)]
            if owner not in seen:
                seen.add(owner)
                yield owner
                if len(seen) == self._node_count:
                    return

    def nodes_for(self, digest: str, count: int) -> Tuple[str, ...]:
        """The first ``count`` distinct nodes on ``digest``'s arc."""
        homes = []
        for name in self.walk(digest):
            homes.append(name)
            if len(homes) == count:
                break
        return tuple(homes)


@dataclass
class StorageNode:
    """One simulated storage node: liveness plus the chunks it holds.

    A crash (``store.node_down``) keeps the on-disk chunks — the model
    is a process/VM outage, not disk loss — it just makes them
    unreachable until ``down_until_ms``. A write that arrives while the
    node is down lands on that disk too and is served once it is up.
    """

    name: str
    up: bool = True
    down_until_ms: float = 0.0
    holdings: Dict[str, int] = field(default_factory=dict)  # cid -> bytes


class CircuitBreaker:
    """Per-node failure gate on the simulated clock.

    CLOSED counts consecutive failures; at :data:`BREAKER_THRESHOLD` it
    OPENs and :meth:`allow` refuses (no retry hop is paid) until
    :data:`BREAKER_RESET_MS` has elapsed, when it HALF-OPENs and admits
    one probe: a success closes it, a failure re-opens it for another
    cooldown.
    """

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        self.opened_at_ms = 0.0
        self.opens = 0

    def allow(self, now_ms: float) -> bool:
        """May a fetch try this node right now?"""
        if self.state == BREAKER_CLOSED:
            return True
        if now_ms - self.opened_at_ms >= BREAKER_RESET_MS:
            self.state = BREAKER_HALF_OPEN
            return True
        return self.state == BREAKER_HALF_OPEN

    def record_success(self) -> bool:
        """Returns True when the success closed an open breaker."""
        closed = self.state != BREAKER_CLOSED
        self.state = BREAKER_CLOSED
        self.consecutive_failures = 0
        return closed

    def record_failure(self, now_ms: float) -> bool:
        """Returns True when this failure (re)opened the breaker."""
        self.consecutive_failures += 1
        if self.state == BREAKER_HALF_OPEN \
                or (self.state == BREAKER_CLOSED
                    and self.consecutive_failures >= BREAKER_THRESHOLD):
            self.state = BREAKER_OPEN
            self.opened_at_ms = now_ms
            self.opens += 1
            return True
        return False


@dataclass
class FetchResult:
    """Outcome of one quorum window fetch."""

    chunk_id: str
    found: bool
    served_by: Optional[str] = None
    retry_hops: int = 0
    slow_ms: float = 0.0
    available_replicas: int = 0
    degraded: bool = False      # fewer than RF replicas answered healthy


@dataclass
class DegradedRestoreReport:
    """Per-restore account of how hard the shard store had to work."""

    image_id: str
    chunks: int = 0
    total_bytes: int = 0
    cached_chunks: int = 0          # served by the node HotChunkCache
    cached_bytes: int = 0
    shard_chunks: int = 0           # served by a storage node
    degraded_chunks: int = 0        # served, but below full replication
    failed_chunks: List[str] = field(default_factory=list)
    retry_hops: int = 0
    slow_ms: float = 0.0
    extra_ms: float = 0.0           # priced by CostModel (engine fills in)
    nodes_down: List[str] = field(default_factory=list)
    breakers_open: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        """Did this restore run below full health at any window?"""
        return bool(self.degraded_chunks or self.failed_chunks
                    or self.retry_hops or self.slow_ms)

    def as_attrs(self) -> Dict[str, object]:
        """Flight-event attribute form (compact, JSON-safe)."""
        return {
            "chunks": self.chunks,
            "cached": self.cached_chunks,
            "degraded_chunks": self.degraded_chunks,
            "failed_chunks": len(self.failed_chunks),
            "retry_hops": self.retry_hops,
            "slow_ms": round(self.slow_ms, 3),
            "nodes_down": ",".join(self.nodes_down) or None,
        }


class ShardedSnapshotStore:
    """Chunk windows spread over N storage nodes with R-way replication.

    Fronts the refcounted :class:`~repro.criu.pagestore.PageStore`:
    the page store keeps *content* (deduped, refcounted); this store
    keeps *placement* — which nodes can serve each window — and the
    distributed-systems behavior of fetching through failures. Nodes
    are named ``store-0 .. store-N-1``.

    With no fault sites armed every code path is deterministic
    bookkeeping: no RNG draws, no simulated-time charges. Degradation
    cost is *reported* (retry hops, straggler ms) and priced by the
    caller through :meth:`CostModel.shard_fetch_overhead_ms`.
    """

    def __init__(self, kernel, node_count: int,
                 replication_factor: int = 1) -> None:
        if node_count < 1:
            raise ValueError(f"node_count must be >= 1, got {node_count}")
        if not 1 <= replication_factor <= node_count:
            raise ValueError(
                f"replication_factor must be in [1, {node_count}], "
                f"got {replication_factor}")
        self.kernel = kernel
        self.replication_factor = replication_factor
        self.nodes: Dict[str, StorageNode] = {
            f"store-{i}": StorageNode(name=f"store-{i}")
            for i in range(node_count)
        }
        self.ring = HashRing(list(self.nodes))
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker() for name in self.nodes}
        self._placements: Dict[str, Tuple[str, ...]] = {}
        self._image_ids: Set[str] = set()
        self._export_node_gauges()

    # -- placement / writes ----------------------------------------------------

    def has_image(self, image_id: str) -> bool:
        return image_id in self._image_ids

    def placement(self, cid: str) -> Tuple[str, ...]:
        homes = self._placements.get(cid)
        if homes is None:
            homes = self.ring.nodes_for(cid, self.replication_factor)
            self._placements[cid] = homes
        return homes

    def register_image(self, layered: LayeredImage) -> None:
        """Place every window of ``layered`` on its home replica set.

        A down home is written like an up one: the crash keeps its
        disk, so it serves the window once it recovers. Registering the
        same image again (rebake) re-asserts placement idempotently.
        """
        self._refresh()  # a node whose outage is over is up from here on
        for ref in layered.chunk_refs:
            for home in self.placement(ref.chunk_id):
                self.nodes[home].holdings[ref.chunk_id] = ref.size_bytes
        self._image_ids.add(layered.image_id)

    # -- liveness --------------------------------------------------------------

    def fail_node(self, name: str, down_for_ms: float) -> None:
        """Crash ``name`` for ``down_for_ms`` of simulated time."""
        node = self.nodes[name]
        if not node.up:
            node.down_until_ms = max(node.down_until_ms,
                                     self.kernel.clock.now + down_for_ms)
            return
        node.up = False
        node.down_until_ms = self.kernel.clock.now + down_for_ms
        obs.count(self.kernel, "shard_node_down_total",
                  labels={"node": name})
        obs.record(self.kernel, obs.flight.SHARD_NODE_DOWN, node=name,
                   down_for_ms=round(down_for_ms, 3),
                   chunks=len(node.holdings))
        self._export_node_gauges()

    def recover_node(self, name: str) -> None:
        """Bring ``name`` back; it serves what its disk holds."""
        node = self.nodes[name]
        if node.up:
            return
        node.up = True
        node.down_until_ms = 0.0
        obs.record(self.kernel, obs.flight.SHARD_NODE_UP, node=name)
        self._export_node_gauges()

    def _refresh(self) -> None:
        """Lazily recover nodes whose outage window has elapsed."""
        now = self.kernel.clock.now
        for node in self.nodes.values():
            if not node.up and now >= node.down_until_ms:
                self.recover_node(node.name)

    def up_nodes(self) -> List[str]:
        return [n.name for n in self.nodes.values() if n.up]

    def down_nodes(self) -> List[str]:
        return [n.name for n in self.nodes.values() if not n.up]

    def open_breakers(self) -> List[str]:
        return [name for name, b in self.breakers.items()
                if b.state != BREAKER_CLOSED]

    # -- fault-site integration ------------------------------------------------

    def maybe_crash_node(self, detail: str = "") -> Optional[str]:
        """Evaluate ``store.node_down`` once (one restore pass = one
        crossing). The victim is drawn from a dedicated stream only
        when the site fires, so unarmed plans stay draw-free."""
        self._refresh()
        kernel = self.kernel
        if not faults.should_fire(kernel, faults.STORE_NODE_DOWN,
                                  detail=detail):
            return None
        up = self.up_nodes()
        if not up:
            return None
        pick = int(kernel.streams.get("shard.node-down.victim").random()
                   * len(up))
        victim = up[min(pick, len(up) - 1)]
        down_for = faults.extra_delay_ms(kernel, faults.STORE_NODE_DOWN)
        self.fail_node(victim, down_for)
        return victim

    # -- reads -----------------------------------------------------------------

    def fetch_window(self, cid: str) -> FetchResult:
        """First-success quorum fetch of one chunk window.

        Walks the home replica set in ring order; a down node or an
        injected ``store.partition`` costs a retry hop and a breaker
        failure, an open breaker is skipped for free (that is its
        job), ``store.slow_shard`` adds straggler latency to a hop
        that does answer. A reachable node without the window (an
        unregistered chunk) costs a retry hop too.
        """
        kernel = self.kernel
        now = kernel.clock.now
        homes = self.placement(cid)
        result = FetchResult(chunk_id=cid, found=False)
        for name in homes:
            node = self.nodes[name]
            breaker = self.breakers[name]
            if not breaker.allow(now):
                continue
            if not node.up:
                result.retry_hops += 1
                if breaker.record_failure(now):
                    self._breaker_event(name, breaker)
                continue
            if faults.should_fire(kernel, faults.STORE_PARTITION,
                                  detail=f"{name}:{cid[:12]}"):
                result.retry_hops += 1
                if breaker.record_failure(now):
                    self._breaker_event(name, breaker)
                continue
            if breaker.record_success():
                self._breaker_event(name, breaker)
            if cid not in node.holdings:
                result.retry_hops += 1
                continue
            if faults.should_fire(kernel, faults.STORE_SLOW_SHARD,
                                  detail=f"{name}:{cid[:12]}"):
                result.slow_ms += faults.extra_delay_ms(
                    kernel, faults.STORE_SLOW_SHARD)
            result.found = True
            result.served_by = name
            break
        result.available_replicas = sum(
            1 for name in homes
            if self.nodes[name].up and cid in self.nodes[name].holdings)
        result.degraded = (result.available_replicas < len(homes)
                           or result.retry_hops > 0)
        return result

    def _breaker_event(self, name: str, breaker: CircuitBreaker) -> None:
        obs.record(self.kernel, obs.flight.SHARD_BREAKER, node=name,
                   state=breaker.state, opens=breaker.opens)
        if breaker.state == BREAKER_OPEN:
            obs.count(self.kernel, "shard_breaker_open_total",
                      labels={"node": name})
        obs.gauge(self.kernel, "shard_breaker_open",
                  0.0 if breaker.state == BREAKER_CLOSED else 1.0,
                  labels={"node": name})

    # -- restore-time entry point ----------------------------------------------

    def restore_pass(self, image, cache=None) -> DegradedRestoreReport:
        """Fetch every window of ``image``, cache-first.

        The degraded-mode ladder per window: node ``HotChunkCache``
        hit → quorum fetch over surviving replicas → (caller) vanilla
        start if the window is unobtainable. Returns the per-restore
        report; the caller prices ``retry_hops``/``slow_ms`` into the
        restore duration and decides whether failures are fatal.
        """
        from repro.criu.pagestore import image_chunk_runs
        self.maybe_crash_node(detail=image.image_id)
        report = DegradedRestoreReport(image_id=image.image_id)
        # The pass runs synchronously under the caller's criu.restore
        # span, so stack-wins parenting stitches every remote hop into
        # the request's own trace: one cold start, one span tree,
        # crossing from the compute node into the storage nodes.
        with obs.span(self.kernel, "shard.restore-pass",
                      image_id=image.image_id[:12]) as pass_span:
            for cid, size_bytes, count in image_chunk_runs(image):
                report.chunks += count
                report.total_bytes += count * size_bytes
                for done in range(count):
                    if cache is not None and cache.contains(cid):
                        # Resident now, so resident for the rest of the
                        # run: its lookups are all hits (recency and
                        # frequency still advance once per window).
                        rest = count - done
                        cache.lookup_run(cid, size_bytes, rest)
                        report.cached_chunks += rest
                        report.cached_bytes += rest * size_bytes
                        break
                    self._fetch_missed(cid, size_bytes, cache, report)
            report.nodes_down = self.down_nodes()
            report.breakers_open = self.open_breakers()
            pass_span.set(chunks=report.chunks,
                          cached_chunks=report.cached_chunks,
                          shard_chunks=report.shard_chunks,
                          retry_hops=report.retry_hops,
                          degraded_chunks=report.degraded_chunks)
        kernel = self.kernel
        obs.count(kernel, "shard_fetch_total", value=float(report.chunks))
        if report.degraded_chunks:
            obs.count(kernel, "shard_fetch_degraded_total",
                      value=float(report.degraded_chunks))
        if report.failed_chunks:
            obs.count(kernel, "shard_fetch_failed_total",
                      value=float(len(report.failed_chunks)))
        if report.retry_hops:
            obs.count(kernel, "shard_fetch_retry_hops_total",
                      value=float(report.retry_hops))
        return report

    def _fetch_missed(self, cid: str, size_bytes: int, cache,
                      report: DegradedRestoreReport) -> None:
        """Quorum-fetch one window the node cache missed, into ``report``."""
        with obs.span(self.kernel, "shard.fetch",
                      chunk=cid[:12]) as fetch_span:
            fetched = self.fetch_window(cid)
            fetch_span.set(
                node_id=fetched.served_by or "unavailable",
                hop=fetched.retry_hops,
                degraded=fetched.degraded)
        report.retry_hops += fetched.retry_hops
        report.slow_ms += fetched.slow_ms
        if fetched.found:
            report.shard_chunks += 1
            if fetched.degraded:
                report.degraded_chunks += 1
            if cache is not None:
                cache.lookup(cid, size_bytes)  # admit fresh fetch
        else:
            report.failed_chunks.append(cid)

    # -- accounting ------------------------------------------------------------

    def _export_node_gauges(self) -> None:
        kernel = self.kernel
        up = 0
        for node in self.nodes.values():
            up += 1 if node.up else 0
            obs.gauge(kernel, "shard_node_up",
                      1.0 if node.up else 0.0, labels={"node": node.name})
        obs.gauge(kernel, "shard_nodes_up", float(up))
