"""The restore side of the CRIU protocol (paper §3.2).

    "During the restoration, the CRIU tool process transmutes itself
    into the checkpointed process. The first action is to read the dump
    files and restore the process's state. Then, it recreates all
    namespaces and opened files. Finally, the checkpointed memory is
    remapped."

The engine also implements the two optimizations the paper's §7 plans
to evaluate: restoring from an in-memory image cache [26] and lazy
page population (userfaultfd-style), exposed as :class:`RestoreMode`
and ``in_memory``; ablation benchmarks sweep both.
"""

from __future__ import annotations

import contextlib
from enum import Enum
from typing import Optional, Tuple

from repro import faults, obs
from repro.criu.chunkcache import HotChunkCache
from repro.criu.images import CheckpointImage
from repro.criu.pagestore import image_chunk_count, image_chunk_runs
from repro.criu.workingset import WorkingSetRecord, WorkingSetTracker
from repro.faults.errors import RestoreFailed, SnapshotCorrupted
from repro.obs.profile import (
    RESTORE_CHUNK_FETCH,
    RESTORE_DIGEST_VERIFY,
    RESTORE_PIPELINE_RAMP,
    RESTORE_SHARD_FETCH,
    RESTORE_WS_PREFETCH,
)
from repro.osproc.kernel import Kernel
from repro.osproc.memory import VMAKind
from repro.osproc.probes import PhaseCharge
from repro.osproc.process import Process, ProcessState
from repro.sim.costmodel import PipelinePlan


class RestoreError(Exception):
    """Restore protocol failure (misuse, not an injected fault)."""


class RestoreMode(Enum):
    EAGER = "eager"                # map and populate everything before resuming
    LAZY = "lazy"                  # resume early; fault pages on first touch
    WORKING_SET = "working-set"    # REAP: prefetch the recorded first-response
                                   # set, lazily fault the (rarely touched) rest


# Fraction of the page-mapping cost paid up front in LAZY mode (hot
# pages criu always populates eagerly: stacks, parasite-adjacent); the
# remainder becomes the ``lazy_restore_debt_ms`` charged to the first
# request.
LAZY_EAGER_FRACTION = 0.15

CRIU_BINARY = "/usr/sbin/criu"


class RestoreEngine:
    """Restores :class:`CheckpointImage` sets into live processes.

    Every restore's page-population stage is priced by one formula,
    :meth:`CostModel.plan_restore_pipeline`; the worker count and the
    cache's hit fraction are its inputs.

    ``pipeline_workers`` parallelizes the page-population stage:
    ``N > 1`` overlaps chunk fetching with page mapping/prefetching;
    the default of 1 is the serial charge.
    ``chunk_cache`` is a node-local :class:`HotChunkCache` consulted
    per chunk window — hits fetch at local-read speed instead of a
    registry round-trip.

    ``shard_store`` (a
    :class:`~repro.criu.shardstore.ShardedSnapshotStore`) replaces the
    flat registry with N replicated storage nodes: each restore issues
    quorum window fetches through it and prices retry hops and
    stragglers via :meth:`CostModel.shard_fetch_overhead_ms`. A window
    no surviving replica nor the cache can serve raises
    :class:`RestoreFailed` (kind ``shard``) so the starter's
    retry/fallback ladder takes over. ``None`` (the default) restores
    from the flat registry.
    """

    def __init__(self, kernel: Kernel,
                 pipeline_workers: int = 1,
                 chunk_cache: Optional[HotChunkCache] = None,
                 shard_store=None) -> None:
        if pipeline_workers < 1:
            raise ValueError(
                f"pipeline_workers must be >= 1, got {pipeline_workers}")
        self.kernel = kernel
        self.pipeline_workers = pipeline_workers
        self.chunk_cache = chunk_cache
        self.shard_store = shard_store
        kernel.fs.ensure(CRIU_BINARY, size=5 * 1024 * 1024)

    def restore(
        self,
        image: CheckpointImage,
        mode: RestoreMode = RestoreMode.EAGER,
        in_memory: bool = False,
        duration_override_ms: Optional[float] = None,
    ) -> Process:
        """Bring the checkpointed process back to life under a new pid.

        ``duration_override_ms`` substitutes a per-function calibrated
        restore duration (excluding the criu process spawn) for the
        generic size-based formula.
        """
        kernel = self.kernel
        image.validate()
        # Integrity gate: a corrupted image must never transmute into a
        # half-restored process — fail before any work is charged.
        try:
            image.verify_integrity()
        except SnapshotCorrupted:
            obs.count(kernel, "snapshot_corruption_detected_total")
            raise

        # Spawn the criu process that will transmute into the target.
        proc = kernel.clone(kernel.init_process, comm="criu")
        kernel.execve(proc, CRIU_BINARY, argv=["criu", "restore", "--shell-job"])
        proc.state = ProcessState.RESTORING

        # The span opens right after execve so its duration matches the
        # probe-measured RTS+APPINIT window of a restored start.
        with obs.span(kernel, "criu.restore", image=image.image_id,
                      image_mib=round(image.total_mib, 3), mode=mode.value,
                      in_memory=in_memory, warm=image.warm):
            obs.record(kernel, obs.flight.RESTORE_STARTED,
                       image=image.image_id, mode=mode.value,
                       image_mib=round(image.total_mib, 3))
            try:
                self._transmute(proc, image)
                with contextlib.ExitStack() as pipeline_spans:
                    if self.pipeline_workers > 1:
                        # Worker spans cover the fault sites and the
                        # fetch/map charge; an injected restore.fail
                        # unwinds through the stack, so every worker
                        # span closes and the harness's span-leak
                        # self-check stays green on retried restores.
                        for worker in range(self.pipeline_workers):
                            pipeline_spans.enter_context(obs.span(
                                kernel, "restore.pipeline-worker",
                                worker=worker, workers=self.pipeline_workers,
                                image=image.image_id))
                    self._inject_restore_faults(proc, image)

                    # REAP working-set restores: look up the record
                    # before costing — its size determines the
                    # prefetched fraction.
                    tracker: Optional[WorkingSetTracker] = None
                    ws_record: Optional[WorkingSetRecord] = None
                    if mode is RestoreMode.WORKING_SET:
                        tracker = WorkingSetTracker.install(kernel)
                        ws_record = tracker.record_for(image)

                    # Node-local hot-chunk cache: a hit turns a registry
                    # fetch into a local read (no RNG, pure bookkeeping).
                    # With a sharded store the windows the cache misses
                    # come through quorum fetches over the replica set.
                    cached_fraction, shard_report = self._fetch_pass(image)

                    # Charge the restore work (page reads + remapping).
                    base, plan, serial_duration = self._restore_duration(
                        image, mode, in_memory, duration_override_ms,
                        ws_record, cached_fraction)
                    duration = base + plan.total_ms
                    if shard_report is not None:
                        # Degraded fetches pay for their retry hops and
                        # stragglers; a clean quorum pass costs exactly 0.
                        shard_report.extra_ms = \
                            kernel.costs.shard_fetch_overhead_ms(
                                shard_report.retry_hops, shard_report.slow_ms,
                                workers=self.pipeline_workers)
                        duration += shard_report.extra_ms
                    extra_ms = 0.0
                    if faults.should_fire(kernel, faults.IO_SLOW,
                                          detail=image.image_id):
                        # Slow storage under the image directory: the page
                        # reads pay the armed penalty on top of the model
                        # cost.
                        extra_ms = faults.extra_delay_ms(kernel, faults.IO_SLOW)
                        duration += extra_ms
                    charged = kernel.costs.jitter(duration, kernel.streams,
                                                  "criu.restore")
                    kernel.clock.advance(charged)
            except Exception:
                kernel.kill(proc.pid)
                raise
            charges = self._restore_charges(
                image, mode, ws_record, base, plan, shard_report,
                extra_ms, duration, charged, in_memory)
            if mode is RestoreMode.LAZY:
                # The deferred paging debt is real page work, so it is
                # sized off the *serial* eager charge: pipelining the
                # up-front fraction does not shrink the pages left to
                # fault in.
                full = kernel.costs.restore_cost(image.total_mib,
                                                 duration_override_ms)
                proc.payload["lazy_restore_debt_ms"] = max(
                    0.0, full - serial_duration - extra_ms)

            proc.state = ProcessState.RUNNING
            kernel.probes.syscall_enter(
                "criu.restore", proc.pid, kernel.clock.now,
                detail=f"{image.total_mib:.1f}MiB image={image.image_id}",
                charges=charges,
            )
            runtime = proc.payload.get("runtime")
            if runtime is not None:
                runtime.mark_restored()
            if tracker is not None:
                if ws_record is None:
                    # First restore of this snapshot: record the pages
                    # touched before the first post-restore response.
                    tracker.begin_recording(proc, image)
                    obs.count(kernel, "ws_restore_total",
                              labels={"phase": "record"})
                else:
                    tracker.begin_prefetch(proc, image, ws_record)
                    obs.count(kernel, "ws_restore_total",
                              labels={"phase": "prefetch"})
                    obs.gauge(kernel, "ws_prefetch_fraction",
                              ws_record.fraction)
        obs.record(kernel, obs.flight.RESTORE_FINISHED,
                   image=image.image_id, mode=mode.value,
                   duration_ms=round(charged, 3))
        obs.count(kernel, "criu_restore_total", labels={"mode": mode.value})
        obs.observe(kernel, "criu_restore_duration_ms", charged,
                    labels={"mode": mode.value})
        return proc

    # -- internals ------------------------------------------------------------------

    def _inject_restore_faults(self, proc: Process, image: CheckpointImage) -> None:
        """Evaluate the restore-path fault sites (no-op when uninstalled).

        Both failure modes surface as :class:`RestoreFailed` — the
        caller's retry/fallback policy is the recovery path — but a
        hang first burns the watchdog timeout on the simulated clock,
        so hung restores are visibly more expensive than fast failures.
        """
        kernel = self.kernel
        if faults.should_fire(kernel, faults.RESTORE_FAIL, detail=image.image_id):
            obs.record(kernel, obs.flight.RESTORE_FAILED,
                       image=image.image_id, reason="fail")
            obs.count(kernel, "criu_restore_failures_total",
                      labels={"reason": "fail"})
            raise RestoreFailed(
                f"restore of image {image.image_id!r} failed "
                f"(criu pid {proc.pid} died)",
                image_id=image.image_id, kind="fail",
            )
        if faults.should_fire(kernel, faults.RESTORE_HANG, detail=image.image_id):
            hang_ms = faults.extra_delay_ms(kernel, faults.RESTORE_HANG)
            kernel.clock.advance(hang_ms)
            # The burned watchdog window is page-fetch work that never
            # completed; keep it on the start-up ledger.
            kernel.probes.charge(RESTORE_CHUNK_FETCH, proc.pid,
                                 kernel.clock.now, hang_ms, reason="hang")
            obs.record(kernel, obs.flight.RESTORE_FAILED,
                       image=image.image_id, reason="hang",
                       hang_ms=round(hang_ms, 3))
            obs.count(kernel, "criu_restore_failures_total",
                      labels={"reason": "hang"})
            raise RestoreFailed(
                f"restore of image {image.image_id!r} hung; watchdog killed "
                f"criu pid {proc.pid} after {hang_ms:g} ms",
                image_id=image.image_id, kind="hang",
            )

    def _fetch_pass(self, image: CheckpointImage):
        """Serve every chunk window, cache-first; ``(cached, report)``.

        ``cached`` is the byte fraction of the image the node cache
        served, priced by the pipeline plan. Without a shard store the
        misses come from the flat registry and ``report`` is None; with
        one they come through quorum fetches and ``report`` is the
        store's :class:`~repro.criu.shardstore.DegradedRestoreReport`.
        Both paths leave the same cache-effectiveness record, so SLOs
        read identically either way.
        """
        cache = self.chunk_cache
        report = None
        if self.shard_store is not None:
            report = self.shard_store.restore_pass(image, cache=cache)
            counts = (report.chunks, report.cached_chunks,
                      report.cached_bytes, report.total_bytes)
        else:
            counts = self._chunk_cache_pass(image)
        chunks, cached_chunks, cached_bytes, total_bytes = counts
        cached_fraction = cached_bytes / total_bytes if total_bytes else 0.0
        if cache is not None:
            kernel = self.kernel
            obs.record(kernel, obs.flight.CACHE_LOOKUP, image=image.image_id,
                       lookups=chunks, hits=cached_chunks,
                       hit_fraction=round(cached_fraction, 4))
            obs.count(kernel, "chunk_cache_lookups_total", value=float(chunks))
            obs.count(kernel, "chunk_cache_hits_total",
                      value=float(cached_chunks))
            obs.count(kernel, "chunk_cache_misses_total",
                      value=float(chunks - cached_chunks))
            obs.gauge(kernel, "chunk_cache_hit_ratio", cache.stats.hit_ratio)
            obs.gauge(kernel, "chunk_cache_used_bytes",
                      float(cache.used_bytes))
        if report is not None:
            self._check_shard_report(image, report)
        return cached_fraction, report

    def _chunk_cache_pass(self, image: CheckpointImage
                          ) -> Tuple[int, int, int, int]:
        """Look every chunk window up in the node cache (flat registry).

        Walks the image's chunk runs: one :meth:`HotChunkCache.lookup_run`
        per run leaves the cache as one lookup per window would.

        Returns ``(chunks, cached chunks, cached bytes, total bytes)``,
        all zero with no cache configured. Deterministic bookkeeping:
        no RNG, no simulated time. Not a 1-node shard ring: that would
        add a ``shard.fetch`` span per missed chunk (see DESIGN.md §14).
        """
        cache = self.chunk_cache
        if cache is None:
            return 0, 0, 0, 0
        chunks = hits = hit_bytes = total_bytes = 0
        for cid, size_bytes, count in image_chunk_runs(image):
            chunks += count
            total_bytes += count * size_bytes
            run_hits = cache.lookup_run(cid, size_bytes, count)
            hits += run_hits
            hit_bytes += run_hits * size_bytes
        return chunks, hits, hit_bytes, total_bytes

    def _check_shard_report(self, image: CheckpointImage, report) -> None:
        """Fail or flag a sharded fetch pass that ran below full health.

        The degraded-mode ladder: node cache hit → first-success
        quorum fetch over surviving replicas → :class:`RestoreFailed`
        (kind ``shard``) when a window is unobtainable, which hands
        recovery to the starter's retry → vanilla ladder.
        """
        kernel = self.kernel
        if report.failed_chunks:
            obs.record(kernel, obs.flight.RESTORE_FAILED,
                       image=image.image_id, reason="shard",
                       failed_chunks=len(report.failed_chunks),
                       nodes_down=",".join(report.nodes_down) or None)
            obs.count(kernel, "criu_restore_failures_total",
                      labels={"reason": "shard"})
            missing = report.failed_chunks[0][:12]
            raise RestoreFailed(
                f"restore of image {image.image_id!r}: "
                f"{len(report.failed_chunks)} chunk window(s) unobtainable "
                f"from any replica or cache (first: {missing}...)",
                image_id=image.image_id, kind="shard",
            )
        if report.degraded:
            obs.count(kernel, "restore_degraded_total")
            obs.record(kernel, obs.flight.RESTORE_DEGRADED,
                       image=image.image_id, **report.as_attrs())

    def _restore_duration(
        self,
        image: CheckpointImage,
        mode: RestoreMode,
        in_memory: bool,
        override_ms: Optional[float],
        ws_record: Optional[WorkingSetRecord],
        cached_fraction: float,
    ) -> Tuple[float, PipelinePlan, float]:
        """(base, pipeline plan, serial duration): the mode's
        :meth:`CostModel.restore_price`.

        The serial duration is the quantity LAZY paging debt is sized
        against.
        """
        page_fraction = 1.0
        if mode is RestoreMode.LAZY:
            page_fraction = LAZY_EAGER_FRACTION
        elif mode is RestoreMode.WORKING_SET and ws_record is not None:
            # Prefetch only the recorded working set; everything else
            # is left to demand faults (charged per miss at first
            # response — zero when the record is accurate).
            page_fraction = ws_record.fraction
        return self.kernel.costs.restore_price(
            image.total_mib, override_ms, in_memory, page_fraction,
            self.pipeline_workers, image_chunk_count(image), cached_fraction)

    def _restore_charges(
        self,
        image: CheckpointImage,
        mode: RestoreMode,
        ws_record: Optional[WorkingSetRecord],
        base: float,
        plan: PipelinePlan,
        shard_report,
        extra_ms: float,
        duration: float,
        charged: float,
        in_memory: bool,
    ) -> Tuple[PhaseCharge, ...]:
        """Split the jittered restore charge into restore sub-phases
        (the charges the ``criu.restore`` probe event carries).

        Mirrors the :meth:`_restore_duration` cost split (base →
        digest-verify, page population → chunk-fetch or working-set
        prefetch — preceded by a pipeline-ramp slice when overlapped —
        degraded shard-fetch hops → shard-fetch, injected io.slow
        penalty → chunk-fetch), then scales every part by
        ``charged / duration`` — with the last part as the remainder —
        so the recorded sub-phases sum to the jittered charge
        *exactly*, never to the pre-jitter model cost.
        """
        pages_part = plan.total_ms
        parts = [(RESTORE_DIGEST_VERIFY, base, {"image": image.image_id})]
        if plan.pipelined and plan.ramp_ms:
            parts.append((RESTORE_PIPELINE_RAMP, plan.ramp_ms,
                          {"workers": plan.workers,
                           "chunks": plan.chunk_count}))
            pages_part -= plan.ramp_ms
        if mode is RestoreMode.WORKING_SET and ws_record is not None:
            parts.append((RESTORE_WS_PREFETCH, pages_part,
                          {"pages": ws_record.page_count,
                           "fraction": round(ws_record.fraction, 4)}))
        else:
            attrs = {"chunks": plan.chunk_count, "in_memory": in_memory}
            if plan.pipelined or plan.cached_fraction:
                attrs["workers"] = plan.workers
                attrs["cached_fraction"] = round(plan.cached_fraction, 4)
            parts.append((RESTORE_CHUNK_FETCH, pages_part, attrs))
        if shard_report is not None and shard_report.extra_ms:
            parts.append((RESTORE_SHARD_FETCH, shard_report.extra_ms,
                          {"retry_hops": shard_report.retry_hops,
                           "slow_ms": round(shard_report.slow_ms, 3)}))
        if extra_ms:
            parts.append((RESTORE_CHUNK_FETCH, extra_ms,
                          {"reason": "io-slow"}))
        scale = charged / duration if duration else 0.0
        recorded = 0.0
        charges = []
        for position, (phase, part_ms, attrs) in enumerate(parts):
            if position == len(parts) - 1:
                scaled = charged - recorded
            else:
                scaled = part_ms * scale
            recorded += scaled
            charges.append((phase, scaled, {"mode": mode.value, **attrs}))
        return tuple(charges)

    def _transmute(self, proc: Process, image: CheckpointImage) -> None:
        """Rebuild namespaces, files and memory inside ``proc``."""
        kernel = self.kernel
        # Recreate namespaces: the restored process gets fresh namespace
        # instances equivalent to (but distinct from) the dumped ones.
        from repro.osproc.namespaces import NamespaceKind
        proc.namespaces = proc.namespaces.clone_with_new(*NamespaceKind)

        # Rebuild the address space exactly as dumped.
        space = proc.address_space
        space.clear()
        for desc in image.vmas:
            if desc.file_path is not None:
                kernel.fs.ensure(desc.file_path,
                                 size=max(desc.file_size, desc.file_offset + desc.length))
            vma = space.mmap(
                length=desc.length,
                kind=VMAKind(desc.kind),
                prot=desc.prot,
                start=desc.start,
                file_path=desc.file_path,
                file_offset=desc.file_offset,
                label=desc.label,
            )
            vma.restore_pages(desc.runs)
            if desc.file_path is not None:
                # Mapping the file's dumped pages leaves them warm — the
                # mechanism behind the paper's cheaper post-restore
                # class loading.
                kernel.page_cache.warm(kernel.fs.lookup(desc.file_path), fraction=1.0)

        # Reopen file descriptors.
        proc.fds.clear()
        for fd_desc in image.fds:
            file = kernel.fs.ensure(fd_desc.path, size=fd_desc.file_size)
            if fd_desc.is_socket:
                file.is_socket = True
            entry = proc.open_fd(file, flags=fd_desc.flags)
            entry.offset = fd_desc.offset

        # Restore identity and the runtime's logical state.
        proc.comm = image.comm
        proc.argv = list(image.argv)
        if image.runtime_state is not None:
            from repro.runtime import RUNTIME_KINDS
            kind = image.runtime_state["kind"]
            runtime_cls = RUNTIME_KINDS.get(kind)
            if runtime_cls is None:
                raise RestoreError(f"image requires unknown runtime kind {kind!r}")
            runtime_cls.from_snapshot_state(kernel, proc, image.runtime_state)
