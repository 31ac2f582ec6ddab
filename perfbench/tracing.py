"""In-memory host-time spans around the public entry points of each layer.

The benchmark measures the program from outside: :func:`traced` patches
the layer boundaries listed in :data:`BOUNDARIES` with wrappers that
push a frame on entry and, on exit, charge the call's duration minus
its wrapped children to the frame's node in a call tree (its *self
time*). Nothing under ``src/`` changes; leaving the ``with`` block puts
every original attribute back.

The call tree doubles as the folded-stack profile (``a;b;c value``,
the format ``repro.bench.profile.write_folded`` writes), so the sum of
self times over the tree equals the root span's wall time.
"""

from __future__ import annotations

import contextlib
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

_perf = time.perf_counter


class Node:
    """One call path in the span tree."""

    __slots__ = ("name", "children", "calls", "self_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: Dict[str, "Node"] = {}
        self.calls = 0
        self.self_s = 0.0

    def child(self, name: str) -> "Node":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Node(name)
        return node

    def walk(self, prefix: Tuple[str, ...] = ()) -> Iterator[Tuple[Tuple[str, ...], "Node"]]:
        path = prefix + (self.name,)
        yield path, self
        for name in sorted(self.children):
            yield from self.children[name].walk(path)


class Tracer:
    """Span stack plus per-boundary side counters."""

    def __init__(self) -> None:
        self.root = Node("trace")
        # Each frame is [node, seconds covered by child spans].
        self.frames: List[list] = [[self.root, 0.0]]
        self.counters: Dict[str, float] = {}
        # Replicas provisioned inside an autoscaler tick (prewarms).
        self.prewarmed: list = []

    def add(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + value

    def in_span(self, name: str) -> bool:
        return any(frame[0].name == name for frame in self.frames)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Node]:
        """A span opened by the benchmark itself (setup, replay roots)."""
        parent = self.frames[-1]
        node = parent[0].child(name)
        frame = [node, 0.0]
        self.frames.append(frame)
        t0 = _perf()
        try:
            yield node
        finally:
            duration = _perf() - t0
            self.frames.pop()
            node.calls += 1
            node.self_s += duration - frame[1]
            parent[1] += duration

    def wrap(self, name: str, fn: Callable,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``.

        ``before(args)`` runs inside the span and returns a token that
        ``after(token, args, result)`` receives once ``fn`` returned.
        """
        frames = self.frames

        def wrapper(*args, **kwargs):
            parent = frames[-1]
            node = parent[0].children.get(name)
            if node is None:
                node = parent[0].child(name)
            frame = [node, 0.0]
            frames.append(frame)
            t0 = _perf()
            try:
                token = before(args) if before is not None else None
                result = fn(*args, **kwargs)
                if after is not None:
                    after(token, args, result)
                return result
            finally:
                duration = _perf() - t0
                frames.pop()
                node.calls += 1
                node.self_s += duration - frame[1]
                parent[1] += duration

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- read-out ---------------------------------------------------------------

    def by_name(self) -> Dict[str, Tuple[int, float]]:
        """span name -> (calls, self seconds), summed over call paths."""
        totals: Dict[str, Tuple[int, float]] = {}
        for _, node in self.root.walk():
            calls, self_s = totals.get(node.name, (0, 0.0))
            totals[node.name] = (calls + node.calls, self_s + node.self_s)
        return totals

    def folded(self) -> List[str]:
        """``a;b;c <self microseconds>`` lines, root frame omitted."""
        lines = []
        for path, node in self.root.walk():
            micros = int(round(node.self_s * 1e6))
            if len(path) > 1 and micros > 0:
                lines.append(f"{';'.join(path[1:])} {micros}")
        return lines


class _TimedExit:
    """Proxy for an observed ``obs.span`` context: the span's close
    (where the tracer and exporters do their work) is an obs emission."""

    __slots__ = ("_span", "_exit")

    def __init__(self, span, exit_fn) -> None:
        self._span = span
        self._exit = exit_fn

    def __enter__(self):
        return self._span.__enter__()

    def __exit__(self, *exc):
        return self._exit(*exc)

    def __getattr__(self, attr):
        return getattr(self._span, attr)


def _sim_now(obj) -> float:
    return obj.kernel.clock.now


def _boundaries(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """(owner, attribute, replacement) for every wrapped entry point."""
    from repro import obs
    from repro.core.bake import Prebaker
    from repro.core.starters import PrebakeStarter, Starter
    from repro.criu.checkpoint import CheckpointEngine
    from repro.criu.images import CheckpointImage
    from repro.criu.restore import RestoreEngine
    from repro.criu.shardstore import ShardedSnapshotStore
    from repro.faas.deployer import FunctionDeployer
    from repro.faas.platform import FaaSPlatform
    from repro.faas.replica import FunctionReplica
    from repro.functions.base import FunctionApp
    from repro.obs.timeseries import WindowedSeries
    from repro.predict.policy import PrewarmController
    from repro.runtime.base import ManagedRuntime

    patches: List[Tuple[object, str, Callable]] = []

    def method(owner, attr: str, name: str, before=None, after=None) -> None:
        patches.append((owner, attr, tracer.wrap(
            name, owner.__dict__[attr], before, after)))

    def subclasses(base) -> List[type]:
        found, todo = [], [base]
        while todo:
            cls = todo.pop()
            found.append(cls)
            todo.extend(cls.__subclasses__())
        return found

    def sim_ms(counter: str):
        def after(t0, args, result):
            tracer.add(counter, _sim_now(args[0]) - t0)
        return after

    def provision_after(t0, args, result) -> None:
        tracer.add("faas.provision.sim_ms", _sim_now(args[0]) - t0)
        if tracer.in_span("faas.autoscaler_tick"):
            tracer.prewarmed.append(result)

    def start_after(_, args, result) -> None:
        if result.technique != "prebake":
            tracer.add("core.start.fallbacks", 1)

    def fetch_after(_, args, result) -> None:
        tracer.add("criu.shard.fetches", 1)
        tracer.add("criu.shard.retry_hops", result.retry_hops)

    def prefetch_after(_, args, result) -> None:
        tracer.add("faas.prefetch.bytes", result)

    for cls in subclasses(FunctionApp):
        if "execute" in cls.__dict__:
            method(cls, "execute", "functions.execute")
    for cls in subclasses(ManagedRuntime):
        if "handle" in cls.__dict__:
            method(cls, "handle", "runtime.handle")
    for cls in subclasses(Starter):
        if "start" not in cls.__dict__:
            continue
        method(cls, "start", "core.start",
               after=start_after if cls is PrebakeStarter else None)
    method(FunctionReplica, "serve", "faas.serve")
    method(FaaSPlatform, "invoke", "faas.invoke")
    method(FaaSPlatform, "gc_tick", "faas.autoscaler_tick")
    method(FunctionDeployer, "provision", "faas.provision",
           before=lambda args: _sim_now(args[0]), after=provision_after)
    method(FunctionDeployer, "prefetch_function", "faas.prefetch",
           after=prefetch_after)
    method(RestoreEngine, "restore", "criu.restore",
           before=lambda args: _sim_now(args[0]),
           after=sim_ms("criu.restore.sim_ms"))
    method(CheckpointImage, "verify_integrity", "criu.verify")
    method(ShardedSnapshotStore, "fetch_window", "criu.shard.fetch",
           after=fetch_after)
    method(Prebaker, "bake", "core.bake")
    method(CheckpointEngine, "dump", "criu.checkpoint")
    method(PrewarmController, "plan", "predict.plan")
    method(PrewarmController, "note_arrival", "predict.note_arrival")
    method(WindowedSeries, "windows", "obs.windows")

    # A classmethod: wrap the function, re-bind as a classmethod.
    from_snapshot = ManagedRuntime.__dict__["from_snapshot_state"].__func__
    patches.append((ManagedRuntime, "from_snapshot_state", classmethod(
        tracer.wrap("runtime.from_snapshot", from_snapshot))))

    # Module-level emission helpers, looked up as ``obs.<fn>`` at call time.
    for attr in ("count", "gauge", "observe", "record"):
        patches.append((obs, attr, tracer.wrap("obs.emit", getattr(obs, attr))))
    open_span = tracer.wrap("obs.emit", obs.span)

    def span(*args, **kwargs):
        opened = open_span(*args, **kwargs)
        if opened is obs.NULL_SPAN:
            return opened
        return _TimedExit(opened, tracer.wrap("obs.emit", opened.__exit__))

    patches.append((obs, "span", span))
    return patches


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install the boundary wrappers for the duration of the block."""
    patches = _boundaries(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
