"""Repository benchmark: the command that runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Replays a seeded open-loop trace through the real ``FaaSPlatform``
(``register_function`` / ``invoke`` / ``gc_tick``) and prints, as the
last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``. Exit code 1 means a correctness check failed, 2
that the program could not be loaded or the arguments are invalid.
A per-run record (metrics, workload shape, per-pass timings) and, for
traced runs, a folded-stack profile go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import statistics
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

# Real start-ups per run: each vanilla start boots an interpreter
# (~0.3-0.5 s) after a reference start (~0.2 s) and is followed by
# this many zygote forks (~3 ms each).
REAL_VANILLA_STARTS = 10
REAL_ZYGOTES_PER_VANILLA = 8


def _load_program() -> None:
    """Import the program from this checkout's ``src/`` or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path[:0] = [str(ROOT), str(SRC)]
    # Real start-ups run ``python -m repro.realproc.child`` in children.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    import repro
    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        raise SystemExit(2)


def pass_seed(seed: int, index: int) -> int:
    from repro.sim.rng import _derive_seed
    return _derive_seed(seed, f"perfbench-pass-{index}")


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def sim_metrics(results) -> dict:
    """Simulated-clock end-to-end metrics pooled over the passes."""
    latencies = [v for r in results for v in r.latencies_ms]
    cold = [v for r in results for v in r.cold_ms]
    attempted = sum(r.attempted for r in results)
    return {
        "request_p50_ms": percentile(latencies, 50),
        "request_p99_ms": percentile(latencies, 99),
        "cold_start_p50_ms": percentile(cold, 50),
        "cold_start_p95_ms": percentile(cold, 95),
        "cold_start_ratio": len(cold) / attempted,
        "idle_replica_s": sum(r.idle_replica_s for r in results),
    }


def requests_per_s(results) -> float:
    """Median over passes of simulated requests replayed per wall second."""
    return statistics.median(r.attempted / r.replay_s for r in results)


def run_untraced(workload, seed: int, seconds: float, real) -> tuple:
    """The workload's passes, repeated until ``seconds`` have passed.

    Between passes, real start-ups (``real``, a :class:`RealStarts`)
    keep pace with the clock, ``REAL_VANILLA_STARTS`` over ``seconds``,
    so they sample the host over the whole run, not over one stretch.
    """
    from perfbench.replay import CheckFailed, run_pass
    started = time.perf_counter()
    results, repeats = [], []
    index = 0
    while True:
        slot = index % workload.passes
        result = run_pass(workload, pass_seed(seed, slot))
        if index < workload.passes:
            results.append(result)
        else:
            if result.sim_signature() != results[slot].sim_signature():
                raise CheckFailed(
                    f"pass {slot} replayed with the same seed gave other "
                    "simulated results")
            repeats.append(result)
        index += 1
        elapsed = time.perf_counter() - started
        due = REAL_VANILLA_STARTS * min(1.0, elapsed / seconds)
        while len(real.vanilla_ms) < due:
            real.sample(REAL_ZYGOTES_PER_VANILLA)
        if index >= workload.passes and elapsed >= seconds:
            return results, repeats


def run_traced(workload, seed: int, real) -> tuple:
    """Each pass untraced, then traced; both must agree on the sim side.

    Real start-ups (``real``) follow each pair of passes, pro rata.
    """
    from perfbench.replay import CheckFailed, run_pass
    from perfbench.tracing import Tracer, traced
    tracer = Tracer()
    untraced_runs, traced_runs = [], []
    for slot in range(workload.passes):
        plain = run_pass(workload, pass_seed(seed, slot))
        with traced(tracer):
            spanned = run_pass(workload, pass_seed(seed, slot), tracer)
        if plain.sim_signature() != spanned.sim_signature():
            raise CheckFailed(f"tracing changed the simulated results of pass {slot}")
        untraced_runs.append(plain)
        traced_runs.append(spanned)
        while len(real.vanilla_ms) < REAL_VANILLA_STARTS * (slot + 1) / workload.passes:
            real.sample(REAL_ZYGOTES_PER_VANILLA)
    return untraced_runs, traced_runs, tracer


def layer_metrics(traced_runs, untraced_runs, tracer) -> dict:
    """Per-layer metrics of the traced passes (summed over passes)."""
    from perfbench.replay import CheckFailed
    spans = tracer.by_name()
    counters = tracer.counters

    def calls(name):
        return float(spans.get(name, (0, 0.0))[0])

    def self_s(name):
        return spans.get(name, (0, 0.0))[1]

    # The layers' self times, without the replay loop's own (the replay
    # root's self time), must account for the traced replay's wall time.
    replay_root = tracer.root.children["bench.replay"]
    replay_wall = sum(r.replay_s for r in traced_runs)
    layers_s = sum(node.self_s for _, node in replay_root.walk()) - replay_root.self_s
    coverage = layers_s / replay_wall
    if not 0.9 <= coverage <= 1.1:
        raise CheckFailed(f"layer self times cover {coverage:.3f} of the replay")
    shape = [r.shape for r in traced_runs]
    hit_bytes = sum(s["chunk_hit_bytes"] for s in shape)
    logical = sum(s["chunk_logical_mib"] for s in shape) * 2 ** 20
    prewarmed = sum(r.layers["predict.prewarm.replicas"] for r in traced_runs)
    useful = sum(r.layers["predict.prewarm.useful"] for r in traced_runs)
    values = {
        "functions.execute.calls": calls("functions.execute"),
        "functions.execute.self_s": self_s("functions.execute"),
        "runtime.handle.self_s": self_s("runtime.handle"),
        "faas.serve.self_s": self_s("faas.serve"),
        "faas.invoke.calls": calls("faas.invoke"),
        "faas.invoke.self_s": self_s("faas.invoke"),
        "faas.provision.calls": calls("faas.provision"),
        "faas.provision.self_s": self_s("faas.provision"),
        "faas.provision.sim_ms": counters.get("faas.provision.sim_ms", 0.0),
        "core.start.calls": calls("core.start"),
        "core.start.self_s": self_s("core.start"),
        "core.start.fallbacks": counters.get("core.start.fallbacks", 0.0),
        "criu.restore.calls": calls("criu.restore"),
        "criu.restore.self_s": self_s("criu.restore"),
        "criu.restore.sim_ms": counters.get("criu.restore.sim_ms", 0.0),
        "criu.verify.self_s": self_s("criu.verify"),
        "runtime.from_snapshot.self_s": self_s("runtime.from_snapshot"),
        "criu.chunkcache.byte_hit_ratio": hit_bytes / logical if logical else 0.0,
        "criu.chunkcache.evictions": sum(s["chunk_evictions"] for s in shape),
        "criu.shard.fetches": counters.get("criu.shard.fetches", 0.0),
        "criu.shard.retry_hops": counters.get("criu.shard.retry_hops", 0.0),
        "criu.shard.fetch.self_s": self_s("criu.shard.fetch"),
        "osproc.probe_events": sum(s["probe_events"] for s in shape),
        "core.bake.calls": calls("core.bake"),
        "core.bake.self_s": self_s("core.bake"),
        "criu.checkpoint.self_s": self_s("criu.checkpoint"),
        "faas.autoscaler_tick.calls": calls("faas.autoscaler_tick"),
        "faas.autoscaler_tick.self_s": self_s("faas.autoscaler_tick"),
        "predict.plan.calls": calls("predict.plan"),
        "predict.plan.self_s": self_s("predict.plan"),
        "predict.note_arrival.self_s": self_s("predict.note_arrival"),
        "obs.windows.self_s": self_s("obs.windows"),
        "faas.prefetch.calls": calls("faas.prefetch"),
        "faas.prefetch.self_s": self_s("faas.prefetch"),
        "faas.prefetch.bytes": counters.get("faas.prefetch.bytes", 0.0),
        "predict.prewarm.replicas": prewarmed,
        "predict.prewarm.useful_ratio": useful / prewarmed if prewarmed else 0.0,
        "obs.emit.calls": calls("obs.emit"),
        "obs.emit.self_s": self_s("obs.emit"),
        "bench.loop.self_s": replay_root.self_s,
        "bench.self_time_coverage": coverage,
        "bench.trace_overhead_pct": 100.0 * (
            replay_wall / sum(r.replay_s for r in untraced_runs) - 1.0),
    }
    return values


def _declared(key: str) -> dict:
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[key]}


def _shape_lines(workload, results, real) -> list:
    """Human-readable shape of the workload, printed before the result."""
    from perfbench.startups import REAL_FUNCTION
    vanilla, zygote, reference = real.vanilla_ms, real.zygote_ms, real.reference_ms
    first = results[0].shape
    capacity = first["node_cache_capacity_mib"]
    req = sum(r.shape["requests"] for r in results)
    cold = sum(r.shape["cold_starts"] for r in results)
    missed = max(r.shape["chunk_missed_mib"] for r in results)
    logical = max(r.shape["chunk_logical_mib"] for r in results)
    return [
        f"workload {workload.name}: {len(results)} passes x "
        f"{workload.duration_s:.0f} s simulated at {workload.rate_per_s:g} req/s",
        f"  requests {req:.0f}, cold starts {cold:.0f} ({100 * cold / req:.2f} %); "
        f"cold_start_p50_ms/p95_ms from {cold:.0f} samples: "
        + ("at least 10 lie beyond p95" if cold * 0.05 >= 10 else
           "fewer than 10 lie beyond p95, so p95 is a near-maximum"),
        f"  functions registered {first['functions_registered']:.0f}, "
        f"touched {first['functions_touched']:.0f}, prewarmed replicas "
        f"{sum(r.shape['prewarmed_replicas'] for r in results):.0f}",
        f"  node chunk caches: {sum(r.shape['chunk_lookups'] for r in results):.0f} "
        f"lookups, {sum(r.shape['chunk_misses'] for r in results):.0f} misses; "
        f"largest pass looked up {logical:.1f} MiB logical, missed {missed:.1f} MiB "
        f"against {capacity:.0f} MiB per node: "
        + ("no pass overflows the node caches" if missed < capacity
           else "the missed bytes exceed one node cache"),
        f"  real starts of {REAL_FUNCTION}: zygote p50 {statistics.median(zygote):.2f} ms "
        f"({len(zygote)} samples), vanilla p50 {statistics.median(vanilla):.1f} ms "
        f"({len(vanilla)} samples); reference start p50 {statistics.median(reference):.1f} ms",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    from perfbench.replay import CheckFailed
    from perfbench.startups import RealStarts, fig3_error_pp
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    correct = True
    try:
        with RealStarts(str(OUT)) as real:
            if args.trace:
                results, traced_runs, tracer = run_traced(workload, args.seed, real)
            else:
                results, repeats = run_untraced(workload, args.seed, args.seconds, real)
        vanilla_p50 = statistics.median(real.vanilla_ms)
        zygote_p50 = statistics.median(real.zygote_ms)
        record["real_start_ms"] = {"vanilla": real.vanilla_ms, "zygote": real.zygote_ms,
                                   "reference": real.reference_ms}
        reference_s = statistics.median(real.reference_ms) / 1000.0
        if args.trace:
            metrics = layer_metrics(traced_runs, results, tracer)
            metrics.update({
                "realproc.zygote_start_p50_ms": zygote_p50,
                "realproc.vanilla_start_p50_ms": vanilla_p50,
                "bench.requests_per_s": requests_per_s(results),
                "bench.reference_start_ms": reference_s * 1000.0,
            })
            units = _declared("per_layer")
            folded = OUT / f"{workload.name}-seed{args.seed}.folded"
            folded.write_text("\n".join(tracer.folded()) + "\n", encoding="utf-8")
        else:
            timed = results + repeats
            metrics = sim_metrics(results)
            metrics.update({
                "fig3_error_pp": fig3_error_pp(),
                "setup_s": statistics.median(r.setup_s for r in timed),
                "requests_per_ref": requests_per_s(timed) * reference_s,
                "peak_rss_mib":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "real_start_speedup": vanilla_p50 / zygote_p50,
            })
            units = _declared("end_to_end")
            record["passes"] = [{"setup_s": r.setup_s, "replay_s": r.replay_s,
                                 "attempted": r.attempted} for r in timed]
    except CheckFailed as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        correct = False
        metrics, units, results = {}, {}, []
    if correct:
        for line in _shape_lines(workload, results, real):
            print(line)
        record["shape"] = [r.shape for r in results]
        missing = set(units) - set(metrics)
        if missing:
            raise RuntimeError(f"metrics not measured: {sorted(missing)}")
        metrics = {name: {"value": metrics[name], "unit": units[name]}
                   for name in units}
    record["metrics"] = metrics
    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
