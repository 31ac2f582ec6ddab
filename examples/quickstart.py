#!/usr/bin/env python3
"""Quickstart: bake a function snapshot and start replicas from it.

Walks the paper's core idea in ~40 lines of API:

1. create a simulated world;
2. deploy a function — the builder starts it once, optionally warms it,
   and checkpoints it with the CRIU engine (the *prebake*);
3. cold-start replicas with both techniques and compare.

Run: ``python examples/quickstart.py``
"""

from repro import PrebakeManager, make_world
from repro.core.policy import AfterWarmup
from repro.functions import make_app
from repro.runtime.base import Request


def main() -> None:
    world = make_world(seed=42)
    manager = PrebakeManager(world.kernel)

    # Deploy the paper's Markdown Render function with a warmed snapshot
    # (one warm-up request forces the JVM to JIT-compile the handler).
    app = make_app("markdown")
    report = manager.deploy(app, policy=AfterWarmup(requests=1))
    print(f"baked {report.key}: {report.snapshot_mib:.1f} MiB snapshot "
          f"in {report.bake_duration_ms:.0f} ms (at build time)")

    # The state of the practice: fork-exec + full JVM bootstrap.
    vanilla = manager.start_replica(make_app("markdown"), technique="vanilla")
    print(f"vanilla cold start: {vanilla.startup_ms('ready'):7.2f} ms")

    # Prebaking: restore the snapshot instead.
    prebaked = manager.start_replica(app, technique="prebake",
                                     policy=AfterWarmup(requests=1))
    print(f"prebaked cold start:{prebaked.startup_ms('ready'):7.2f} ms")

    improvement = 1 - prebaked.startup_ms("ready") / vanilla.startup_ms("ready")
    print(f"improvement: {improvement:.0%} (paper reports 47% for this function)")

    # Restored replicas serve real responses — render some markdown.
    response = prebaked.invoke(Request(
        body="# Hello\n\nPrebaking *works*, see <https://example.org>.  \n"
             "Stars stay literal when escaped: \\*not emphasis\\*."))
    print("\nfirst response from the restored replica:")
    print(response.body)


if __name__ == "__main__":
    main()
