#!/usr/bin/env python3
"""The paper's §5 OpenFaaS integration, end to end.

Creates a project from a CRIU template, builds it (which starts the
function, warms it, and checkpoints it *into the container image*),
pushes and deploys it, then cold-starts replicas through the gateway —
including the --privileged wrinkle with the Docker Swarm provider. The
stack runs on one FaaSPlatform: the cold start is the platform router's
wait for a replica.

Run: ``python examples/openfaas_demo.py``
"""

from repro import make_world
from repro.faas.openfaas.stack import make_openfaas_stack
from repro.faas.resources import ResourceError
from repro.functions import MarkdownFunction
from repro.runtime.base import Request


def main() -> None:
    world = make_world(seed=11)
    stack = make_openfaas_stack(world.kernel, provider_name="kubernetes")

    print("== faas-cli new/build/push/deploy (java8-criu-warm template) ==")
    stack.cli.new("markdown", "java8-criu-warm", MarkdownFunction)
    t0 = world.now
    image = stack.cli.build("markdown")
    print(f"build: {world.now - t0:.0f} ms — image {image.reference}, "
          f"{image.total_bytes / 1e6:.0f} MB, layers:")
    for layer in image.layers:
        print(f"  - {layer.name:15s} {layer.size_bytes / 1e6:8.1f} MB")
    print(f"  snapshot key: {image.snapshot_key}  "
          f"privileged required: {image.requires_privileged}")
    stack.cli.push("markdown")
    stack.cli.deploy("markdown")

    print("\n== first invocation (cold start via CRIU restore) ==")
    response = stack.gateway.invoke("markdown", Request(body="# Prebaked!"))
    (cold_ms,) = stack.platform.cold_start_latencies("markdown")
    print(f"status {response.status}, cold start "
          f"{cold_ms:.1f} ms, body starts: "
          f"{response.body.splitlines()[0]}")

    print("\n== scale to 3 replicas (each restores the same snapshot) ==")
    stack.gateway.scale("markdown", 3)
    store = stack.platform.prebake_manager.store
    key = store.keys()[0]
    print(f"replicas: {stack.gateway.replica_count('markdown')}, "
          f"snapshot {key} restored {store.restore_count(key)} times")
    stack.gateway.scale("markdown", 1)
    print(f"scaled back down: {stack.gateway.replica_count('markdown')} "
          "replica (the others retired)")

    print("\n== Docker Swarm cannot run the privileged restore ==")
    swarm_world = make_world(seed=12)
    swarm = make_openfaas_stack(swarm_world.kernel, provider_name="dockerswarm")
    swarm.cli.new("markdown", "java8-criu", MarkdownFunction)
    swarm.cli.up("markdown")
    try:
        swarm.gateway.invoke("markdown")
    except ResourceError as exc:
        print(f"ResourceError (expected): {exc}")

    print("\n== ...unless the kernel has CAP_CHECKPOINT_RESTORE [11] ==")
    cap_world = make_world(seed=13)
    cap = make_openfaas_stack(cap_world.kernel, provider_name="dockerswarm",
                              allow_unprivileged_cr=True)
    cap.cli.new("markdown", "java8-criu", MarkdownFunction)
    cap.cli.up("markdown")
    response = cap.gateway.invoke("markdown")
    print(f"unprivileged restore worked: status {response.status}")


if __name__ == "__main__":
    main()
