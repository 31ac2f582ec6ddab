"""Resource Orchestration layer: nodes and the Resource Manager.

"The Resource Manager ... ensures that the state of the computing
cluster is always in the desired states" (§2). Nodes have memory
capacity; containers (function replicas) reserve it. The paper's
experiments deliberately exclude container orchestration overhead
(§4.1), so provisioning cost defaults to zero and only the §5
integration demos turn it on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional


class ResourceError(Exception):
    """Capacity or placement failure."""


_allocation_ids = itertools.count(1)

#: Memory of every worker node.
NODE_MEMORY_MIB = 8192.0


@dataclass
class Allocation:
    """One container's reservation on a node."""

    allocation_id: int
    node: "ComputeNode"
    function: str
    memory_mib: float
    released: bool = False

    def release(self) -> None:
        if self.released:
            return
        self.node._release(self)
        self.released = True


@dataclass
class ComputeNode:
    """A worker node with ``NODE_MEMORY_MIB`` of memory.

    ``allow_privileged`` is cleared after construction by a provider
    that cannot run privileged containers (the OpenFaaS stack on
    Docker Swarm).
    """

    name: str
    allow_privileged: bool = field(default=True, init=False)
    _allocations: List[Allocation] = field(default_factory=list, init=False)

    @property
    def used_mib(self) -> float:
        return sum(a.memory_mib for a in self._allocations)

    @property
    def free_mib(self) -> float:
        return NODE_MEMORY_MIB - self.used_mib

    def allocate(self, function: str, memory_mib: float,
                 privileged: bool = False) -> Allocation:
        if privileged and not self.allow_privileged:
            raise ResourceError(
                f"node {self.name!r} does not allow privileged containers"
            )
        if memory_mib > self.free_mib:
            raise ResourceError(
                f"node {self.name!r} has {self.free_mib:.0f} MiB free, "
                f"needs {memory_mib:.0f}"
            )
        allocation = Allocation(
            allocation_id=next(_allocation_ids),
            node=self,
            function=function,
            memory_mib=memory_mib,
        )
        self._allocations.append(allocation)
        return allocation

    def _release(self, allocation: Allocation) -> None:
        try:
            self._allocations.remove(allocation)
        except ValueError:
            raise ResourceError(
                f"allocation {allocation.allocation_id} not on node {self.name!r}"
            )


class ResourceManager:
    """Places replicas onto nodes (worst-fit: most free memory first)."""

    def __init__(self, nodes: Optional[List[ComputeNode]] = None) -> None:
        self.nodes: List[ComputeNode] = nodes or [ComputeNode(name="node-0")]

    def place(self, function: str, memory_mib: float,
              privileged: bool = False,
              prefer: Optional[str] = None) -> Allocation:
        """Worst-fit placement, with an optional locality hint.

        ``prefer`` names a node to favor when it can host the replica
        (the router/deployer's chunk-locality hint: land where the
        snapshot's layers are already cached); when the preferred node
        is full or absent, placement falls back to worst-fit unchanged.
        """
        candidates = [
            n for n in self.nodes
            if n.free_mib >= memory_mib and (n.allow_privileged or not privileged)
        ]
        if not candidates:
            raise ResourceError(
                f"no node can host {function!r} ({memory_mib:.0f} MiB, "
                f"privileged={privileged})"
            )
        if prefer is not None:
            for node in candidates:
                if node.name == prefer:
                    return node.allocate(function, memory_mib,
                                         privileged=privileged)
        best = max(candidates, key=lambda n: n.free_mib)
        return best.allocate(function, memory_mib, privileged=privileged)

