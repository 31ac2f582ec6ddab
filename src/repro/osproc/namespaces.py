"""Linux namespace model.

CRIU recreates the namespaces a process lived in when it restores the
snapshot; containerized FaaS replicas each get their own set. The model
tracks identity and membership so checkpoint images can record them and
restore can verify it rebuilt an equivalent environment.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Dict


class NamespaceKind(Enum):
    PID = "pid"
    MNT = "mnt"
    NET = "net"
    IPC = "ipc"
    UTS = "uts"
    USER = "user"
    CGROUP = "cgroup"


_ns_ids = itertools.count(0x1000)


@dataclass(frozen=True)
class Namespace:
    """One namespace instance, identified like ``pid:[4026531836]``."""

    kind: NamespaceKind
    ns_id: int

    @classmethod
    def fresh(cls, kind: NamespaceKind) -> "Namespace":
        return cls(kind=kind, ns_id=next(_ns_ids))

    def __str__(self) -> str:
        return f"{self.kind.value}:[{self.ns_id}]"


class NamespaceSet:
    """The full set of namespaces a process belongs to."""

    def __init__(self, namespaces: Dict[NamespaceKind, Namespace] | None = None) -> None:
        if namespaces is None:
            namespaces = {kind: Namespace.fresh(kind) for kind in NamespaceKind}
        missing = set(NamespaceKind) - set(namespaces)
        if missing:
            raise ValueError(f"namespace set missing kinds: {sorted(k.value for k in missing)}")
        self._namespaces = dict(namespaces)

    def get(self, kind: NamespaceKind) -> Namespace:
        return self._namespaces[kind]

    def clone_with_new(self, *kinds: NamespaceKind) -> "NamespaceSet":
        """Share all namespaces except ``kinds``, which get fresh ones.

        This is the effect of ``clone(2)`` with ``CLONE_NEW*`` flags.
        """
        out = dict(self._namespaces)
        for kind in kinds:
            out[kind] = Namespace.fresh(kind)
        return NamespaceSet(out)

    def ids(self) -> Dict[str, int]:
        """Serializable view, used by checkpoint images."""
        return {kind.value: ns.ns_id for kind, ns in self._namespaces.items()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NamespaceSet):
            return NotImplemented
        return self._namespaces == other._namespaces

    def __hash__(self) -> int:
        return hash(frozenset(self._namespaces.items()))
