"""Binary serialization of checkpoint images.

CRIU images live on disk (and, in the paper's §5 integration, inside
container image layers); §7 raises "checkpoint/restore as a service"
questions — bigger code sizes, concurrent snapshots — that need
transportable snapshots. This module defines a compact, versioned
binary format for :class:`~repro.criu.images.CheckpointImage`:

    magic "CRIUREPR" | u16 version | json header | page-record stream

The header carries all metadata (identity, VMAs, fds, runtime state);
page *content tags* are run-length encoded in the record stream since
realistic snapshots contain long runs of identically-tagged pages.
Round-tripping is exact (hypothesis-verified in the tests).
"""

from __future__ import annotations

import json
import struct
from typing import Any, Dict, List, Tuple

from repro.criu.images import (
    CheckpointImage,
    FdDescriptor,
    VMADescriptor,
    build_image_files,
)

MAGIC = b"CRIUREPR"
# v2 adds the sealed content digest to the header so integrity
# verification survives archive round-trips; v1 blobs still decode.
VERSION = 2
_SUPPORTED_VERSIONS = (1, 2)

_HEADER_LEN = struct.Struct(">I")
_VERSION_STRUCT = struct.Struct(">H")
_RUN_STRUCT = struct.Struct(">II")  # (start_index, run_length)


class SerializationError(Exception):
    """Malformed or incompatible serialized image."""


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _encode_runs(indices: List[int], tags: Tuple[str, ...]) -> List[Dict[str, Any]]:
    """Run-length encode (sorted) resident pages by content tag."""
    runs: List[Dict[str, Any]] = []
    i = 0
    n = len(indices)
    while i < n:
        j = i
        while (j + 1 < n
               and indices[j + 1] == indices[j] + 1
               and tags[j + 1] == tags[i]):
            j += 1
        runs.append({"s": indices[i], "n": j - i + 1, "t": tags[i]})
        i = j + 1
    return runs


def _decode_runs(runs: List[Dict[str, Any]]) -> Tuple[List[int], Tuple[str, ...]]:
    indices: List[int] = []
    tags: List[str] = []
    for run in runs:
        start, count, tag = run["s"], run["n"], run["t"]
        if count <= 0:
            raise SerializationError(f"non-positive run length {count}")
        indices.extend(range(start, start + count))
        tags.extend([tag] * count)
    return indices, tuple(tags)


def _vma_to_dict(vma: VMADescriptor) -> Dict[str, Any]:
    return {
        "start": vma.start,
        "length": vma.length,
        "kind": vma.kind,
        "prot": vma.prot,
        "label": vma.label,
        "file_path": vma.file_path,
        "file_offset": vma.file_offset,
        "file_size": vma.file_size,
        "runs": _encode_runs(vma.resident_indices.tolist(), vma.content_tags),
    }


def _vma_from_dict(data: Dict[str, Any]) -> VMADescriptor:
    indices, tags = _decode_runs(data["runs"])
    return VMADescriptor(
        start=data["start"],
        length=data["length"],
        kind=data["kind"],
        prot=data["prot"],
        label=data["label"],
        file_path=data["file_path"],
        file_offset=data["file_offset"],
        file_size=data["file_size"],
        resident_indices=indices,
        content_tags=tags,
    )


def _fd_to_dict(fd: FdDescriptor) -> Dict[str, Any]:
    return {
        "fd": fd.fd,
        "path": fd.path,
        "offset": fd.offset,
        "flags": fd.flags,
        "is_socket": fd.is_socket,
        "file_size": fd.file_size,
    }


def _fd_from_dict(data: Dict[str, Any]) -> FdDescriptor:
    return FdDescriptor(**data)


def _classes_to_jsonable(state: Any) -> Any:
    """Make runtime snapshot state JSON-safe (it may carry app objects).

    Only plain data survives serialization; the restore side rebuilds
    the app object from the function registry via ``app_name``.
    """
    if state is None:
        return None
    app = state.get("app")
    return {
        "kind": state["kind"],
        "booted": state["booted"],
        "ready": state["ready"],
        "requests_served": state["requests_served"],
        "app_name": app.name if app is not None else None,
        "extra": state.get("extra", {}),
    }


def serialize_image(image: CheckpointImage) -> bytes:
    """Encode ``image`` into the transportable binary format."""
    image.validate()
    header = {
        "image_id": image.image_id,
        "pid": image.pid,
        "comm": image.comm,
        "argv": image.argv,
        "created_at_ms": image.created_at_ms,
        "namespace_ids": image.namespace_ids,
        "parent_image_id": image.parent_image_id,
        "warm": image.warm,
        "digest": image.digest,
        "meta_digest": image.meta_digest,
        "vmas": [_vma_to_dict(v) for v in image.vmas],
        "fds": [_fd_to_dict(f) for f in image.fds],
        "runtime_state": _classes_to_jsonable(image.runtime_state),
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return (MAGIC + _VERSION_STRUCT.pack(VERSION)
            + _HEADER_LEN.pack(len(payload)) + payload)


def deserialize_image(blob: bytes) -> CheckpointImage:
    """Decode a serialized image.

    The runtime state's application object is rebuilt from the function
    registry when ``app_name`` is known there; otherwise the state is
    restored app-less (the caller provides the app at start time).
    """
    if len(blob) < len(MAGIC) + _VERSION_STRUCT.size + _HEADER_LEN.size:
        raise SerializationError("blob too short for header")
    if blob[:len(MAGIC)] != MAGIC:
        raise SerializationError("bad magic (not a serialized checkpoint)")
    offset = len(MAGIC)
    (version,) = _VERSION_STRUCT.unpack_from(blob, offset)
    if version not in _SUPPORTED_VERSIONS:
        raise SerializationError(f"unsupported format version {version}")
    offset += _VERSION_STRUCT.size
    (length,) = _HEADER_LEN.unpack_from(blob, offset)
    offset += _HEADER_LEN.size
    payload = blob[offset:offset + length]
    if len(payload) != length:
        raise SerializationError(
            f"truncated header: {len(payload)} of {length} bytes"
        )
    try:
        header = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializationError(f"corrupt header: {exc}") from exc

    runtime_state = header["runtime_state"]
    if runtime_state is not None:
        app = None
        app_name = runtime_state.pop("app_name", None)
        if app_name is not None:
            from repro.functions.base import make_app
            try:
                app = make_app(app_name)
            except KeyError:
                app = None
        runtime_state["app"] = app

    image = CheckpointImage(
        image_id=header["image_id"],
        pid=header["pid"],
        comm=header["comm"],
        argv=list(header["argv"]),
        created_at_ms=header["created_at_ms"],
        namespace_ids=dict(header["namespace_ids"]),
        vmas=[_vma_from_dict(v) for v in header["vmas"]],
        fds=[_fd_from_dict(f) for f in header["fds"]],
        runtime_state=runtime_state,
        parent_image_id=header["parent_image_id"],
        warm=header["warm"],
        digest=header.get("digest"),  # absent in v1 blobs
        meta_digest=header.get("meta_digest"),  # absent before v2+merkle
    )
    build_image_files(image)
    image.validate()
    return image
