"""Immutable snapshot state: canonical digests, shared tables, isolation.

Restores share what cannot change (the class table, each VMA
descriptor's canonical bytes and tag ids) instead of re-copying or
re-encoding it. These tests pin the sealed digests to their historical
values, pin the canonical encoder to the JSON projection it replaced,
and check that warm caches never hide drift and that replicas restored
from one image stay isolated.
"""

from __future__ import annotations

import copy
import json
import math
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterWarmup
from repro.criu.images import CheckpointImage, build_image_files, canonical_json
from repro.criu.restore import RestoreEngine
from repro.faults.errors import SnapshotCorrupted
from repro.functions import make_app
from repro.functions.synthetic import custom_function
from repro.osproc.memory import TAGS
from repro.runtime.classes import (
    ClassNames,
    ClassTable,
    SyntheticClass,
    generate_classes,
)


def _bake(name, policy, seed):
    world = make_world(seed=seed)
    return world, Prebaker(world.kernel).bake(make_app(name), policy=policy).image


# -- golden digests -----------------------------------------------------------

# Namespace ids come from a process-wide counter, so sealed digests are
# reproducible per fresh interpreter: the bakes run in a subprocess, in
# this order.
_BAKE_SCRIPT = """
import json, sys
import repro
from repro import make_world
from repro.core.bake import Prebaker
from repro.core.policy import AfterReady, AfterWarmup
from repro.functions import make_app
out = {}
for name, policy, seed in json.loads(sys.argv[1]):
    world = make_world(seed=seed)
    image = Prebaker(world.kernel).bake(
        make_app(name),
        policy=AfterReady() if policy == "ready" else AfterWarmup(1)).image
    assert image.compute_digest() == image.digest
    out["/".join(map(str, (name, policy, seed)))] = image.digest
print(json.dumps(out))
"""

# function/policy/world seed -> digest, as sealed before
# restores cached any canonical encoding.
GOLDEN = {
    "noop/ready/1":
        "c6be7255a3eff8b19d487f0d23f99498faee6f2451c36e4e7022887578c63104",
    "markdown/warm/1":
        "b288d65c006e45e5a1be3e325e4902e3b06aec71e6c518c159a433f99c3ff7da",
    "image-resizer/warm/1":
        "d4790943d5e8bc4b9bb55fb3b0b490c1629b7ddb4789b8c0ae513e15a64736a4",
    "synthetic-small/warm/42":
        "f16c96adfe3abf3ef50a9d28cd2d54fa0debf60cff896ced72ff0e4aee4f5a9b",
    "synthetic-big/ready/42":
        "85a41f7f386e200efa56dee36fdf10da3db359130d0297d18b82b6a029621d0c",
    "py-markdown/warm/42":
        "b3c781d54fd28d86739f2137ed6c2c00f5bbb630ef42ba588fb62dc0f1952d86",
    "node-markdown/warm/1":
        "241cfc5ab9a404cfdad9d14b1747f2095d97918b83c9f122157622308e7950bc",
}


@pytest.fixture(scope="module")
def fresh_digests():
    keys = [key.split("/") for key in GOLDEN]
    keys = [[name, policy, int(seed)] for name, policy, seed in keys]
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", _BAKE_SCRIPT, json.dumps(keys)],
                          capture_output=True, text=True, env=env, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_sealed_digests_are_unchanged(fresh_digests, key):
    assert fresh_digests[key] == GOLDEN[key]


# -- the canonical encoder equals the JSON projection it replaced ------------

def reference_projection(obj, _depth=0):
    """The digest's original JSON projection (dicts keep one entry per ``str(key)``).

    A class table projects as the list of its classes.
    """
    if _depth > 12:
        return f"<depth-capped {type(obj).__name__}>"
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    if isinstance(obj, dict):
        return {str(k): reference_projection(v, _depth + 1)
                for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
    if isinstance(obj, (list, tuple, set, frozenset, ClassTable)):
        items = sorted(obj, key=str) if isinstance(obj, (set, frozenset)) else obj
        return [reference_projection(v, _depth + 1) for v in items]
    attrs = getattr(obj, "__dict__", None)
    if attrs is not None:
        projected = {k: reference_projection(v, _depth + 1)
                     for k, v in sorted(attrs.items())}
        projected["__class__"] = type(obj).__name__
        return projected
    return f"<{type(obj).__name__}>"


class Plain:
    """A plain object: encoded as its attributes plus its class name."""

    def __init__(self, **attrs):
        self.__dict__.update(attrs)


class Slotted:
    """No ``__dict__``: encoded as ``"<Slotted>"``."""

    __slots__ = ()


_hashable = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                      st.text(max_size=6))
_leaves = st.one_of(
    _hashable,
    st.sets(_hashable, max_size=4),
    st.frozensets(_hashable, max_size=4),
    st.just(Slotted()),
    st.integers(1, 4).map(lambda n: generate_classes(n, 3.0 * n, seed=n)),
)
_names = st.from_regex(r"[a-z_][a-z0-9_]{0,6}", fullmatch=True)


def _unique_under_str(mapping):
    return len({str(k) for k in mapping}) == len(mapping)


def _extend(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_hashable, children, max_size=4).filter(_unique_under_str),
        st.dictionaries(_names, children, max_size=3).map(lambda d: Plain(**d)),
    )


_WRAPPERS = {
    "list": lambda v: [v],
    "tuple": lambda v: (1, v),
    "dict": lambda v: {"k": v, 0: None},
    "object": lambda v: Plain(inner=v),
}


def _wrap(value, kinds):
    for kind in kinds:
        value = _WRAPPERS[kind](value)
    return value


# Nested values, then wrapped up to 16 more levels deep so the depth cap
# (12) is crossed at every kind of container.
_values = st.builds(
    _wrap,
    st.recursive(_leaves, _extend, max_leaves=16),
    st.lists(st.sampled_from(sorted(_WRAPPERS)), max_size=16),
)


@given(value=_values)
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_reference_projection(value):
    assert canonical_json(value) == json.dumps(reference_projection(value),
                                               sort_keys=True)


def test_class_table_text_is_cached_once_per_table():
    table = generate_classes(20, 50.0, seed=5)
    assert table.canonical_json is table.canonical_json
    assert table.canonical_json == canonical_json(tuple(table))


# -- bugfix: dict keys that collide under str() -------------------------------

def _image_with_state(runtime_state):
    image = CheckpointImage(
        image_id="img-state", pid=7, comm="java", argv=["java"],
        created_at_ms=0.0, namespace_ids={"pid": 1}, vmas=[], fds=[],
        runtime_state=runtime_state)
    build_image_files(image)
    image.seal()
    return image


def test_keys_colliding_under_str_are_all_digested():
    a = _image_with_state({"extra": {1: "shadowed", "1": "kept"}})
    b = _image_with_state({"extra": {1: "drifted", "1": "kept"}})
    assert a.digest != b.digest


def test_colliding_keys_order_by_str_then_type_name():
    expected = '{"1": "int", "1": "str"}'
    assert canonical_json({1: "int", "1": "str"}) == expected
    assert canonical_json({"1": "str", 1: "int"}) == expected


# -- bugfix: non-finite class sizes -------------------------------------------

@pytest.mark.parametrize("size", [math.nan, math.inf, -math.inf])
def test_non_finite_class_sizes_are_rejected(size):
    with pytest.raises(ValueError):
        SyntheticClass("x", size)
    with pytest.raises(ValueError):
        generate_classes(3, size)
    with pytest.raises(ValueError):
        custom_function(3, size)


# -- shared, immutable class tables -------------------------------------------

def test_class_tables_are_memoized_and_never_copied():
    table = generate_classes(30, 90.0, seed=11)
    assert generate_classes(30, 90.0, seed=11) is table
    assert copy.copy(table) is table
    assert copy.deepcopy({"t": table})["t"] is table
    assert isinstance(make_app("noop").classes, ClassTable)


def test_descriptor_arrays_are_read_only_and_follow_replace():
    _, image = _bake("synthetic-small", AfterWarmup(1), 3)
    desc = max(image.vmas, key=lambda v: v.resident_pages)
    assert not desc.runs.flags.writeable
    assert desc.resident_indices.dtype == np.int64
    # The per-page forms are built on each access and never kept.
    assert desc.resident_indices is not desc.resident_indices
    assert TAGS.tags_of(desc.tag_ids) == list(desc.content_tags)
    retagged = desc.with_pages(desc.resident_indices,
                               ("other",) * desc.resident_pages)
    assert np.array_equal(retagged.resident_indices, desc.resident_indices)
    assert set(TAGS.tags_of(retagged.tag_ids)) == {"other"}
    assert retagged != desc

    def text(vma):
        pieces = []
        vma.stream(lambda piece: pieces.append(bytes(piece)))
        return b"".join(pieces)

    assert text(retagged) != text(desc)


# -- verify still catches drift with warm caches ------------------------------

def _strip_pages(image):
    image.vmas = [v.with_pages((), ()) for v in image.vmas]
    image.seal()
    image.verify_integrity()
    image.tamper()  # no page left to flip: corrupts the metadata instead


def _swap_classes(image):
    app = image.runtime_state["app"]
    app.classes = generate_classes(len(app.classes), 1000.0, seed=99)


def _add_loaded_name(image):
    # The recorded names are immutable; drift replaces the value.
    extra = image.runtime_state["extra"]
    extra["loaded_class_names"] = [*extra["loaded_class_names"],
                                   "com.synthetic.Drift"]


DRIFTS = {
    "tamper-pages": lambda img: img.tamper(),
    "tamper-metadata": _strip_pages,
    "replaced-descriptor": lambda img: img.vmas.__setitem__(
        0, replace(img.vmas[0], prot="rwx")),
    "fds": lambda img: img.fds.__setitem__(
        0, replace(img.fds[0], offset=img.fds[0].offset + 1)),
    "file-sizes": lambda img: setattr(
        img.files["pages-1.img"], "size_bytes",
        img.files["pages-1.img"].size_bytes + 4096),
    "namespaces": lambda img: img.namespace_ids.__setitem__(
        "pid", img.namespace_ids["pid"] + 1),
    "argv": lambda img: img.argv.append("--drift"),
    "warm": lambda img: setattr(img, "warm", not img.warm),
    "app-attribute": lambda img: setattr(img.runtime_state["app"], "drift", 1),
    "app-classes": _swap_classes,
    "loaded-class-names": _add_loaded_name,
}


@pytest.fixture(scope="module")
def warm_image():
    _, image = _bake("synthetic-small", AfterWarmup(1), 3)
    return image


@pytest.mark.parametrize("drift", sorted(DRIFTS))
def test_verify_catches_drift_after_caches_are_warm(warm_image, drift):
    image = copy.deepcopy(warm_image)
    image.verify_integrity()
    DRIFTS[drift](image)
    with pytest.raises(SnapshotCorrupted):
        image.verify_integrity()
    warm_image.verify_integrity()


def test_restored_replicas_share_only_the_class_table():
    world, image = _bake("synthetic-small", AfterWarmup(1), 5)
    engine = RestoreEngine(world.kernel)
    first = engine.restore(image).payload["runtime"]
    second = engine.restore(image).payload["runtime"]
    snapshot_app = image.runtime_state["app"]
    names = set(image.runtime_state["extra"]["loaded_class_names"])
    assert first.app.classes is second.app.classes is snapshot_app.classes
    assert first.app is not second.app and first.app is not snapshot_app
    assert first.classloader.loaded == second.classloader.loaded == names
    assert first.classloader.loaded is not second.classloader.loaded

    first.classloader.loaded.add("com.synthetic.Extra")
    first.app.profile = replace(first.app.profile, service_ms=99.0)
    first.app.classes = ClassTable()
    assert second.classloader.loaded == names
    assert second.app.profile.service_ms != 99.0
    assert second.app.classes is snapshot_app.classes
    assert len(snapshot_app.classes) == len(names)
    image.verify_integrity()


# -- the recorded class names are one immutable value per table --------------

def test_warm_image_records_the_tables_names_immutably(warm_image):
    names = warm_image.runtime_state["extra"]["loaded_class_names"]
    table = warm_image.runtime_state["app"].classes
    assert type(names) is ClassNames
    assert names.table is table
    assert list(names) == sorted(cls.name for cls in table)
    assert copy.copy(names) is names
    assert copy.deepcopy(warm_image).runtime_state["extra"][
        "loaded_class_names"] is names


def test_class_names_refuse_in_place_mutation(warm_image):
    names = warm_image.runtime_state["extra"]["loaded_class_names"]
    with pytest.raises(AttributeError):
        names.append("com.synthetic.Drift")
    with pytest.raises(TypeError):
        names[0] = "com.synthetic.Drift"
    warm_image.verify_integrity()


_names = st.text(alphabet=st.sampled_from(
    ['a', 'Z', '0', '.', '$', ' ', '"', '\\', '/', '\n', '\x00', '\x7f',
     'é', '中', '\U0001f600']), max_size=8)


@given(st.lists(_names, max_size=12))
@example([])
@example([""])
@example(['say "hi"', "plain"])
@example(["back\\slash", "x"])
@example(["tab\tstop", "del\x7f", "caf\u00e9"])
@settings(max_examples=200, deadline=None)
def test_class_names_text_equals_the_generic_encoder(names):
    table = ClassTable(SyntheticClass(name, 1.0) for name in names)
    recorded = ClassNames.of(table)
    assert list(recorded) == sorted(set(names))
    assert recorded.canonical_json == canonical_json(list(recorded))


@pytest.mark.parametrize("depth", [0, 5, 11, 12])
def test_class_names_text_equals_the_generic_encoding(warm_image, depth):
    names = warm_image.runtime_state["extra"]["loaded_class_names"]
    assert names._verbatim  # generated names take the join

    def nest(value):
        for _ in range(depth):
            value = [value]
        return value

    assert names.canonical_json == canonical_json(list(names))
    assert canonical_json(nest(names)) == canonical_json(nest(list(names)))
    assert canonical_json({"names": names}) == json.dumps(
        reference_projection({"names": list(names)}), sort_keys=True)


def test_plain_list_image_verifies_and_restores_like_the_original():
    world, image = _bake("synthetic-small", AfterWarmup(1), 3)
    state = image.runtime_state
    names = list(state["extra"]["loaded_class_names"])
    copy_ = replace(image, runtime_state={
        **state, "extra": {**state["extra"], "loaded_class_names": names}})
    assert copy_.compute_digest() == image.compute_digest() == image.digest
    copy_.verify_integrity()

    engine = RestoreEngine(world.kernel)
    restored = engine.restore(copy_).payload["runtime"]
    original = engine.restore(image).payload["runtime"]
    assert restored.classloader.loaded == original.classloader.loaded
    assert restored.classloader.loaded == set(names)
    # The recorded names mark their table loaded without a scan; the
    # plain list is intersected and scanned on first use, as before.
    assert original.classloader._complete is original.app.classes
    assert restored.classloader._complete is None
    assert restored.classloader.all_loaded(restored.app.classes)
    assert original.classloader.all_loaded(original.app.classes)
