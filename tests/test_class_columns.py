"""Generated class tables are two columns, equal to the per-class reference.

:func:`generate_classes` keeps one draw prefix per seed, names classes
from one shared list, writes the canonical text from per-name fragments
and checks sizes in one pass over the column; the loader, the recorded
names and the digest read the columns. Each is checked here against a
reference written out in full: stdlib draws, a left-to-right sum and
one :class:`SyntheticClass` per class. The pinned hashes hold the text
to the bytes sealed on Python 3.11, whatever the interpreter.
"""

from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.criu.images import (
    CheckpointImage,
    VMADescriptor,
    build_image_files,
    canonical_json,
)
from repro.functions import make_app
from repro.functions.synthetic import SyntheticFunction
from repro.osproc.memory import PAGE_SIZE
from repro.runtime.classes import (
    ClassNames,
    ClassTable,
    SyntheticClass,
    generate_classes,
    total_size_kib,
)
from repro.runtime.jvm import JVMRuntime
from repro.sim.costmodel import synthetic_costs


def reference_sizes(count, total_kib, seed):
    """The sizes as drawn and scaled class by class, summed left to right."""
    rng = random.Random(seed)
    raw = [rng.lognormvariate(0.0, 0.6) for _ in range(count)]
    total = 0.0
    for weight in raw:
        total += weight
    scale = total_kib / total
    return [weight * scale for weight in raw]


def reference_classes(count, total_kib, seed):
    return tuple(SyntheticClass(f"com.synthetic.Class{i:05d}", size)
                 for i, size in enumerate(reference_sizes(count, total_kib, seed)))


# -- pinned bytes ---------------------------------------------------------------

# (count, total_kib, seed) -> sha256 of the table's canonical text, as
# sealed on Python 3.11 (the builtin ``sum`` of 3.12 gave other sizes).
PINNED_TEXT = {
    (374, 2867.2, 7):
        "8a850581bf928719ab48de9b3982c087edf86b4d234bbdda3a004feda2c19a42",
    (574, 9420.8, 7):
        "dab37169f51fd12bc4a8d450bfb75924f04aa2a91b2701ac14c6d5737fe842b6",
    (1574, 41984.0, 7):
        "fbb1d66eac894f5f029cdbf28843008eac173ee3d99e80aa9efb10fa913e6841",
    (40, 900.0, 21):
        "2ad3bef6aae73fcf47c2177517b2737bceb00b7d4ecf0d71ce35d1ee2b3923c8",
    (120, 2400.0, 22):
        "3c0ff1f92281e1b069aa03251fea6b412e55bdd2760ccdd3801bd662327f30bf",
}

# Registered app -> artifact bytes (the jar size the digest covers).
PINNED_ARTIFACT = {
    "synthetic-small": 3198156,
    "synthetic-medium": 9909043,
    "synthetic-big": 43253759,
    "py-markdown": 1183743,
    "node-markdown": 2719744,
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(PINNED_TEXT))
def test_table_text_is_pinned(key):
    table = generate_classes(*key[:2], seed=key[2])
    assert _sha256(table.canonical_json) == PINNED_TEXT[key]


@pytest.mark.parametrize("name", sorted(PINNED_ARTIFACT))
def test_artifact_size_is_pinned(name):
    assert make_app(name).artifact_size() == PINNED_ARTIFACT[name]


# -- generation, text and names -------------------------------------------------

_totals = st.one_of(st.floats(1.0, 1e5), st.sampled_from([5e-324, 1e-320, 1e-310]))


@given(seed=st.integers(0, 2 ** 32 - 1),
       counts=st.lists(st.integers(1, 1600), min_size=1, max_size=3),
       total_kib=_totals)
@example(seed=7, counts=[1600, 200, 1574, 374], total_kib=5000.0)
@example(seed=3, counts=[40, 1], total_kib=5e-324)
@settings(max_examples=30, deadline=None)
def test_generated_tables_equal_the_reference(seed, counts, total_kib):
    # Counts in random order: the seed's draw prefix grows out of order.
    for count in counts:
        sizes = reference_sizes(count, total_kib, seed)
        if not all(0.0 < size < math.inf for size in sizes):
            with pytest.raises(ValueError):
                generate_classes(count, total_kib, seed=seed)
            continue
        table = generate_classes(count, total_kib, seed=seed)
        ref = reference_classes(count, total_kib, seed)
        assert list(table.names) == [c.name for c in ref]
        assert [s.hex() for s in table.sizes] == [c.size_kib.hex() for c in ref]
        assert _sha256(table.canonical_json) == _sha256(canonical_json(ref))
        assert list(ClassNames.of(table)) == sorted({c.name for c in ref})
        total = 0.0
        for c in ref:
            total += c.size_kib
        assert total_size_kib(table).hex() == total.hex()
        assert table == ClassTable(ref) and len(table) == count


@pytest.mark.parametrize("count", [100_000, 100_001])
def test_class_names_sort_past_five_digit_indices(count):
    table = generate_classes(count, 1e6, seed=7)
    assert list(ClassNames.of(table)) == sorted(
        {f"com.synthetic.Class{i:05d}" for i in range(count)})


def test_a_bad_size_is_refused():
    with pytest.raises(ValueError):
        generate_classes(50, 5e-324)   # every size rounds to zero
    with pytest.raises(ValueError):
        SyntheticClass("x", 0.0)


# -- the loader -----------------------------------------------------------------

def reference_load_all(runtime, classes):
    """The loader's charge, class object by class object."""
    kernel = runtime.kernel
    costs = kernel.costs
    jar = kernel.fs.lookup(runtime.jar_path)
    warmth = kernel.page_cache.warmth(jar)
    parse_per_kib = costs.restored_load_per_kib_ms
    io_per_kib = max(0.0, costs.cold_load_per_kib_ms - parse_per_kib)
    total_ms = 0.0
    total_kib = 0.0
    loaded = runtime.classloader.loaded
    for cls in classes:
        if cls.name in loaded:
            continue
        total_ms += costs.cold_load_per_class_ms
        total_ms += cls.size_kib * (parse_per_kib + io_per_kib * (1.0 - warmth))
        total_kib += cls.size_kib
        loaded.add(cls.name)
    if total_kib:
        kernel.page_cache.warm(jar, fraction=1.0)
        runtime.grow_metaspace(total_kib / 1024.0)
    if not total_ms:
        return 0.0
    jittered = costs.jitter(total_ms, kernel.streams, "jvm.classload")
    kernel.clock.advance(jittered)
    return jittered


def _app(count, total_kib, seed, name="columns"):
    return SyntheticFunction(synthetic_costs(name, count, total_kib), seed=seed)


def _runtime(app):
    kernel = make_world(seed=11).kernel
    kernel.fs.ensure("/opt/jvm/bin/java", size=128 * 1024)
    proc = kernel.clone(kernel.init_process, comm="java")
    kernel.execve(proc, "/opt/jvm/bin/java")
    runtime = JVMRuntime(kernel, proc)
    runtime.boot()
    runtime.load_application(app)
    return runtime


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 600),
       data=st.data())
@settings(max_examples=25, deadline=None)
def test_load_all_charges_what_the_reference_charges(seed, count, data):
    app = _app(count, 40.0 * count, seed)
    preloaded = data.draw(st.sets(st.integers(0, count - 1)))
    runtimes = [_runtime(app), _runtime(app)]
    for runtime in runtimes:
        runtime.classloader.loaded.update(app.classes.names[i] for i in preloaded)
    columns, reference = runtimes
    ms = columns.classloader.load_all(app.classes, columns.jar_path)
    expected = reference_load_all(reference, reference_classes(
        count, 40.0 * count, seed))
    assert ms.hex() == expected.hex()
    assert columns.classloader.loaded == reference.classloader.loaded
    assert columns.kernel.clock.now == reference.kernel.clock.now
    assert columns.process.rss_mib == reference.process.rss_mib


# -- the digest, from columns and from a plain list -----------------------------

def _image(app, loaded_names):
    state = {"kind": "jvm", "booted": True, "ready": True, "requests_served": 1,
             "app": app, "extra": {"jar_path": app.artifact_path(),
                                   "loaded_class_names": loaded_names}}
    vma = VMADescriptor.from_pages(
        (0, 1), ("heap", "heap"),
        start=0x7f00_0000_0000, length=4 * PAGE_SIZE, kind="anon", prot="rw-",
        label="java-heap", file_path=None, file_offset=0, file_size=0)
    image = CheckpointImage(
        image_id="columns", pid=7, comm="java", argv=["java"],
        created_at_ms=0.0, namespace_ids={"pid": 1}, vmas=[vma], fds=[],
        runtime_state=state)
    build_image_files(image)
    image.seal()
    return image


@given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 600))
@settings(max_examples=20, deadline=None)
def test_digest_of_columns_and_plain_list_equals_the_reference(seed, count):
    name = f"columns-{count}-{seed}"
    app = _app(count, 25.0 * count, seed, name)
    image = _image(app, ClassNames.of(app.classes))

    ref_app = _app(count, 25.0 * count, seed, name)
    ref = reference_classes(count, 25.0 * count, seed)
    ref_app.classes = ref   # a plain tuple: the generic encoder's path
    ref_image = _image(ref_app, sorted(c.name for c in ref))
    assert image.digest == ref_image.digest

    # The same names as a plain list, as a hand-built state holds them.
    names = list(image.runtime_state["extra"]["loaded_class_names"])
    plain = _image(_app(count, 25.0 * count, seed, name), names)
    assert plain.compute_digest() == image.digest
