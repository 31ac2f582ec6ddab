"""Property-based tests: dump → restore is a faithful round-trip."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import make_world
from repro.criu.checkpoint import CheckpointEngine
from repro.criu.restore import RestoreEngine
from repro.core.policy import AfterReady, AfterWarmup
from repro.core.manager import PrebakeManager
from repro.functions import make_app
from repro.osproc.memory import PAGE_SIZE, VMAKind
from repro.runtime.base import Request


@st.composite
def memory_layouts(draw):
    """A random process memory layout: list of (kind, pages, resident)."""
    n = draw(st.integers(min_value=1, max_value=6))
    layout = []
    for i in range(n):
        pages = draw(st.integers(min_value=1, max_value=64))
        resident = draw(st.integers(min_value=0, max_value=pages))
        kind = draw(st.sampled_from([VMAKind.ANON, VMAKind.STACK,
                                     VMAKind.METASPACE, VMAKind.CODE]))
        layout.append((kind, pages, resident))
    return layout


class TestRoundTripProperties:
    @given(layout=memory_layouts(), seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=40, deadline=None)
    def test_memory_structure_preserved(self, layout, seed):
        world = make_world(seed=seed)
        kernel = world.kernel
        proc = kernel.clone(kernel.init_process, comm="subject")
        for i, (kind, pages, resident) in enumerate(layout):
            vma = proc.address_space.mmap(
                pages * PAGE_SIZE, kind, label=f"vma-{i}"
            )
            vma.touch_range(0, resident, content_tag=f"tag-{i}")
        expected = [
            (v.label, v.kind, v.length, v.dump_pages()[0])
            for v in proc.address_space.vmas
        ]
        image = CheckpointEngine(kernel).dump(proc, leave_running=False)
        restored = RestoreEngine(kernel).restore(image)
        actual = [
            (v.label, v.kind, v.length, v.dump_pages()[0])
            for v in restored.address_space.vmas
        ]
        assert actual == expected

    @given(seed=st.integers(min_value=0, max_value=2**16),
           warm_requests=st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_runtime_state_preserved(self, seed, warm_requests):
        world = make_world(seed=seed)
        manager = PrebakeManager(world.kernel)
        app = make_app("synthetic-small")
        policy = AfterWarmup(warm_requests) if warm_requests else AfterReady()
        manager.deploy(app, policy=policy)
        handle = manager.start_replica(app, technique="prebake", policy=policy)
        runtime = handle.runtime
        assert runtime.ready
        assert runtime.requests_served == warm_requests
        expected_loaded = len(app.classes) if warm_requests else 0
        assert runtime.loaded_classes == expected_loaded
        # The restored replica still serves correctly.
        response = handle.invoke(Request())
        assert response.ok

    @given(seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=10, deadline=None)
    def test_double_roundtrip_stable(self, seed):
        """Dump(restore(dump(p))) produces an identical structure."""
        world = make_world(seed=seed)
        kernel = world.kernel
        proc = kernel.clone(kernel.init_process, comm="subject")
        proc.address_space.grow_anon("heap", 1.5, content_tag="h")
        dump = CheckpointEngine(kernel)
        restore = RestoreEngine(kernel)
        image1 = dump.dump(proc, leave_running=False)
        restored1 = restore.restore(image1)
        image2 = dump.dump(restored1, leave_running=False)
        assert [v.resident_pages for v in image2.vmas] == \
            [v.resident_pages for v in image1.vmas]
        assert len(image2.vmas) == len(image1.vmas)
        restored2 = restore.restore(image2)
        assert restored2.address_space.rss_bytes == image1.pages_bytes
