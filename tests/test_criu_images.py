"""Tests for the checkpoint image format."""

import pytest

from repro.criu.images import (
    CheckpointImage,
    FdDescriptor,
    ImageFile,
    VMADescriptor,
    build_image_files,
)
from repro.osproc.memory import PAGE_SIZE


def make_vma(resident=4, length_pages=8, label="heap", file_path=None):
    return VMADescriptor.from_pages(
        tuple(range(resident)),
        tuple("t" for _ in range(resident)),
        start=0x1000_0000,
        length=length_pages * PAGE_SIZE,
        kind="anon" if file_path is None else "file",
        prot="rw-",
        label=label,
        file_path=file_path,
        file_offset=0,
        file_size=0 if file_path is None else length_pages * PAGE_SIZE,
    )


def make_image(vmas=None, fds=None, warm=False):
    image = CheckpointImage(
        image_id="img-test",
        pid=42,
        comm="java",
        argv=["java", "-jar", "fn.jar"],
        created_at_ms=100.0,
        namespace_ids={"pid": 1},
        vmas=vmas if vmas is not None else [make_vma()],
        fds=fds or [],
        runtime_state=None,
        warm=warm,
    )
    build_image_files(image)
    return image


class TestImageAccounting:
    def test_pages_bytes_counts_resident(self):
        image = make_image(vmas=[make_vma(resident=10, length_pages=20)])
        assert image.pages_bytes == 10 * PAGE_SIZE
        assert sum(v.resident_pages for v in image.vmas) == 10

    def test_total_mib_includes_metadata(self):
        image = make_image()
        assert image.total_bytes > image.pages_bytes
        assert image.total_mib == image.total_bytes / (1024 * 1024)

    def test_pages_file_size_matches(self):
        image = make_image(vmas=[make_vma(resident=7)])
        assert image.files["pages-1.img"].size_bytes == 7 * PAGE_SIZE

    def test_expected_image_files_present(self):
        image = make_image()
        names = set(image.files)
        assert {"inventory.img", "pstree.img", "pages-1.img",
                "files.img", "namespaces.img"} <= names
        assert f"core-{image.pid}.img" in names
        assert f"mm-{image.pid}.img" in names



class TestImageValidation:
    def test_valid_image_passes(self):
        make_image().validate()

    def test_no_vmas_rejected(self):
        image = make_image()
        image.vmas = []
        with pytest.raises(ValueError, match="no VMAs"):
            image.validate()

    def test_pages_file_mismatch_rejected(self):
        image = make_image()
        image.files["pages-1.img"] = ImageFile("pages-1.img", 1)
        with pytest.raises(ValueError, match="pages-1.img size"):
            image.validate()

    def test_tag_index_desync_rejected(self):
        # Runs cannot fall out of sync, so pages listed one by one are
        # refused when the descriptor is built from them.
        fields = dict(start=0, length=4 * PAGE_SIZE, kind="anon", prot="rw-",
                      label="x", file_path=None, file_offset=0, file_size=0)
        with pytest.raises(ValueError, match="out of sync"):
            VMADescriptor.from_pages((0, 1), ("a",), **fields)
        with pytest.raises(ValueError, match="out of sync"):
            make_vma(resident=2).with_pages((0,), ("a", "b"))

    def test_overfull_vma_rejected(self):
        bad = VMADescriptor.from_pages(
            (0, 1), ("a", "b"),
            start=0, length=PAGE_SIZE, kind="anon", prot="rw-", label="x",
            file_path=None, file_offset=0, file_size=0,
        )
        image = make_image(vmas=[bad])
        with pytest.raises(ValueError, match="more resident pages"):
            image.validate()

    def test_missing_pages_file_rejected(self):
        image = make_image()
        del image.files["pages-1.img"]
        with pytest.raises(ValueError, match="missing pages-1.img"):
            image.validate()


class TestDescriptors:
    def test_fd_descriptor_fields(self):
        fd = FdDescriptor(fd=3, path="/jar", offset=10, flags="r",
                          is_socket=False, file_size=100)
        image = make_image(fds=[fd])
        assert image.files["files.img"].payload == [fd]

    def test_warm_flag_carried(self):
        assert make_image(warm=True).warm is True
        assert make_image(warm=False).warm is False
