"""Tests for the imaging substrate: Image, resize, generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.functions.imaging import (
    Image,
    ImageFormatError,
    resize_bilinear,
    resize_box,
    synthetic_photo,
)
from repro.functions.imaging.resize import scale_to_fraction


def solid(width, height, color=(0, 0, 0)):
    return Image(np.full((height, width, 3), color, dtype=np.uint8))


def mean_color(img):
    return img.pixels.reshape(-1, 3).mean(axis=0)


def checkerboard(width=16, height=12, cell=4):
    y, x = np.indices((height, width))
    white = ((x // cell) + (y // cell)) % 2 == 1
    return Image(np.where(white, 255, 0).astype(np.uint8))


class TestImage:
    def test_size_is_width_by_height(self):
        img = solid(10, 6, color=(1, 2, 3))
        assert img.size == (10, 6)
        assert tuple(img.pixels[0, 0]) == (1, 2, 3)

    def test_grayscale_array_promoted(self):
        img = Image(np.zeros((4, 4), dtype=np.uint8))
        assert img.pixels.shape == (4, 4, 3)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ImageFormatError):
            Image(np.zeros((4, 4, 2), dtype=np.uint8))

    def test_one_dimensional_array_rejected(self):
        with pytest.raises(ImageFormatError):
            Image(np.zeros(12, dtype=np.uint8))

    def test_float_array_clipped(self):
        img = Image(np.full((2, 2, 3), 300.0))
        assert np.all(img.pixels == 255)

    def test_equality(self):
        assert solid(2, 2) == solid(2, 2)
        assert solid(2, 2) != solid(2, 3)
        assert solid(2, 2) != solid(2, 2, color=(5, 5, 5))

    def test_not_equal_to_its_pixel_array(self):
        img = solid(2, 2)
        assert img != img.pixels.tolist()
        assert img != None  # noqa: E711 - __eq__ must not raise

    def test_nbytes(self):
        assert solid(10, 10).nbytes == 300


class TestResize:
    def test_target_dimensions(self):
        img = checkerboard(40, 20)
        for fn in (resize_bilinear, resize_box):
            out = fn(img, 13, 7)
            assert out.size == (13, 7)

    def test_invalid_target_rejected(self):
        with pytest.raises(ImageFormatError):
            resize_box(checkerboard(), 0, 4)

    def test_identity_resize_box(self):
        img = checkerboard()
        assert resize_box(img, img.width, img.height) == img

    def test_uniform_image_stays_uniform(self):
        img = solid(32, 32, color=(37, 99, 201))
        for fn in (resize_bilinear, resize_box):
            out = fn(img, 7, 5)
            assert np.all(out.pixels.reshape(-1, 3) == (37, 99, 201))

    def test_box_preserves_mean_exactly_for_integer_ratio(self):
        rng = np.random.default_rng(1)
        img = Image(rng.integers(0, 256, (64, 64, 3), dtype=np.uint8))
        out = resize_box(img, 16, 16)
        for a, b in zip(mean_color(img), mean_color(out)):
            assert b == pytest.approx(a, abs=0.5)

    def test_bilinear_mean_close(self):
        rng = np.random.default_rng(2)
        img = Image(rng.integers(0, 256, (60, 80, 3), dtype=np.uint8))
        out = resize_bilinear(img, 33, 21)
        for a, b in zip(mean_color(img), mean_color(out)):
            assert b == pytest.approx(a, abs=6.0)

    def test_upscale_supported(self):
        img = checkerboard(8, 8)
        out = resize_bilinear(img, 32, 32)
        assert out.size == (32, 32)

    def test_scale_to_fraction_paper_workload(self):
        """The paper's request: 3440x1440 → 10%."""
        img = solid(3440 // 10, 1440 // 10)  # scaled-down stand-in
        out = scale_to_fraction(img, 0.10)
        assert out.size == (34, 14)

    def test_scale_to_fraction_invalid(self):
        with pytest.raises(ImageFormatError):
            scale_to_fraction(checkerboard(), 0.0)

    def test_scale_never_produces_zero_dims(self):
        out = scale_to_fraction(checkerboard(4, 4), 0.01)
        assert out.width >= 1 and out.height >= 1

    def test_identity_resize_bilinear(self):
        img = checkerboard()
        assert resize_bilinear(img, img.width, img.height) == img

    def test_bilinear_invalid_target_rejected(self):
        with pytest.raises(ImageFormatError):
            resize_bilinear(checkerboard(), 4, -1)

    def test_box_upscale_falls_back_to_bilinear(self):
        img = checkerboard(8, 6, cell=2)
        assert resize_box(img, 20, 15) == resize_bilinear(img, 20, 15)
        # Enlarging only one axis also interpolates.
        assert resize_box(img, 4, 9) == resize_bilinear(img, 4, 9)

    def test_box_averages_each_block_exactly(self):
        img = checkerboard(8, 8, cell=1)
        out = resize_box(img, 4, 4)
        # Every 2x2 block holds two white and two black pixels.
        assert np.all(out.pixels == 128)

    def test_box_keeps_cells_aligned_to_its_boxes(self):
        img = checkerboard(16, 12, cell=4)
        assert resize_box(img, 4, 3) == checkerboard(4, 3, cell=1)

    def test_box_edges_never_empty_for_odd_ratios(self):
        rng = np.random.default_rng(3)
        img = Image(rng.integers(0, 256, (17, 23, 3), dtype=np.uint8))
        out = resize_box(img, 11, 9)
        assert out.size == (11, 9)
        lo, hi = img.pixels.min(), img.pixels.max()
        assert lo <= out.pixels.min() and out.pixels.max() <= hi

    def test_resize_leaves_the_source_untouched(self):
        img = checkerboard(20, 20)
        before = Image(img.pixels.copy())
        for fn in (resize_bilinear, resize_box):
            fn(img, 7, 7)
            fn(img, 30, 30)
        assert img == before

    def test_scale_to_fraction_is_the_box_filter(self):
        img = synthetic_photo(120, 50)
        assert scale_to_fraction(img, 0.10) == resize_box(img, 12, 5)

    def test_scale_to_fraction_rounds_dimensions(self):
        out = scale_to_fraction(checkerboard(25, 15), 0.5)
        assert out.size == (12, 8)

    def test_scale_to_fraction_above_one_enlarges(self):
        out = scale_to_fraction(checkerboard(8, 4), 2.0)
        assert out.size == (16, 8)

    @given(width=st.integers(2, 50), height=st.integers(2, 50),
           tw=st.integers(1, 30), th=st.integers(1, 30))
    @settings(max_examples=40, deadline=None)
    def test_resize_dims_property(self, width, height, tw, th):
        img = solid(width, height, color=(100, 100, 100))
        for fn in (resize_bilinear, resize_box):
            out = fn(img, tw, th)
            assert out.size == (tw, th)
            assert np.all(out.pixels == 100)


class TestSyntheticPhoto:
    def test_paper_dimensions_default(self):
        img = synthetic_photo(344, 144)  # scaled check; full size is slow
        assert img.size == (344, 144)

    def test_deterministic(self):
        assert synthetic_photo(64, 32) == synthetic_photo(64, 32)

    def test_has_texture_not_flat(self):
        img = synthetic_photo(128, 64)
        assert float(img.pixels.std()) > 10.0

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            synthetic_photo(0, 10)

    def test_full_paper_size_once(self):
        img = synthetic_photo()
        assert img.size == (3440, 1440)
        thumb = scale_to_fraction(img, 0.10)
        assert thumb.size == (344, 144)
