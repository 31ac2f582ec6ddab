"""Image resampling: nearest-neighbour, bilinear and box (area) filters.

The paper's Image Resizer "scales [the image] down to 10 % of its
original size" per request; box filtering is the right choice for large
downscales and is the default here.
"""

from __future__ import annotations

import numpy as np

from repro.functions.imaging.image import Image, ImageFormatError


def _check_target(width: int, height: int) -> None:
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"invalid target size {width}x{height}")


def resize_nearest(image: Image, width: int, height: int) -> Image:
    """Nearest-neighbour resampling."""
    _check_target(width, height)
    src = image.pixels
    xs = np.minimum((np.arange(width) + 0.5) * image.width / width, image.width - 1).astype(int)
    ys = np.minimum((np.arange(height) + 0.5) * image.height / height, image.height - 1).astype(int)
    return Image(src[np.ix_(ys, xs)].copy())


def resize_bilinear(image: Image, width: int, height: int) -> Image:
    """Bilinear interpolation (edge-clamped, center-aligned)."""
    _check_target(width, height)
    src = image.pixels.astype(np.float64)
    fx = (np.arange(width) + 0.5) * image.width / width - 0.5
    fy = (np.arange(height) + 0.5) * image.height / height - 0.5
    x0 = np.clip(np.floor(fx).astype(int), 0, image.width - 1)
    y0 = np.clip(np.floor(fy).astype(int), 0, image.height - 1)
    x1 = np.minimum(x0 + 1, image.width - 1)
    y1 = np.minimum(y0 + 1, image.height - 1)
    wx = np.clip(fx - x0, 0.0, 1.0)[None, :, None]
    wy = np.clip(fy - y0, 0.0, 1.0)[:, None, None]
    top = src[np.ix_(y0, x0)] * (1 - wx) + src[np.ix_(y0, x1)] * wx
    bottom = src[np.ix_(y1, x0)] * (1 - wx) + src[np.ix_(y1, x1)] * wx
    return Image(top * (1 - wy) + bottom * wy)


def resize_box(image: Image, width: int, height: int) -> Image:
    """Box (area-average) filter — the right filter for big downscales.

    Box edges are snapped to whole source pixels (exact for integer
    ratios, within 1 px otherwise) and never empty. Each box is summed
    in exact integers — rows, then columns, with ``np.add.reduceat`` —
    and divided by its pixel count.
    """
    _check_target(width, height)
    if width > image.width or height > image.height:
        # Box (area) filtering is a pure *downscale* filter: enlarging
        # an axis produces empty source boxes. Interpolate instead.
        return resize_bilinear(image, width, height)
    x_edges = np.linspace(0, image.width, width + 1)
    y_edges = np.linspace(0, image.height, height + 1)
    # Snap fractional edges to pixel boundaries (exact for integer
    # ratios; a <=1px approximation otherwise).
    xi = np.round(x_edges).astype(int)
    yi = np.round(y_edges).astype(int)
    xi = np.maximum.accumulate(np.clip(xi, 0, image.width))
    yi = np.maximum.accumulate(np.clip(yi, 0, image.height))
    # Guarantee non-empty boxes.
    for arr, limit in ((xi, image.width), (yi, image.height)):
        for i in range(1, len(arr)):
            if arr[i] <= arr[i - 1]:
                arr[i] = min(arr[i - 1] + 1, limit)
        for i in range(len(arr) - 2, -1, -1):
            if arr[i] >= arr[i + 1]:
                arr[i] = max(arr[i + 1] - 1, 0)

    # The last edge is the image border and the edges strictly rise, so
    # segment i of each reduceat is exactly source pixels [e_i, e_i+1).
    # uint8 pixels keep every sum far below 2**53: the float64 cast is
    # exact.
    rows = np.add.reduceat(image.pixels.astype(np.int64), yi[:-1], axis=0)
    sums = np.add.reduceat(rows, xi[:-1], axis=1).astype(np.float64)
    areas = ((yi[1:] - yi[:-1])[:, None] * (xi[1:] - xi[:-1])[None, :])[:, :, None]
    return Image(sums / areas)


_FILTERS = {
    "nearest": resize_nearest,
    "bilinear": resize_bilinear,
    "box": resize_box,
}


def resize(image: Image, width: int, height: int, method: str = "box") -> Image:
    """Resize ``image`` to ``width`` x ``height`` using ``method``."""
    try:
        fn = _FILTERS[method]
    except KeyError:
        raise ImageFormatError(
            f"unknown resize method {method!r}; choose from {sorted(_FILTERS)}"
        ) from None
    return fn(image, width, height)


def scale_to_fraction(image: Image, fraction: float, method: str = "box") -> Image:
    """Scale both dimensions by ``fraction`` (the paper uses 0.10)."""
    if not 0 < fraction:
        raise ImageFormatError(f"fraction must be positive, got {fraction}")
    width = max(1, int(round(image.width * fraction)))
    height = max(1, int(round(image.height * fraction)))
    return resize(image, width, height, method=method)
