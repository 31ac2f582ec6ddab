"""Image resampling: the box (area) filter, a downscale filter.

The paper's Image Resizer "scales [the image] down to 10 % of its
original size" per request; box filtering is the right choice for large
downscales, and every request takes it through :func:`scale_to_fraction`.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.functions.imaging.image import Image, ImageFormatError


def _check_target(width: int, height: int) -> None:
    if width <= 0 or height <= 0:
        raise ImageFormatError(f"invalid target size {width}x{height}")


def _box_edges(size: int, count: int) -> List[int]:
    """Edges of ``count`` boxes over ``size >= count`` source pixels.

    The even split ``k * size / count`` is rounded half to even, as
    ``np.round(np.linspace(0, size, count + 1))`` rounds it; those edges
    already rise and stay inside ``[0, size]``. They are then forced to
    rise strictly, so no box is empty.
    """
    step = size / count
    edges = [round(k * step) for k in range(count)]
    edges.append(size)
    for i in range(1, count + 1):
        if edges[i] <= edges[i - 1]:
            edges[i] = min(edges[i - 1] + 1, size)
    for i in range(count - 1, -1, -1):
        if edges[i] >= edges[i + 1]:
            edges[i] = max(edges[i + 1] - 1, 0)
    return edges


def resize_box(image: Image, width: int, height: int) -> Image:
    """Box (area-average) filter — the right filter for big downscales.

    Box edges are snapped to whole source pixels (exact for integer
    ratios, within 1 px otherwise) and never empty. Each box is summed
    in exact integers — each row box's uint8 rows straight into int64,
    then the columns with ``np.add.reduceat`` — and divided by its
    pixel count.
    """
    _check_target(width, height)
    if width > image.width or height > image.height:
        # Enlarging an axis would leave source boxes empty.
        raise ImageFormatError(
            f"box filter only downscales: {image.width}x{image.height} "
            f"to {width}x{height}")
    xi = _box_edges(image.width, width)
    yi = _box_edges(image.height, height)
    px = image.pixels
    rows = np.empty((height, image.width, 3), dtype=np.int64)
    for r in range(height):
        px[yi[r]:yi[r + 1]].sum(axis=0, dtype=np.int64, out=rows[r])
    # The last edge is the image border and the edges strictly rise, so
    # segment i of the reduceat is exactly source columns [e_i, e_i+1).
    # uint8 pixels keep every sum far below 2**53: the float64 cast is
    # exact.
    sums = np.add.reduceat(rows, xi[:-1], axis=1).astype(np.float64)
    areas = (np.diff(yi)[:, None] * np.diff(xi)[None, :])[:, :, None]
    return Image(sums / areas)


def scale_to_fraction(image: Image, fraction: float) -> Image:
    """Scale both dimensions by ``fraction`` (the paper uses 0.10)."""
    if not 0 < fraction <= 1:
        raise ImageFormatError(f"fraction must be in (0, 1], got {fraction}")
    width = max(1, int(round(image.width * fraction)))
    height = max(1, int(round(image.height * fraction)))
    return resize_box(image, width, height)
