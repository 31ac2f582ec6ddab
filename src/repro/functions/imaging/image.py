"""The in-memory image type."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class ImageFormatError(Exception):
    """Raised on a malformed pixel array or an invalid image size."""


class Image:
    """An RGB image backed by a ``(height, width, 3)`` uint8 array."""

    def __init__(self, pixels: np.ndarray) -> None:
        pixels = np.asarray(pixels)
        if pixels.ndim == 2:
            pixels = np.stack([pixels] * 3, axis=-1)
        if pixels.ndim != 3 or pixels.shape[2] != 3:
            raise ImageFormatError(
                f"expected (H, W, 3) pixel array, got shape {pixels.shape}"
            )
        if pixels.dtype != np.uint8:
            pixels = np.clip(np.round(pixels), 0, 255).astype(np.uint8)
        self.pixels = pixels

    # -- properties --------------------------------------------------------------

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def size(self) -> Tuple[int, int]:
        return self.width, self.height

    @property
    def nbytes(self) -> int:
        return int(self.pixels.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Image({self.width}x{self.height})"
