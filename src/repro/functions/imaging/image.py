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

    # -- constructors ----------------------------------------------------------

    @classmethod
    def blank(cls, width: int, height: int, color: Tuple[int, int, int] = (0, 0, 0)) -> "Image":
        if width <= 0 or height <= 0:
            raise ImageFormatError(f"invalid dimensions {width}x{height}")
        px = np.empty((height, width, 3), dtype=np.uint8)
        px[:, :] = color
        return cls(px)

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

    # -- pixels --------------------------------------------------------------------

    def get(self, x: int, y: int) -> Tuple[int, int, int]:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x},{y}) outside {self.width}x{self.height}")
        return tuple(int(v) for v in self.pixels[y, x])

    def put(self, x: int, y: int, color: Tuple[int, int, int]) -> None:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x},{y}) outside {self.width}x{self.height}")
        self.pixels[y, x] = color

    def copy(self) -> "Image":
        return Image(self.pixels.copy())

    def mean_color(self) -> Tuple[float, float, float]:
        """Average channel values — useful to verify resizes preserve tone."""
        means = self.pixels.reshape(-1, 3).mean(axis=0)
        return float(means[0]), float(means[1]), float(means[2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Image):
            return NotImplemented
        return self.pixels.shape == other.pixels.shape and bool(
            np.array_equal(self.pixels, other.pixels)
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Image({self.width}x{self.height})"
