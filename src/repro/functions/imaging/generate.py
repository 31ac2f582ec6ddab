"""Deterministic synthetic source image.

The paper's Image Resizer loads a 1 MB, 3440x1440-pixel photograph
downloaded from imgur. Offline we synthesize a deterministic image of
the same dimensions with photograph-like structure (smooth gradients +
band-limited noise + geometric detail) so that decoding and box
filtering exercise the same code paths and data volumes.
"""

from __future__ import annotations

import numpy as np

from repro.functions.imaging.image import Image

PAPER_WIDTH = 3440
PAPER_HEIGHT = 1440


def synthetic_photo(width: int = PAPER_WIDTH,
                    height: int = PAPER_HEIGHT) -> Image:
    """Generate the stand-in for the paper's source image.

    Deterministic (one fixed seed). The default dimensions match the
    paper (3440x1440).
    """
    if width <= 0 or height <= 0:
        raise ValueError(f"invalid dimensions {width}x{height}")
    rng = np.random.default_rng(2020)
    y = np.linspace(0.0, 1.0, height)[:, None]
    x = np.linspace(0.0, 1.0, width)[None, :]

    # Sky-to-ground gradient per channel.
    r = 90 + 110 * y + 25 * np.sin(2 * np.pi * x * 1.5)
    g = 110 + 80 * y + 20 * np.sin(2 * np.pi * (x * 2.0 + 0.3))
    b = 170 - 90 * y + 15 * np.cos(2 * np.pi * x * 1.2)

    # Band-limited noise: upsample a coarse noise grid (cheap "texture").
    coarse = rng.normal(0.0, 18.0, size=(max(2, height // 48), max(2, width // 48)))
    reps_y = -(-height // coarse.shape[0])
    reps_x = -(-width // coarse.shape[1])
    texture = np.kron(coarse, np.ones((reps_y, reps_x)))[:height, :width]

    # A few geometric features so edges exist for resamplers to chew on.
    ridge = 40.0 * (np.abs(((x * 7) % 1.0) - 0.5) < 0.04)
    disc = 60.0 * (((x - 0.7) ** 2 + ((y - 0.35) * (width / height)) ** 2) < 0.01)

    px = np.stack([
        r + texture + ridge - disc,
        g + texture * 0.8 + ridge,
        b + texture * 0.6 + disc,
    ], axis=-1)
    return Image(np.clip(px, 0, 255))
