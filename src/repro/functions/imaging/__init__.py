"""A small, dependency-light imaging library (numpy-backed).

This is the real compute behind the paper's "Image Resizer" function:
on start-up it loads a 1 MB, 3440x1440 image, and for each request
scales it down to 10 % of its original size (§4.1) with the box
filter. The paper's source image is an imgur download we cannot fetch
offline, so :mod:`repro.functions.imaging.generate` synthesizes a
deterministic photographic-looking image of the same dimensions
instead (substitution documented in DESIGN.md). The image is made in
memory, so there is no file format to decode.
"""

from repro.functions.imaging.image import Image, ImageFormatError
from repro.functions.imaging.resize import resize_box, resize_bilinear
from repro.functions.imaging.generate import synthetic_photo

__all__ = [
    "Image",
    "ImageFormatError",
    "resize_box",
    "resize_bilinear",
    "synthetic_photo",
]
