"""The Image Resizer function (paper §4.1).

"On start-up, it loads a 1 MB, 3440x1440 pixels image, and for each
incoming request the function scales it down to 10 % of its original
size." It is the paper's best case for prebaking (71 % improvement)
because its APPINIT is I/O heavy and its snapshot is large (99.2 MB).

The simulated replica keeps a reduced-resolution working copy in memory
(timing comes from the calibrated profile, not from pixel arithmetic).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, TYPE_CHECKING

from repro.functions.base import FunctionApp, register_app
from repro.functions.imaging.generate import PAPER_HEIGHT, PAPER_WIDTH, synthetic_photo
from repro.functions.imaging.image import Image
from repro.functions.imaging.resize import scale_to_fraction
from repro.sim.costmodel import IMAGE_RESIZER_COSTS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.runtime.base import ManagedRuntime, Request

SOURCE_IMAGE_PATH = "/srv/functions/image-resizer/source-3440x1440.jpg"
SOURCE_IMAGE_BYTES = 1 * 1024 * 1024  # "a 1MB, 3440x1440 pixels image"
SCALE_FRACTION = 0.10

# The working copy the simulated replica actually resizes per request.
# 1/10 the linear resolution keeps each simulated invocation cheap
# while still pushing real pixels through the box filter.
_WORKING_WIDTH = PAPER_WIDTH // 10
_WORKING_HEIGHT = PAPER_HEIGHT // 10


class ImageResizerFunction(FunctionApp):
    """Load a large image at APPINIT; downscale to 10 % per request."""

    def __init__(self) -> None:
        super().__init__(IMAGE_RESIZER_COSTS)
        self._working_image: Optional[Image] = None

    def artifact_size(self) -> int:
        # Bundle includes the three JDK image-processing packages' glue.
        return int(2.1 * 1024 * 1024)

    def ensure_artifacts(self, kernel) -> str:  # type: ignore[override]
        path = super().ensure_artifacts(kernel)
        kernel.fs.ensure(SOURCE_IMAGE_PATH, size=SOURCE_IMAGE_BYTES)
        return path

    # -- lifecycle --------------------------------------------------------------

    def init(self, runtime: "ManagedRuntime") -> None:
        """APPINIT: read and decode the source image (the I/O the paper
        identifies as dominating this function's vanilla APPINIT)."""
        kernel = runtime.kernel
        source = kernel.fs.lookup(SOURCE_IMAGE_PATH)
        runtime.process.open_fd(source, flags="r")
        kernel.page_cache.warm(source, fraction=1.0)
        self._working_image = synthetic_photo(_WORKING_WIDTH, _WORKING_HEIGHT)

    def execute(self, runtime: "ManagedRuntime", request: "Request") -> Tuple[Any, int]:
        if self._working_image is None:
            return "image not loaded", 500
        thumb = scale_to_fraction(self._working_image, SCALE_FRACTION)
        return {"width": thumb.width, "height": thumb.height,
                "bytes": thumb.nbytes}, 200


register_app("image-resizer", ImageResizerFunction)
