"""Seeded, named random-number streams.

Experiments need statistical noise (the paper reports bootstrap
confidence intervals over 200 repetitions) while remaining exactly
reproducible run-to-run. ``RandomStreams`` derives an independent
``random.Random`` per *named* stream from a single master seed, so that
adding a new consumer of randomness never perturbs the draws seen by
existing consumers.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Dict


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a stable 64-bit seed for ``name`` from ``master_seed``."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A family of independently seeded random streams.

    Example::

        streams = RandomStreams(seed=42)
        jitter = streams.get("startup-noise")
        x = jitter.random()
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}

    def get(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(_derive_seed(self.seed, name))
            self._streams[name] = stream
        return stream

    # -- distribution helpers ------------------------------------------------

    def lognormal_jitter(self, name: str, median: float, sigma: float) -> float:
        """Draw a log-normally distributed value with the given median.

        ``sigma`` is the shape parameter of the underlying normal; small
        values (0.01-0.05) give the tight, slightly right-skewed spread
        seen in start-up latency samples.
        """
        if median <= 0:
            return 0.0
        stream = self.get(name)
        return median * math.exp(stream.gauss(0.0, sigma))
