"""Seeded, named random-number streams.

Every stochastic choice in the reproduction (job draws, CPU-phase jitter,
failure injection) pulls from a named stream derived from a single master
seed, so that adding a new consumer of randomness does not perturb the
draws seen by existing consumers.

numpy is imported by the first :meth:`RngStreams.stream` call, not by
this module: a run that never draws a random number never loads it.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Dict

if TYPE_CHECKING:
    import numpy as np

__all__ = ["RngStreams"]


class RngStreams:
    """A family of independent ``numpy.random.Generator`` streams.

    >>> rngs = RngStreams(seed=42)
    >>> a = rngs.stream("jobs")
    >>> b = rngs.stream("failures")
    >>> a is rngs.stream("jobs")
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the stream called ``name``."""
        if name not in self._streams:
            import numpy as np

            digest = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            child_seed = int.from_bytes(digest[:8], "little")
            self._streams[name] = np.random.default_rng(child_seed)
        return self._streams[name]

    def spawn(self, name: str) -> "RngStreams":
        """Derive a child family (e.g. one per experiment repetition)."""
        digest = hashlib.sha256(f"{self.seed}:spawn:{name}".encode()).digest()
        return RngStreams(int.from_bytes(digest[:8], "little"))
