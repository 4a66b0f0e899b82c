"""Reproducible random-number streams.

Distributed-systems simulations are only debuggable when every run is
reproducible and when adding a new random consumer does not perturb the
draws of existing ones.  :class:`RandomStreams` therefore hands each named
component its own independent generator, derived deterministically from a
root seed and the component's name.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict

__all__ = ["RandomStreams"]


class RandomStreams:
    """A factory of named, independent, reproducible RNG streams.

    >>> streams = RandomStreams(seed=42)
    >>> a = streams.stream("disk")       # stdlib random.Random
    >>> streams.stream("disk") is a      # same name -> same stream
    True
    """

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, random.Random] = {}  # simlint: disable=R23  named streams must persist for replay determinism; one small Random per name, freed with the world

    def _derive(self, name: str) -> int:
        digest = hashlib.sha256(
            ("%d/%s" % (self.seed, name)).encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "big")

    def stream(self, name: str) -> random.Random:
        """Return the stdlib ``random.Random`` stream for ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(self._derive(name))
        return self._streams[name]

    def child(self, name: str) -> "RandomStreams":
        """Derive an independent sub-factory (for nested components)."""
        return RandomStreams(self._derive("child/" + name))

    def spawn_key(self, name: str) -> int:
        """A deterministic 64-bit child seed for ``name``.

        This is how replication runners derive one seed per replication:
        the key is a pure function of the root seed and the replication's
        name/index — never of worker identity, pool size or scheduling
        order — so fanning replications across processes cannot perturb
        any draw (see :mod:`repro.experiments.runner`).
        """
        return self._derive("spawn/" + name)
