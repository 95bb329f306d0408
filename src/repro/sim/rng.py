"""Named deterministic random streams.

Every stochastic component (churn, protocol field randomization, crawler
scheduling, ...) draws from its own named stream derived from one master
seed.  This gives two properties the experiments rely on:

* **Reproducibility** -- the same master seed regenerates the same
  tables and figures bit-for-bit.
* **Isolation** -- adding draws to one component does not perturb any
  other component's stream, so ablations compare like with like.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def random_bytes(rng: random.Random, n: int) -> bytes:
    """``n`` bytes, each the top byte of one 32-bit draw.

    Equal to ``bytes(rng.getrandbits(8) for _ in range(n))``, and leaves
    ``rng`` in the same state: ``getrandbits(32 * n)`` fills its words
    in draw order, least significant first, and ``getrandbits(8)`` is
    the top byte of one word.  (``rng.randbytes`` draws differently.)
    """
    return rng.getrandbits(32 * n).to_bytes(4 * n, "little")[3::4]


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a label.

    Uses SHA-256 over the pair, so child streams are statistically
    independent for all practical purposes.
    """
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStream(random.Random):
    """A registry stream: a :class:`random.Random` that keeps
    ``gauss_next`` in a slot.

    That attribute is the only one ``random.Random`` sets on an
    instance, so a stream never materialises an instance dict (328
    bytes each, one or more streams per bot).  Its Mersenne Twister
    state (2.5 KiB) stays: it is the stream's future draws.  Draws,
    ``getstate()``, pickling and ``copy.deepcopy`` are those of
    ``random.Random`` with the same seed.
    """

    __slots__ = ("gauss_next",)


class RngRegistry:
    """Factory and cache of named :class:`RngStream` streams."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the stream for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* object, so
        state advances across call sites sharing a stream.
        """
        rng = self._streams.get(name)
        if rng is None:
            rng = RngStream(derive_seed(self.master_seed, name))
            self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngRegistry":
        """Create a child registry rooted at a derived seed.

        Used to give each bot its own registry without coupling bots'
        streams to one another.
        """
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))

    def __contains__(self, name: str) -> bool:
        return name in self._streams
