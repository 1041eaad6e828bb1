"""Deterministic counter-based random substreams.

Monte Carlo routines never share one sequential stream.  Each block of
samples draws from its own substream keyed by (master seed, purpose tag,
block index), so a result is a function of the master seed and the sample
count alone, and block partials are reduced in block order.
"""
from __future__ import annotations

import numpy as np

__all__ = ["substream", "map_blocks", "BLOCK"]

# samples per block: the unit of substream assignment and of each Gram update
BLOCK = 1 << 13

# purpose tags (first spawn-key component); 2 and 3 belong to retired
# streams, and the others keep their values so that their draws stay the same
GRAM = 1
PAIR_DRAW = 4
PROBE = 5


def substream(seed: int, *key: int) -> np.random.Generator:
    """Philox generator for the substream of ``seed`` at spawn key ``key``."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(v) for v in key))
    return np.random.Generator(np.random.Philox(ss))


def map_blocks(fn, nblocks: int):
    """Sum of ``fn(b)`` over block indices b = 0..nblocks-1, added in block order.

    nblocks must be at least 1.  Each block's result is added as it
    arrives, so only one is held at a time.
    """
    total = fn(0)
    for b in range(1, nblocks):
        total += fn(b)
    return total
