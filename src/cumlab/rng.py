"""Deterministic seed derivation for reproducible experiments.

All randomness flows from one 64-bit root seed.  Substreams are derived by
hashing the root seed together with a string tag (grid-point coordinates,
run index, block index, ...) through SHA-256 and keying a Philox
counter-based generator with the first 128 bits of the digest.  The
(SHA-256, Philox4x64) pair is the fixed, documented contract: results are
reproducible across machines, process counts and generation order.
Row block b of a dataset sampled from seed s (`datagen.sample_class`)
comes from ``generator(s, "block", b)``.
"""

from __future__ import annotations

import hashlib

import numpy as np


def derive_key(seed: int, *parts) -> int:
    """128-bit Philox key from a root seed and a tag tuple."""
    tag = ":".join([str(int(seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "little")


def spawn_seed(seed: int, *parts) -> int:
    """64-bit subseed for handing to nested samplers."""
    return derive_key(seed, *parts) & 0xFFFFFFFFFFFFFFFF


def generator(seed: int, *parts) -> np.random.Generator:
    """Philox generator on the substream named by `parts`."""
    return np.random.Generator(np.random.Philox(key=derive_key(seed, *parts)))
