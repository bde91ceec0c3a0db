"""Stable per-sample seed derivation.

A sample's seed is split from the global seed and a stable key, a sample's
or a media item's id, via SHA-256 of ``f"{seed}:{key}"``, so any sample's
randomness is reproducible across runs, machines, and worker counts without
sharing generator state.
"""

import hashlib


def derive_seed(seed: int, key: str) -> int:
    digest = hashlib.sha256(f"{seed}:{key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
