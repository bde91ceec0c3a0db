"""Stable per-sample seed derivation.

Seeds are split from a global seed plus string parts via SHA-256, so any
sample's randomness is reproducible across runs, machines, and worker counts
without sharing generator state.
"""

import hashlib


def derive_seed(*parts) -> int:
    key = ":".join(map(str, parts))
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")
