"""Deterministic seed derivation.

Every stochastic routine takes an explicit master seed and derives
per-task generators from (master_seed, key...) so that results are
byte-identical across runs and across worker counts.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import ValidationError


def _key_to_int(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFFFFFFFFFF
    # stable across processes, unlike hash()
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_seed_sequence(master_seed: int, *key) -> np.random.SeedSequence:
    seed = int(master_seed)
    if seed < 0:
        raise ValidationError(f"the master seed must be a non-negative integer; got {seed}")
    entropy = (seed,) + tuple(_key_to_int(p) for p in key)
    return np.random.SeedSequence(entropy)


def derive_rng(master_seed: int, *key) -> np.random.Generator:
    """Generator for the task identified by ``key`` under ``master_seed``."""
    return np.random.default_rng(derive_seed_sequence(master_seed, *key))
