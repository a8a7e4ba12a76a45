"""Deterministic, splittable random streams.

Every random decision in the pipeline draws from a Generator obtained via
``stream(master_seed, *path)``. The path (strings and ints) is hashed into
a numpy SeedSequence spawn key, so independent components get independent
streams while the whole run stays a pure function of one 64-bit seed.
"""

import hashlib

import numpy as np

from .errors import BadRange

MAX_SEED = 2 ** 64 - 1  # a master seed is one of 0 .. MAX_SEED


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        return int(part) & 0xFFFFFFFF
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


def seed_sequence(master_seed: int, *path) -> np.random.SeedSequence:
    """SeedSequence of the component at path; BadRange for a master seed
    outside 0 .. MAX_SEED, which would otherwise alias one inside it."""
    if not 0 <= master_seed <= MAX_SEED:
        raise BadRange(f"seed must be from 0 to {MAX_SEED}, got {master_seed}")
    return np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=tuple(_key_part(p) for p in path),
    )


def stream(master_seed: int, *path) -> np.random.Generator:
    """Generator for the component identified by ``path`` under one master seed."""
    return np.random.Generator(np.random.Philox(seed_sequence(master_seed, *path)))


def derive_seed(master_seed: int, *path) -> int:
    """Child integer seed; distinct paths yield independent streams."""
    return int(seed_sequence(master_seed, *path).generate_state(1, np.uint64)[0])
