"""Deterministic RNG stream derivation.

Every stochastic component draws from a generator derived from a root seed
plus a tuple of context tokens (stage index, task id, sub-goal id, ...).
String tokens are digested with sha256 so derivation is stable across
processes and Python versions.
"""

import hashlib

import numpy as np


def _token_to_int(token) -> int:
    if isinstance(token, (int, np.integer)):
        return int(token) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(token).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def seed_seq(*tokens) -> np.random.SeedSequence:
    return np.random.SeedSequence([_token_to_int(t) for t in tokens])


def rng_for(*tokens) -> np.random.Generator:
    """Generator for a (seed, *context) stream; same tokens, same stream."""
    return np.random.default_rng(seed_seq(*tokens))

