"""Deterministic RNG derivation.

All randomness in the library flows through ``rng_for``: a PCG64 generator
keyed by an integer seed plus optional sub-keys (trial index, attempt
counter).  Same key, same stream, on any platform with the same numpy.
"""

import operator

import numpy as np


def rng_for(*key: int) -> np.random.Generator:
    for k in key:
        if not hasattr(k, "__index__"):
            raise ValueError(f"seed must be an integer, got {k!r}")
    key = tuple(map(operator.index, key))
    if min(key, default=0) < 0:
        raise ValueError(f"seed must be nonnegative, got {min(key)}")
    return np.random.default_rng(np.random.SeedSequence(key))
