"""Seeded random streams.

Every source of randomness in the package flows from a 64-bit seed through a
counter-based Philox generator.  Distinct jobs (problem generation, SGD index
sampling, lemma grid points, initial-point directions) mix a fixed purpose tag
into the second Philox key word, so streams for different purposes are
disjoint under the same seed and adding a new consumer never perturbs an
existing stream.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "DIRECTION_STREAM",
    "POINT_STREAM",
    "PROBLEM_STREAM",
    "RUN_STREAM",
    "check_seed",
    "stream",
]

_MASK64 = (1 << 64) - 1

# Purpose tags, one per randomness consumer.  Append-only: reassigning a tag
# silently changes every seeded result downstream of it.
PROBLEM_STREAM = 0x11
RUN_STREAM = 0x22
POINT_STREAM = 0x33
DIRECTION_STREAM = 0x44


def check_seed(seed: int) -> int:
    """Validate and return a seed that fits in an unsigned 64-bit word."""
    seed = int(seed)
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return seed


def stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent generator for the (seed, purpose) pair."""
    key = np.array([check_seed(seed), int(purpose)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
