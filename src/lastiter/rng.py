"""Seeded random streams.

Every source of randomness in the package flows from a 64-bit seed through a
counter-based Philox generator.  Distinct jobs (problem generation, SGD index
sampling, lemma grid points, initial-point directions) mix a fixed purpose tag
into the second Philox key word, so streams for different purposes are
disjoint under the same seed and adding a new consumer never perturbs an
existing stream.

A seed block's short streams can also be computed without a generator per
seed: ``_philox_words`` evaluates Philox4x64-10 (Salmon et al., SC 2011) for
every (seed, counter) pair of a block in one vectorized numpy pass, and
``_block_integers`` turns the words into draws the way numpy's
``Generator.integers`` does (Lemire's bounded method, ACM TOMACS 2019).  The
draws are bit for bit those of ``stream``, except in rows where numpy would
have rejected a draw and drawn again; ``_block_integers`` flags those rows
for the caller to redraw from ``stream``.
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
_MASK32 = np.uint64(0xFFFFFFFF)
# Philox4x64-10's multipliers and key increments (Random123, as numpy uses them).
_PHILOX_M = tuple(
    (np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
    for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157)
)
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10

# Purpose tags, one per randomness consumer.  Append-only: reassigning a tag
# silently changes every seeded result downstream of it.
PROBLEM_STREAM = 0x11
RUN_STREAM = 0x22
POINT_STREAM = 0x33
DIRECTION_STREAM = 0x44


def _as_integer(value, name: str, error: type[Exception] = ValueError) -> int:
    """``value`` as an int, refusing with ``error`` one that is not equal to it.

    Integral floats such as 1000.0 pass, 2.5, "3" and booleans are refused,
    and NaN or inf raise what ``int`` raises.
    """
    number = int(value)
    if number != value or isinstance(value, (bool, np.bool_)):
        raise error(f"{name} must be an integer, got {value!r}")
    return number


def check_seed(seed: int) -> int:
    """Validate and return a seed that fits in an unsigned 64-bit word."""
    seed = _as_integer(seed, "seed")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed}")
    return seed


def _checked_seeds(seeds) -> np.ndarray:
    """A block of seeds as uint64, every seed checked as ``check_seed`` checks it.

    A block of ints (Python or numpy, not bool) needs only its extremes
    checked, so it costs no Python step per seed; any other block is
    checked seed by seed, so its first bad seed raises ``check_seed``'s
    error.
    """
    seeds = list(seeds)
    kinds = set(map(type, seeds))
    if seeds and all(issubclass(kind, (int, np.integer)) and kind is not bool for kind in kinds):
        for extreme in (min(seeds), max(seeds)):
            check_seed(extreme)
        return np.array(seeds, dtype=np.uint64)
    return np.array([check_seed(seed) for seed in seeds], dtype=np.uint64)


def stream(seed: int, purpose: int) -> np.random.Generator:
    """Independent generator for the (seed, purpose) pair."""
    key = np.array([check_seed(seed), int(purpose)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _mulhilo(a: np.ndarray, m: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Low and high words of the 128-bit products a * M, for M given as (M, low half, high half).

    numpy's uint64 product keeps only the low word, so the high word is
    summed from 32-bit half products, none of which can overflow.
    """
    m, m_lo, m_hi = m
    a_lo, a_hi = a & _MASK32, a >> 32
    u = a_hi * m_lo + (a_lo * m_lo >> 32)
    v = a_lo * m_hi + (u & _MASK32)
    return a * m, a_hi * m_hi + (u >> 32) + (v >> 32)


def _philox_words(seeds, purpose: int, count: int) -> np.ndarray:
    """The first ``count`` 64-bit words of ``stream(seed, purpose)`` per seed, as (S, count) uint64.

    numpy's Philox hands out the four words of Philox4x64-10 applied to the
    counter (c, 0, 0, 0) under the key (seed, purpose), for c = 1, 2, ...
    """
    key0 = _checked_seeds(seeds)[:, None]
    key1 = np.array([int(purpose)], dtype=np.uint64)  # an array: wrapping adds stay silent
    zero = np.zeros((1, 1), dtype=np.uint64)
    c0, c1, c2, c3 = np.arange(1, -(-count // 4) + 1, dtype=np.uint64)[None, :], zero, zero, zero
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        lo0, hi0 = _mulhilo(c0, _PHILOX_M[0])
        lo1, hi1 = _mulhilo(c2, _PHILOX_M[1])
        c0, c1, c2, c3 = hi1 ^ c1 ^ key0, lo1, hi0 ^ c3 ^ key1, lo0
    # From the third round on, every lane has one row per seed and one column per counter.
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(len(key0), -1)[:, :count]


def _block_integers(seeds, purpose: int, bounds) -> tuple[np.ndarray, np.ndarray]:
    """``integers(0, bound)`` for each bound in turn, from ``stream(seed, purpose)`` per seed.

    Returns the (S, len(bounds)) int64 draws and a boolean mask of the rows
    in which numpy would have rejected a draw and drawn again; their draws
    are wrong from that draw on.  Each bound must lie in [2, 2**32], where
    numpy draws 32 bits at a time, the low half of each word first.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.size and not (bounds.min() >= 2 and bounds.max() <= 2**32):
        raise ValueError("bounds must lie in [2, 2**32]")
    words = _philox_words(seeds, purpose, -(-bounds.size // 2))
    # Viewed as little-endian 32-bit words, each word's low half comes first.
    halves = words.astype("<u8", copy=False).view("<u4")[:, : bounds.size]
    m = halves * bounds  # Lemire: the draw is the high half, the leftover the low half
    threshold = (np.uint64(2**32) - bounds) % bounds  # 2**32 mod bound
    return (m >> 32).view(np.int64), ((m & _MASK32) < threshold).any(axis=1)

