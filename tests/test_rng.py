"""The vectorized Philox pass reproduces numpy's per-seed streams bit for bit."""

import numpy as np
import pytest

from lastiter import rng

SEEDS = [0, 1, 2, 2**63, 2**64 - 1, *range(1000, 1060)]
PURPOSES = (rng.RUN_STREAM, rng.PROBLEM_STREAM)


def numpy_halves(seed, purpose, count):
    """The first ``count`` 32-bit values integers() consumes: each word's low half, then its high half."""
    words = rng.stream(seed, purpose).bit_generator.random_raw(-(-count // 2))
    return [int(h) for w in words for h in (int(w) & 0xFFFFFFFF, int(w) >> 32)][:count]


def lemire_reference(halves, bounds):
    """numpy's integers(0, bound) for each bound in turn over a 32-bit stream, scalar by scalar.

    Returns the draws and whether any value was rejected and drawn again.
    """
    stream, out, rejected = iter(halves), [], False
    for bound in bounds:
        threshold = 2**32 % bound
        m = next(stream) * bound
        while m % 2**32 < threshold:
            rejected = True
            m = next(stream) * bound
        out.append(m >> 32)
    return out, rejected


@pytest.mark.parametrize("count", [1, 3, 4, 5, 8, 13])
def test_philox_words_match_stream(count):
    for purpose in PURPOSES:
        words = rng._philox_words(SEEDS, purpose, count)
        assert words.shape == (len(SEEDS), count) and words.dtype == np.uint64
        for row, seed in zip(words, SEEDS):
            assert np.array_equal(row, rng.stream(seed, purpose).bit_generator.random_raw(count))


BOUNDS = [2, 3, 10, 15, 16, 17, 2**16 - 1, 2**16 + 1, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1, 2**32]


@pytest.mark.parametrize("n", BOUNDS)
@pytest.mark.parametrize("count", [1, 7, 9, 21])
def test_block_integers_match_stream(n, count):
    draws, redraw = rng._block_integers(SEEDS, rng.RUN_STREAM, np.full(count, n))
    assert draws.shape == (len(SEEDS), count) and draws.dtype == np.int64
    for row, flagged, seed in zip(draws, redraw, SEEDS):
        want = rng.stream(seed, rng.RUN_STREAM).integers(0, n, size=count)
        # the scalar reference reads the same stream and rejects where numpy does
        reference, rejected = lemire_reference(numpy_halves(seed, rng.RUN_STREAM, 4 * count + 64), [n] * count)
        assert np.array_equal(want, reference)
        assert bool(flagged) == rejected
        if not flagged:
            assert np.array_equal(row, want)


def test_rejected_rows_are_flagged_and_exact_after_the_fallback():
    # 2**32 mod (2**31 + 1) = 2**31 - 1: about half of all values are rejected
    n, count = 2**31 + 1, 9
    draws, redraw = rng._block_integers(SEEDS, rng.RUN_STREAM, np.full(count, n))
    assert redraw.all()
    wants = [rng.stream(seed, rng.RUN_STREAM).integers(0, n, size=count) for seed in SEEDS]
    assert any(not np.array_equal(row, want) for row, want in zip(draws, wants))
    for row in np.flatnonzero(redraw):
        draws[row] = rng.stream(SEEDS[row], rng.RUN_STREAM).integers(0, n, size=count)
    assert np.array_equal(draws, np.stack(wants))
    # small bounds almost never reject
    assert not rng._block_integers(SEEDS, rng.RUN_STREAM, np.full(count, 10))[1].any()


@pytest.mark.parametrize("n, b, steps", [(7, 3, 11), (16, 4, 5), (2**32, 2, 3), (2**31 + 2, 2, 4)])
def test_block_integers_match_minibatch_columns(n, b, steps):
    """Mini-batch chunks draw integers(0, n - k) for all steps, column k after column k - 1."""
    bounds = np.repeat(n - np.arange(b), steps)
    draws, redraw = rng._block_integers(SEEDS, rng.RUN_STREAM, bounds)
    for row, flagged, seed in zip(draws, redraw, SEEDS):
        gen = rng.stream(seed, rng.RUN_STREAM)
        want = np.concatenate([gen.integers(0, n - k, size=steps) for k in range(b)])
        reference, rejected = lemire_reference(numpy_halves(seed, rng.RUN_STREAM, 4 * len(bounds) + 64),
                                               bounds.tolist())
        assert np.array_equal(want, reference) and bool(flagged) == rejected
        if not flagged:
            assert np.array_equal(row, want)


@pytest.mark.parametrize("bound", [0, 1, 2**32 + 1])
def test_block_integers_rejects_bounds_it_cannot_reproduce(bound):
    with pytest.raises(ValueError):
        rng._block_integers([0], rng.RUN_STREAM, [5, bound])


def test_check_seed_refuses_a_fractional_seed():
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 2.5$"):
        rng.check_seed(2.5)
    for flag in (True, np.True_, np.False_):
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {flag!r}$"):
            rng.check_seed(flag)
    assert rng.check_seed(2.0) == 2 and type(rng.check_seed(np.uint64(2**64 - 1))) is int


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_philox_words_reject_seeds_outside_64_bits(seed):
    with pytest.raises(ValueError):
        rng._philox_words([3, seed, 4], rng.RUN_STREAM, 2)
