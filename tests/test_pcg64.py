"""The package's seeded stream against ``numpy.random``, bit for bit."""

import numpy as np
import pytest

from cogaction._pcg64 import PCG64

SEEDS = [0, 1, 7, 2**31 - 1, 2**32, 2**64 + 3]

# (low, high, size) of the draws that pattern_frame, init_bank and
# gradient_check_instances make
UNIFORM_CALLS = [
    (0.0, 1.0, (8, 8, 3)),
    (-0.1, 0.1, (4, 1, 3, 3)),
    (-0.2, 0.2, (3, 2, 3, 3)),
    (-1.0, 1.0, 2),
    (-1.5, 1.5, (6, 8, 7, 2)),
    (-0.05, 0.05, (4, 3, 3, 3)),
    (0.0, 2.0, None),
    (0.05, 1.0, None),
]

# the suite's ranges, then one whose Lemire rejection loop turns on about a
# quarter of its draws
INTEGER_RANGES = [(4, 9), (2, 7), (1, 4), (2, 5), (0, 2**32), (0, 3 * 2**30)]


def reference(seed):
    return np.random.Generator(np.random.PCG64(seed))


@pytest.mark.parametrize("seed", SEEDS)
def test_uniform_matches_numpy(seed):
    ours, theirs = PCG64(seed), reference(seed)
    for low, high, size in UNIFORM_CALLS:
        got, want = ours.uniform(low, high, size), theirs.uniform(low, high, size)
        if size is None:
            assert type(got) is float and got.hex() == want.hex()
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_interleaved_integers_match_numpy(seed):
    # a 32-bit draw keeps the upper half of its 64-bit draw for the next one,
    # across calls; a uniform draw in between leaves that half kept
    ours, theirs = PCG64(seed), reference(seed)
    for index in range(600):
        low, high = INTEGER_RANGES[index % len(INTEGER_RANGES)]
        assert ours.integers(low, high) == int(theirs.integers(low, high))
        if index % 5 == 0:
            assert ours.uniform().hex() == theirs.uniform().hex()


def test_negative_seed_rejected():
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        PCG64(-1)


@pytest.mark.parametrize("low, high", [(3, 4), (5, 5), (0, 2**32 + 1)])
def test_integers_outside_range_rejected(low, high):
    with pytest.raises(ValueError, match=r"1 < high - low <= 2\*\*32"):
        PCG64(0).integers(low, high)
