"""A master seed outside 0 .. MAX_SEED is refused where its streams are
made, so no caller, command or library, can alias one seed with another."""

import numpy as np
import pytest

from cacrad.errors import BadRange
from cacrad.phantom import make_subject
from cacrad.rng import MAX_SEED, derive_seed, seed_sequence, stream


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
def test_seed_outside_the_range_raises_bad_range(seed):
    for make in (seed_sequence, stream, derive_seed):
        with pytest.raises(BadRange, match=f"seed must be from 0 to {MAX_SEED}, got {seed}"):
            make(seed, "subject", 0)
    with pytest.raises(BadRange, match="seed"):
        make_subject(0, True, "contrast", seed=seed, dims=(24, 24, 12))


def test_range_ends_make_subjects_of_their_own():
    low = make_subject(0, True, "contrast", seed=0, dims=(24, 24, 12))
    high = make_subject(0, True, "contrast", seed=MAX_SEED, dims=(24, 24, 12))
    assert not np.array_equal(low.volume.intensities, high.volume.intensities)
