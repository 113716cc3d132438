"""The shared test constructions end or refuse at once."""

import numpy as np
import pytest

from semicert.pair_geometry import Family

from helpers import random_admissible_family


def test_random_admissible_family_refuses_a_gap_it_cannot_draw():
    # At the default min_gap, 48 uniform points have every gap that wide
    # with chance about 5e-20: the draw would never end.
    with pytest.raises(ValueError, match="n = 24 .*min_gap = 0.08"):
        random_admissible_family(np.random.default_rng(0), 24)


def test_random_admissible_family_draws_many_generators_at_a_small_gap():
    F = random_admissible_family(np.random.default_rng(0), 32, min_gap=0.01)
    assert len(Family.of(F).cls) == 32
