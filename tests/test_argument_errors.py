"""The library's edge arguments: each public function answers or raises as its docstring says.

Each case is one argument at the edge of what a function takes: a negative
power, an image that leaves its target arc, an empty input, a pair of one
generator with itself, a value off its domain.
"""

import math

import numpy as np
import pytest

from semicert import (
    ArcUnion,
    BoundaryArc,
    BoundaryPoint,
    Family,
    HRegion,
    can_partition_rank_one,
    chaos_game,
    enumerate_words,
    from_axis_and_length,
    h_function,
    hyperbolic_distance,
    inverse,
    uniform_hyperbolicity,
)
from semicert.boundary_arcs import complement
from semicert.errors import InvalidMatrix
from semicert.interval_builder import SymmetricIntervalPair, mapping_margin
from semicert.moebius_core import power
from semicert.render import RenderSpec, render_figure

from helpers import arc_image, section_one_pair


@pytest.mark.parametrize("k", [1, 2, 3, 7])
def test_a_negative_power_is_the_power_of_the_inverse(k):
    for f in section_one_pair():
        assert power(f, -k) == power(inverse(f), k)


def test_mapping_margin_is_minus_inf_when_the_image_leaves_a():
    f = from_axis_and_length(BoundaryPoint.from_angle(1.0), BoundaryPoint.from_angle(4.0), 6.0)
    b = BoundaryArc.from_angles(0.9, 1.1)
    image = arc_image(f, complement(b))
    inside = BoundaryArc.from_angles(image.start.angle - 1e-3, image.end.angle + 1e-3)
    shifted = BoundaryArc.from_angles(image.start.angle + 1e-3, image.end.angle + 1e-3)
    assert mapping_margin(f, SymmetricIntervalPair(inside, b, 0)) > 0.0
    assert mapping_margin(f, SymmetricIntervalPair(shifted, b, 0)) == -math.inf


def test_uniform_hyperbolicity_of_no_matrix_is_an_invalid_matrix():
    with pytest.raises(InvalidMatrix):
        uniform_hyperbolicity([])


@pytest.mark.parametrize("i", [0, 1])
def test_a_generator_with_itself_is_no_pair(i):
    family = Family.of(section_one_pair())
    with pytest.raises(KeyError):
        family.cross_ratio(i, i)


def empty_arrays():
    return tuple(np.array([]) for _ in range(3))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ArcUnion.of_arrays(empty_arrays(), empty_arrays()), "at least one arc"),
        (lambda: can_partition_rank_one([], [BoundaryPoint.from_real(0.0)]), "nonempty"),
        (lambda: h_function(-1.0, 1.0, 1.0), "nonnegative"),
        (lambda: HRegion(0.0), "positive"),
        (lambda: hyperbolic_distance(1j, 2.0 + 0j), "upper half-plane"),
        (lambda: render_figure(section_one_pair(), None, RenderSpec(size=0)), "positive"),
        (lambda: enumerate_words(section_one_pair(), 0), "at least 1"),
        (lambda: enumerate_words([], 3), "at least one generator"),
        (lambda: chaos_game(section_one_pair(), 0, seed=1), "at least 1"),
    ],
    ids=[
        "of_arrays-no-arc",
        "can_partition_rank_one-no-alpha",
        "h_function-negative",
        "HRegion-zero-distance",
        "hyperbolic_distance-off-the-half-plane",
        "render_figure-size-0",
        "enumerate_words-length-0",
        "enumerate_words-no-generator",
        "chaos_game-no-sample",
    ],
)
def test_an_argument_off_the_domain_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
