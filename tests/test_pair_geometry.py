import math

import numpy as np
import pytest

from semicert import (
    BoundaryPoint,
    Geodesic,
    MoebiusMap,
    axis,
    classify,
    conjugate,
    cross_ratio,
    configuration,
    common_perpendicular,
    from_axis_and_length,
    inverse_flip_identity_check,
    normalize,
)
from semicert.errors import AxesCross, DegenerateCrossRatio, NotHyperbolic, SharedEndpoint
from semicert.moebius_core import axis_chart, power
from semicert.pair_geometry import Family, distance_from_cross_ratio

from helpers import (
    brute_force_line_distance,
    crossing_pair,
    disjoint_pair,
    figure_two,
    random_moebius,
    section_one_pair,
    tangent_at,
)

INF = BoundaryPoint.infinity()


def real(v):
    return BoundaryPoint.from_real(v)


class TestCrossRatio:
    def test_orthogonal_crossing(self):
        F = figure_two(1.0)
        assert cross_ratio(F[0], F[4]) == pytest.approx(-1.0, abs=1e-12)
        assert cross_ratio(F[2], F[4]) == pytest.approx(-1.0, abs=1e-12)

    def test_figure_two_table(self):
        F = figure_two(1.0)
        assert cross_ratio(F[1], F[4]) == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert cross_ratio(F[3], F[4]) == pytest.approx(9.0, abs=1e-12)
        assert abs(cross_ratio(F[0], F[1])) < 1e-12  # shared attracting point
        assert abs(cross_ratio(F[2], F[3])) < 1e-12

    def test_shared_alpha_gives_zero(self):
        f = from_axis_and_length(real(0.0), INF, 1.0)
        g = from_axis_and_length(real(1.0), INF, 2.0)
        assert cross_ratio(f, g) == pytest.approx(0.0, abs=1e-15)

    def test_alpha_meets_beta_gives_infinity(self):
        f, g = section_one_pair()
        assert math.isinf(cross_ratio(f, g))

    def test_symmetric(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            f, g = disjoint_pair(rng, 0.8, 1.0, 1.5)
            assert cross_ratio(f, g) == pytest.approx(cross_ratio(g, f), rel=1e-12)

    def test_moebius_invariance(self):
        rng = np.random.default_rng(31)
        f0, g0 = disjoint_pair(rng, 0.9, 1.1, 0.7)
        base = cross_ratio(f0, g0)
        for _ in range(1000):
            m = random_moebius(rng)
            assert cross_ratio(conjugate(f0, m), conjugate(g0, m)) == pytest.approx(
                base, abs=1e-9 * (1.0 + abs(base))
            )

    def test_iterates_share_cross_ratio(self):
        rng = np.random.default_rng(32)
        f, g = disjoint_pair(rng, 1.2, 0.9, 1.3)
        base = cross_ratio(f, g)
        for k, j in ((2, 1), (1, 3), (4, 5)):
            assert cross_ratio(power(f, k), power(g, j)) == pytest.approx(base, rel=1e-9)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            cross_ratio(normalize([[1.0, 1.0], [0.0, 1.0]]), normalize([[2.0, 0.0], [0.0, 1.0]]))


ELLIPTIC = normalize([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("pair_function", [cross_ratio, configuration])
def test_first_map_not_hyperbolic_is_named_f(pair_function):
    with pytest.raises(NotHyperbolic, match="^f is elliptic, not hyperbolic$"):
        pair_function(ELLIPTIC, section_one_pair()[1])


@pytest.mark.parametrize("pair_function", [cross_ratio, configuration])
def test_second_map_not_hyperbolic_is_named_g(pair_function):
    with pytest.raises(NotHyperbolic, match="^g is elliptic, not hyperbolic$"):
        pair_function(section_one_pair()[0], ELLIPTIC)


class TestConfiguration:
    def test_right_angle(self):
        rng = np.random.default_rng(33)
        f, g = crossing_pair(rng, math.pi / 2.0, 1.0, 1.0)
        cfg = configuration(f, g)
        assert cfg.kind == "crossing"
        assert cfg.theta == pytest.approx(math.pi / 2.0, abs=1e-9)
        assert cfg.cross_ratio == pytest.approx(-1.0, abs=1e-9)

    def test_nested_disjoint_distance(self):
        rng = np.random.default_rng(34)
        f, g = disjoint_pair(rng, math.log(2.0), 1.0, 1.0)
        cfg = configuration(f, g)
        assert cfg.kind == "disjoint"
        assert cfg.nested_attractors
        assert cfg.cross_ratio == pytest.approx(9.0, abs=1e-9)
        assert cfg.distance == pytest.approx(math.log(2.0), abs=1e-9)

    def test_aligned_disjoint_distance(self):
        # Reversing one orientation flips C to 1/9 with the same distance.
        rng = np.random.default_rng(35)
        f, g = disjoint_pair(rng, math.log(2.0), 1.0, 1.0)
        from semicert import inverse

        cfg = configuration(inverse(f), g)
        assert cfg.kind == "disjoint"
        assert not cfg.nested_attractors
        assert cfg.cross_ratio == pytest.approx(1.0 / 9.0, abs=1e-10)
        assert cfg.distance == pytest.approx(math.log(2.0), abs=1e-9)

    def test_crossing_roundtrip(self):
        rng = np.random.default_rng(36)
        for _ in range(1000):
            theta = rng.uniform(0.05, math.pi - 0.05)
            f, g = crossing_pair(rng, theta, 0.8, 1.2)
            cfg = configuration(f, g)
            assert cfg.kind == "crossing"
            assert cfg.theta == pytest.approx(theta, abs=1e-8)
            assert cfg.cross_ratio == pytest.approx(
                -math.tan(0.5 * theta) ** 2, abs=1e-8 * (1.0 + math.tan(0.5 * theta) ** 2)
            )

    def test_disjoint_roundtrip(self):
        rng = np.random.default_rng(37)
        for _ in range(1000):
            d = rng.uniform(0.1, 3.0)
            f, g = disjoint_pair(rng, d, 1.0, 1.0)
            cfg = configuration(f, g)
            assert cfg.distance == pytest.approx(d, abs=1e-8)
            expected = 1.0 / math.tanh(0.5 * d) ** 2
            assert cfg.cross_ratio == pytest.approx(expected, rel=1e-8)

    def test_degenerate_access_raises(self):
        f = from_axis_and_length(real(0.0), INF, 1.0)
        g = from_axis_and_length(real(1.0), INF, 2.0)
        cfg = configuration(f, g)
        assert cfg.kind == "shared_alpha"
        with pytest.raises(DegenerateCrossRatio):
            _ = cfg.theta
        with pytest.raises(DegenerateCrossRatio):
            _ = cfg.distance


class TestInverseFlip:
    def test_known_pair(self):
        rng = np.random.default_rng(38)
        f, g = disjoint_pair(rng, math.log(2.0), 1.0, 1.0)
        c, c_inv = inverse_flip_identity_check(f, g)
        assert c == pytest.approx(9.0, abs=1e-9)
        assert c_inv == pytest.approx(1.0 / 9.0, abs=1e-10)

    def test_product_is_one(self):
        rng = np.random.default_rng(39)
        for _ in range(300):
            f, g = disjoint_pair(rng, rng.uniform(0.2, 2.5), 1.0, 1.4)
            c, c_inv = inverse_flip_identity_check(f, g)
            assert c * c_inv == pytest.approx(1.0, abs=1e-9)


class TestCommonPerpendicular:
    def test_concentric_half_circles(self):
        l1 = Geodesic(real(-1.0), real(1.0))
        l2 = Geodesic(real(-2.0), real(2.0))
        perp, foot1, foot2, d = common_perpendicular(l1, l2)
        assert d == pytest.approx(math.log(2.0), abs=1e-12)
        assert foot1 == pytest.approx(1j, abs=1e-12)
        assert foot2 == pytest.approx(2j, abs=1e-12)
        ends = sorted([perp.start.value, perp.end.value], key=abs)
        assert ends[0] == pytest.approx(0.0, abs=1e-12)
        assert math.isinf(ends[1])

    def test_vertical_and_half_circle(self):
        l1 = Geodesic(real(0.0), INF)
        l2 = Geodesic(real(1.0), real(2.0))
        perp, foot1, foot2, d = common_perpendicular(l1, l2)
        assert foot1 == pytest.approx(1j * math.sqrt(2.0), abs=1e-12)
        chart1, chart2 = axis_chart(l1), axis_chart(l2)
        assert d == pytest.approx(brute_force_line_distance(chart1, chart2), abs=1e-8)

    def test_symmetry(self):
        l1 = Geodesic(real(-1.0), real(1.0))
        l2 = Geodesic(real(3.0), real(5.0))
        _, f1, f2, d12 = common_perpendicular(l1, l2)
        _, g1, g2, d21 = common_perpendicular(l2, l1)
        assert d12 == pytest.approx(d21, abs=1e-12)
        assert f1 == pytest.approx(g2, abs=1e-9)
        assert f2 == pytest.approx(g1, abs=1e-9)

    def test_feet_are_orthogonal(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            f, g = disjoint_pair(rng, rng.uniform(0.3, 2.0), 1.0, 1.0)
            l1, l2 = axis(f), axis(g)
            perp, foot1, foot2, _ = common_perpendicular(l1, l2)
            for line, foot in ((l1, foot1), (l2, foot2)):
                t1 = tangent_at(perp, foot)
                t2 = tangent_at(line, foot)
                dot = t1.real * t2.real + t1.imag * t2.imag
                assert abs(dot) < 1e-7

    def test_near_vertical_perpendicular_matches_cross_ratio(self):
        # Generators 10 and 29 of assembly-large seed 45, family admissible32/3:
        # their common perpendicular is a near-vertical half-circle of huge radius.
        f = MoebiusMap(
            -7723159180656495.0, 3341268183132059.5, -2.9487306711274076e16, 1.2757085205158436e16
        )
        g = MoebiusMap(
            4795559954432299.0, 5050549539804464.0, 2743990322201417.5, 2889893816511124.5
        )
        expected = distance_from_cross_ratio(cross_ratio(f, g))
        _, f1, f2, d12 = common_perpendicular(axis(f), axis(g))
        _, g1, g2, d21 = common_perpendicular(axis(g), axis(f))
        assert d12 == pytest.approx(expected, abs=1e-9)
        assert d21 == pytest.approx(expected, abs=1e-9)
        assert f1 == pytest.approx(g2, abs=1e-9) and f2 == pytest.approx(g1, abs=1e-9)

    def test_rejects_crossing_and_shared(self):
        with pytest.raises(AxesCross):
            common_perpendicular(Geodesic(real(-1.0), real(1.0)), Geodesic(real(0.0), INF))
        with pytest.raises(SharedEndpoint):
            common_perpendicular(Geodesic(real(0.0), INF), Geodesic(INF, real(1.0)))


class TestAxesDistance:
    def test_values(self):
        rng = np.random.default_rng(41)
        f, g = disjoint_pair(rng, math.log(2.0), 1.0, 1.0)
        assert Family.of([f, g]).pair(0, 1).distance == pytest.approx(math.log(2.0), abs=1e-12)

    def test_reciprocal_symmetry(self):
        from semicert import inverse

        rng = np.random.default_rng(42)
        f, g = disjoint_pair(rng, math.log(2.0), 1.0, 1.0)
        assert Family.of([inverse(f), g]).pair(0, 1).distance == pytest.approx(math.log(2.0), abs=1e-9)

    def test_cross_checks_perpendicular(self):
        rng = np.random.default_rng(43)
        for _ in range(200):
            f, g = disjoint_pair(rng, rng.uniform(0.2, 2.5), 0.8, 1.1)
            _, _, _, d = common_perpendicular(axis(f), axis(g))
            assert Family.of([f, g]).pair(0, 1).distance == pytest.approx(d, abs=1e-9)

    def test_c_25_over_4(self):
        # C = 25/4 decodes to distance log(7/3).
        d = 2.0 * math.atanh(1.0 / math.sqrt(25.0 / 4.0))
        assert d == pytest.approx(math.log(7.0 / 3.0), abs=1e-12)
        rng = np.random.default_rng(44)
        f, g = disjoint_pair(rng, d, 1.0, 1.0)
        assert cross_ratio(f, g) == pytest.approx(25.0 / 4.0, rel=1e-9)
        assert Family.of([f, g]).pair(0, 1).distance == pytest.approx(math.log(7.0 / 3.0), abs=1e-9)

    def test_degenerate_raises(self):
        f = from_axis_and_length(real(0.0), INF, 1.0)
        g = from_axis_and_length(real(1.0), INF, 2.0)
        with pytest.raises(DegenerateCrossRatio):
            Family.of([f, g]).pair(0, 1).distance
