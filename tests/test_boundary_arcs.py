import math

import numpy as np
import pytest

from semicert import (
    ArcUnion,
    BoundaryPoint,
    apply_boundary,
    arc_image,
    assemble_global,
    can_partition_rank_one,
    classify,
    complement,
    contains,
    normalize,
    strictly_inside,
    verify_schottky,
)
from semicert.boundary_arcs import BoundaryArc, schottky_margin
from semicert.errors import OverlappingArcs, VerificationFailed

from helpers import figure_two, random_admissible_family, random_moebius, section_one_pair

INF = BoundaryPoint.infinity()


def arc(a, b):
    return BoundaryArc.from_reals(a, b)


class TestArcBasics:
    def test_contains_is_strict(self):
        a = arc(1.0, math.inf)
        assert contains(a, BoundaryPoint.from_real(2.0))
        assert not contains(a, BoundaryPoint.from_real(1.0))
        assert not contains(a, INF)
        assert not contains(a, BoundaryPoint.from_real(0.0))

    def test_wrapping_arc(self):
        a = arc(1.0, -1.0)  # through infinity
        assert contains(a, INF)
        assert contains(a, BoundaryPoint.from_real(5.0))
        assert not contains(a, BoundaryPoint.from_real(0.0))

    def test_image_of_dilation(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        img = arc_image(f, arc(1.0, math.inf))
        assert img.start.value == pytest.approx(2.0)
        assert img.end.is_infinity

    def test_image_of_contraction(self):
        g = normalize([[1.0, 2.0], [0.0, 2.0]])
        img = arc_image(g, arc(1.0, math.inf))
        assert img.start.value == pytest.approx(1.5)
        assert img.end.is_infinity
        assert contains(arc(1.0, math.inf), img.midpoint)

    def test_complement(self):
        c = complement(arc(-0.5, 1.5))
        assert c.start.value == pytest.approx(1.5)
        assert c.end.value == pytest.approx(-0.5)
        assert contains(c, INF)
        assert not contains(c, BoundaryPoint.from_real(0.0))

    def test_image_respects_composition(self):
        rng = np.random.default_rng(20)
        for _ in range(200):
            f, g = random_moebius(rng), random_moebius(rng)
            a = BoundaryArc.from_angles(*sorted(rng.uniform(0, 2 * math.pi, size=2)))
            once = arc_image(f @ g, a)
            twice = arc_image(f, arc_image(g, a))
            assert once.start.angular_distance(twice.start) < 1e-9
            assert once.end.angular_distance(twice.end) < 1e-9


    def test_image_below_float_resolution_is_refused(self):
        # Generators of an assembled union squeeze its arcs far below float
        # angular resolution; an image either contains the midpoint's image
        # or is refused, never returned as the complementary arc.
        families = [figure_two(41.0)]
        for seed, count, high in ((64, 20, 6), (120, 10, 5)):
            rng = np.random.default_rng(seed)
            families += [random_admissible_family(rng, int(rng.integers(2, high))) for _ in range(count)]
        outcomes = {"image": 0, "refused": 0}
        for F in families:
            union = assemble_global(F).union
            for f in F:
                for a in union:
                    try:
                        image = arc_image(f, a)
                    except VerificationFailed:
                        outcomes["refused"] += 1
                        continue
                    assert contains(image, apply_boundary(f, a.midpoint))
                    outcomes["image"] += 1
        assert min(outcomes.values()) > 0

    def test_coincident_endpoint_images_are_refused(self):
        squeeze = normalize([[1e9, 0.0], [0.0, 1e-9]])  # attracts everything to infinity
        with pytest.raises(VerificationFailed, match="below float angular resolution"):
            arc_image(squeeze, arc(1.0, 2.0))


class TestArcUnion:
    def test_rejects_overlap(self):
        with pytest.raises(OverlappingArcs):
            ArcUnion([arc(0.0, 2.0), arc(1.0, 3.0)])
        with pytest.raises(OverlappingArcs):
            ArcUnion([arc(0.0, 2.0), arc(2.0, 3.0)])  # touching closures

    def test_orders_by_start_angle(self):
        u = ArcUnion([arc(5.0, 6.0), arc(0.0, 1.0)])
        assert [a.start.value for a in u] == pytest.approx([0.0, 5.0])

    def test_nested_rejected(self):
        with pytest.raises(OverlappingArcs):
            ArcUnion([arc(0.0, 10.0), arc(1.0, 2.0)])


class TestStrictlyInside:
    def test_shared_fixed_endpoint(self):
        assert strictly_inside(ArcUnion([arc(2.0, math.inf)]), ArcUnion([arc(1.0, math.inf)]), 0.0)

    def test_not_inside_itself(self):
        u = ArcUnion([arc(1.0, math.inf)])
        assert not strictly_inside(u, u, 0.0)

    def test_margin_gates(self):
        inner = ArcUnion([BoundaryArc.from_angles(1.0, 2.0)])
        outer = ArcUnion([BoundaryArc.from_angles(1.0 - 1e-6, 2.0 + 1e-6)])
        assert strictly_inside(inner, outer, 1e-7)
        assert not strictly_inside(inner, outer, 1e-5)

    def test_shared_alpha_interval_images(self):
        # Maps z -> lam z + x (1 - lam) with lam > 5 send the complement of
        # (-1/2, 3/2) inside (5/2, -3/2)-through-infinity.
        outer = ArcUnion([arc(2.5, -1.5)])
        b = arc(-0.5, 1.5)
        for lam, x in ((6.0, 0.0), (6.0, 1.0), (5.5, 0.3)):
            f = normalize([[lam, x * (1.0 - lam)], [0.0, 1.0]])
            assert strictly_inside(ArcUnion([arc_image(f, complement(b))]), outer, 0.0)

    def test_transitive_and_antisymmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            mid = rng.uniform(0, 2 * math.pi)
            w1, w2, w3 = sorted(rng.uniform(0.1, 2.5, size=3))
            u1 = ArcUnion([BoundaryArc.from_angles(mid - w1, mid + w1)])
            u2 = ArcUnion([BoundaryArc.from_angles(mid - w2, mid + w2)])
            u3 = ArcUnion([BoundaryArc.from_angles(mid - w3, mid + w3)])
            if w1 < w2 < w3:
                assert strictly_inside(u1, u2) and strictly_inside(u2, u3)
                assert strictly_inside(u1, u3)
                assert not strictly_inside(u3, u1)


class TestVerifySchottky:
    def test_rank_one_example(self):
        f, g = section_one_pair()
        assert verify_schottky([f, g], ArcUnion([arc(1.0, math.inf)]), margin=0.0)

    def test_escaping_image(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert not verify_schottky([f], ArcUnion([arc(0.0, 1.0)]), margin=0.0)

    def test_figure_two_certificate(self):
        from semicert import assemble_global

        F = figure_two(41.0)
        system = assemble_global(F)
        assert verify_schottky(F, system.union, margin=1e-7)
        assert len(system.union) >= 2

    def test_subset_monotone(self):
        f, g = section_one_pair()
        u = ArcUnion([arc(1.0, math.inf)])
        assert verify_schottky([f, g], u, margin=0.0)
        assert verify_schottky([f], u, margin=0.0)
        assert verify_schottky([g], u, margin=0.0)

    def test_margin_is_positive_when_clear(self):
        f = normalize([[4.0, 0.0], [0.0, 1.0]])
        u = ArcUnion([arc(1.0, -1.0)])
        m = schottky_margin([f], u)
        assert m > 0.0
        assert verify_schottky([f], u, margin=m - 1e-12)


class TestPartition:
    def test_separable(self):
        alphas = [BoundaryPoint.from_real(v) for v in (2.0, 3.0)]
        betas = [BoundaryPoint.from_real(v) for v in (-1.0, 0.0)]
        assert can_partition_rank_one(alphas, betas)

    def test_alternating(self):
        alphas = [BoundaryPoint.from_real(0.0), INF]
        betas = [BoundaryPoint.from_real(1.0), BoundaryPoint.from_real(-1.0)]
        assert not can_partition_rank_one(alphas, betas)

    def test_figure_two_interleaves(self):
        F = figure_two(1.0)
        cls = [classify(f) for f in F]
        assert not can_partition_rank_one([k.alpha for k in cls], [k.beta for k in cls])

    def test_shared_point_blocks_separation(self):
        f, g = section_one_pair()
        cf, cg = classify(f), classify(g)
        assert not can_partition_rank_one([cf.alpha, cg.alpha], [cf.beta, cg.beta])

    def test_moebius_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = rng.integers(2, 5)
            pts = [BoundaryPoint.from_angle(a) for a in rng.uniform(0, 2 * math.pi, 2 * n)]
            alphas, betas = pts[:n], pts[n:]
            base = can_partition_rank_one(alphas, betas)
            m = random_moebius(rng)
            from semicert import apply_boundary

            moved = can_partition_rank_one(
                [apply_boundary(m, p) for p in alphas], [apply_boundary(m, p) for p in betas]
            )
            assert moved == base
