import math

import numpy as np
import pytest

from semicert import boundary_arcs
from semicert import (
    ArcUnion,
    BoundaryPoint,
    MoebiusMap,
    apply_boundary,
    assemble_global,
    can_partition_rank_one,
    classify,
    complement,
    contains,
    from_axis_and_length,
    compose,
    normalize,
    verify_schottky,
)
from semicert.boundary_arcs import BoundaryArc, schottky_margin
from semicert.errors import OverlappingArcs, VerificationFailed
from semicert.pair_geometry import Family

from helpers import (
    ADVERSARIAL_UNIONS,
    LIST_N,
    arc_image,
    bench_module,
    figure_two,
    in_both_forms,
    is_infinity,
    random_admissible_family,
    random_moebius,
    reference_clearances,
    reference_image_angles,
    reference_schottky_margin,
    section_one_pair,
    strictly_inside,
)

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
        assert is_infinity(img.end)

    def test_image_of_contraction(self):
        g = normalize([[1.0, 2.0], [0.0, 2.0]])
        img = arc_image(g, arc(1.0, math.inf))
        assert img.start.value == pytest.approx(1.5)
        assert is_infinity(img.end)
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
            once = arc_image(compose(f, g), a)
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


    def test_agrees_with_the_pairwise_loop(self):
        # The bisected window against every attracting-repelling pair, on
        # draws with points within 1e-12 (and tol) of each other and points
        # on both sides of angle 0.
        def pairwise(alphas, betas, tol):
            a_pts = [alphas[c[0]] for c in boundary_arcs.cluster(alphas, tol)]
            b_pts = [betas[c[0]] for c in boundary_arcs.cluster(betas, tol)]
            if any(p.angular_distance(q) <= tol for p in a_pts for q in b_pts):
                return False
            labeled = sorted([(p.angle, 0) for p in a_pts] + [(q.angle, 1) for q in b_pts], key=lambda t: t[0])
            return sum(cur[1] != nxt[1] for cur, nxt in zip(labeled, labeled[1:] + labeled[:1])) == 2

        rng = np.random.default_rng(23)
        outcomes = set()
        for trial in range(600):
            n = int(rng.integers(1, 20))
            tol = (1e-12, 1e-9)[trial % 2]
            angles = rng.uniform(0.0, 2 * math.pi, 2 * n)
            if trial % 3 == 0:  # a cluster straddling angle 0
                angles[: n] = rng.uniform(-3 * tol, 3 * tol, n) % (2 * math.pi)
            if trial % 4 == 0:  # an attracting point echoed by a repelling one, 0 to 2 tol away
                k = int(rng.integers(n, 2 * n))
                angles[k] = (angles[int(rng.integers(0, n))] + rng.choice([-1.0, 1.0]) * rng.uniform(0.0, 2.0) * tol) % (2 * math.pi)
            if trial % 5 == 0:  # attractors on one arc, repellers on the other
                angles = np.sort(angles)
            pts = [BoundaryPoint.from_angle(float(a)) for a in angles]
            alphas, betas = pts[:n], pts[n:]
            expected = pairwise(alphas, betas, tol)
            assert can_partition_rank_one(alphas, betas, tol) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


def screened_and_scalar(F, union):
    """float.hex of schottky_margin on the union's array form (screened), then on its arc form (every pair in scalar)."""
    scalar, arrays = in_both_forms(union)
    return [schottky_margin(F, arrays).hex(), schottky_margin(F, scalar).hex()]


def screened_pairs(monkeypatch, F, union):
    """The (generator, arc) pairs that the screen leaves to the exact check, and the screened margin."""
    found = []
    screen = boundary_arcs._screen

    def recording(*args):
        rows, cols = screen(*args)
        found.extend(zip(rows.tolist(), cols.tolist()))
        return rows, cols

    with monkeypatch.context() as patch:
        patch.setattr(boundary_arcs, "_screen", recording)
        return found, schottky_margin(F, in_both_forms(union)[1])


def contracting_maps(rng, union, count, taus):
    """Maps attracting to a point inside a random component and repelling from a random gap."""
    arcs = union.arcs
    maps = []
    for _ in range(count):
        inside, k = arcs[rng.integers(len(arcs))], rng.integers(len(arcs))
        gap = BoundaryArc(arcs[k].end, arcs[(k + 1) % len(arcs)].start)
        alpha = inside.start.angle + rng.uniform(0.05, 0.95) * inside.span
        beta = gap.start.angle + rng.uniform(0.05, 0.95) * gap.span
        tau = rng.uniform(*taus)
        maps.append(from_axis_and_length(BoundaryPoint.from_angle(beta), BoundaryPoint.from_angle(alpha), tau))
    return maps


class TestScreenedVerifier:
    """The numpy screen of schottky_margin returns the all-scalar margin bit for bit."""

    def test_assembled_unions_on_both_sides_of_the_crossover(self):
        rng = np.random.default_rng(140)
        sides = set()
        for n in (2, 3, 4, 5, 6, 8, 10, 12, 16):
            F = random_admissible_family(rng, n, min_gap=0.01)
            union = assemble_global(F).union
            screened, scalar = screened_and_scalar(F, union)
            assert screened == scalar, n
            assert float.fromhex(scalar) >= 1e-7
            sides.add(union.arrays() is not None)  # the union of an array family
        assert sides == {True, False}

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_UNIONS))
    def test_adversarial_unions(self, name):
        union = ADVERSARIAL_UNIONS[name]
        rng = np.random.default_rng(141)
        finite = set()
        for count in (1, 3, 8, 20, 48):
            for taus in ((1.0, 8.0), (8.0, 40.0), (40.0, 60.0)):
                maps = contracting_maps(rng, union, count, taus)
                for F in (maps, maps + [random_moebius(rng)]):
                    screened, scalar = screened_and_scalar(F, union)
                    assert screened == scalar, (count, taus)
                    finite.add(math.isfinite(float.fromhex(scalar)))
        assert finite == {True, False}

    def test_images_on_a_component_start(self):
        # z -> lam z - mu fixes infinity, the start (angle 0) of the component
        # (-inf, -1), and maps (1/2, 2) inside it: the image of (-inf, -1)
        # starts exactly on that start, where the bisection wraps.
        union = ArcUnion([BoundaryArc(INF, BoundaryPoint.from_real(-1.0)), arc(0.5, 2.0)])
        assert union.starts[0] == 0.0
        rng = np.random.default_rng(142)
        F = [
            normalize([[lam, -(2.0 * lam + 1.0 + mu)], [0.0, 1.0]])
            for lam, mu in zip(rng.uniform(1.5, 20.0, size=30), rng.uniform(0.1, 5.0, size=30))
        ]
        assert screened_and_scalar(F, union) == [(0.0).hex()] * 2
        # The identity maps each component onto itself: not properly inside.
        identity = normalize([[1.0, 0.0], [0.0, 1.0]])
        assert screened_and_scalar(F + [identity], union) == [(-math.inf).hex()] * 2

    def test_images_below_float_resolution(self):
        rng = np.random.default_rng(143)
        families = [figure_two(41.0), figure_two(45.0)]
        families += [random_admissible_family(rng, n, tau_slack=(17.0, 25.0), min_gap=0.01) for n in (4, 8, 12)]
        collapsed = 0
        for F in families:
            union = assemble_global(F).union
            for f in F:
                for a in union:
                    p, q, _ = reference_image_angles(f, (a.start, a.end, a.midpoint))
                    collapsed += p == q
            screened, scalar = screened_and_scalar(F, union)
            assert screened == scalar
        assert collapsed > 0

    def test_unplaceable_image(self):
        # f1 (entries about 7e8) sends its repelling point to a pair whose
        # coordinates both round to 0.0 (see test_criteria_engine).
        pt = BoundaryPoint.from_angle
        f0 = from_axis_and_length(pt(0.10047899997889743), pt(4.518991109258015), 2.0)
        f1 = from_axis_and_length(pt(4.518991109258015), pt(4.762346601567949), 37.691380848931175)
        a = BoundaryArc(classify(f1).beta, pt(1.0))
        assert reference_image_angles(f1, (a.start, a.end, a.midpoint)) is None
        union = ArcUnion([a, BoundaryArc(pt(2.0), pt(3.0))])
        F = [f0, f1] * 12
        assert screened_and_scalar(F, union) == [(-math.inf).hex()] * 2

    def test_screen_leaves_few_pairs_to_the_scalar_check(self, monkeypatch):
        # The pairs that `_screen` returns are decided exactly, on the kernel's arrays.
        F = random_admissible_family(np.random.default_rng(32), 32, min_gap=0.01)
        union = assemble_global(F).union
        pairs, margin = screened_pairs(monkeypatch, F, union)
        assert margin >= 1e-7
        assert 0 < len(pairs) <= 0.1 * len(F) * len(union)
        assert margin.hex() == schottky_margin(F, in_both_forms(union)[0]).hex()


# --- inputs within SCREEN_TOL of each threshold the screen flags ----------------------

COLLAPSE = boundary_arcs.TWO_PI - 1e-9  # the collapse guards of _clearances


def tuned(measure, lo, hi, target):
    """The tau in [lo, hi] at which `measure`, monotone there, meets `target` (bisection)."""
    rising = measure(hi) > measure(lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (measure(mid) < target) == rising:
            lo = mid
        else:
            hi = mid
    assert abs(measure(hi) - target) <= 1e-14
    return hi


def image_gaps(f, arc):
    """ccw_gap from the image start to the image midpoint and to the image end."""
    p, q, mid = reference_image_angles(f, (arc.start, arc.end, arc.midpoint))
    return boundary_arcs.ccw_gap(p, mid), boundary_arcs.ccw_gap(p, q)


def near_full_image(beta, tau):
    """f attracting to angle 4 and repelling from `beta` inside U = (0.9, 1.5), with U.

    f maps U onto all but a sliver of the circle around its attracting
    point; the three image points of U lie within that sliver, and the float
    verifier reads such an image as a collapsed one.
    """
    pt = BoundaryPoint.from_angle
    return from_axis_and_length(pt(beta), pt(4.0), tau), BoundaryArc(pt(0.9), pt(1.5))


def contracting_to(alpha):
    pt = BoundaryPoint.from_angle
    return from_axis_and_length(pt(2.5), pt(alpha), 20.0)


class TestScreenFlags:
    """Each input puts one pair within SCREEN_TOL of one threshold, where the
    screen's angles still find it contained with a clearance above the least;
    only that threshold's flag sends the pair to the scalar check."""

    def check(self, F, union, pair):
        rows, cols = boundary_arcs._screen(*boundary_arcs._screen_inputs(F, *in_both_forms(union)[1].arrays()))
        assert pair in zip(rows.tolist(), cols.tolist())
        screened, scalar = screened_and_scalar(F, union)
        assert screened == scalar

    def test_unplaceable_point(self):
        # f (entries near 9e8) sends its own repelling point to (0.0, 0.0),
        # which the arrays place at angle 0, inside K = (5.5, 0.9).
        pt = BoundaryPoint.from_angle
        for tau in np.linspace(40.0, 41.5, 300):
            f = from_axis_and_length(pt(1.0), pt(0.5), float(tau))
            beta = classify(f).beta
            try:
                apply_boundary(f, beta)
            except ValueError:
                break
        else:
            pytest.fail("no unplaceable repelling point")
        union = ArcUnion([BoundaryArc(beta, pt(2.0)), BoundaryArc(pt(5.5), pt(0.9))])
        F = [f, contracting_to(0.8)]
        self.check(F, union, (0, 0))
        assert schottky_margin(F, union) == -math.inf

    def test_image_at_the_collapse_guard(self):
        # U misses 5e-10 rad around angle 0; f repels from the middle of that
        # gap and widens it to 1e-9 - 5e-13 rad, so ccw_gap(p, q) sits just
        # below the guard.  g widens it on one side only (clearance 2e-11).
        pt = BoundaryPoint.from_angle
        U = BoundaryArc(pt(0.0), pt(boundary_arcs.TWO_PI - 5e-10))
        widen = lambda tau: from_axis_and_length(pt(boundary_arcs.TWO_PI - 2.5e-10), pt(math.pi), tau)
        tau = tuned(lambda t: image_gaps(widen(t), U)[1], 0.5, 1.0, COLLAPSE - 5e-13)
        g = from_axis_and_length(pt(boundary_arcs.TWO_PI - 4.9e-10), pt(math.pi), math.log(3.0))
        self.check([widen(tau), g], ArcUnion([U]), (0, 0))

    def test_midpoint_at_the_collapse_guard(self):
        # The repelling point lies in U's first half: the midpoint's image
        # falls behind the start's image, 1e-9 - 5e-13 rad before it.
        U = near_full_image(1.0, 20.0)[1]
        tau = tuned(lambda t: image_gaps(near_full_image(1.0, t)[0], U)[0], 15.0, 30.0, COLLAPSE + 5e-13)
        union = ArcUnion([U, BoundaryArc.from_angles(3.5, 4.5)])
        self.check([near_full_image(1.0, tau)[0], contracting_to(4.4)], union, (0, 0))

    def test_midpoint_at_the_containment_slack(self):
        # The repelling point lies in U's second half: the image end falls
        # just behind the start (a collapsed image) and the midpoint's image
        # 1e-9 - 5e-13 rad after the start, at the `off > img + 1e-9` slack.
        U = near_full_image(1.25, 20.0)[1]
        tau = tuned(lambda t: image_gaps(near_full_image(1.25, t)[0], U)[0], 15.0, 30.0, 1e-9 - 5e-13)
        f = near_full_image(1.25, tau)[0]
        assert image_gaps(f, U)[1] >= COLLAPSE + 1e-10
        union = ArcUnion([U, BoundaryArc.from_angles(3.5, 4.5)])
        self.check([f, contracting_to(4.4)], union, (0, 0))

    @pytest.mark.parametrize("end", ["start", "end"])
    def test_collapsed_image_at_a_component_end(self, end):
        # A collapsed image, 5e-10 rad wide, whose start lies 5e-13 rad before
        # the end of its component (lead at the span) or whose end lies
        # 5e-13 rad after the start (tail at the span).
        U = near_full_image(1.35, 20.0)[1]
        tau = tuned(lambda t: boundary_arcs.TWO_PI - image_gaps(near_full_image(1.35, t)[0], U)[1], 20.0, 30.0, 5e-10)
        f = near_full_image(1.35, tau)[0]
        p, q, _ = reference_image_angles(f, (U.start, U.end, U.midpoint))
        assert image_gaps(f, U)[0] < 1e-9 - 1e-10
        pt = BoundaryPoint.from_angle
        K = BoundaryArc(pt(3.5), pt(p + 5e-13)) if end == "end" else BoundaryArc(pt(q - 5e-13), pt(4.5))
        union = ArcUnion([U, K])
        span = K.span
        lead = boundary_arcs.ccw_gap(K.start.angle, p)
        tail = boundary_arcs.ccw_gap(q, K.end.angle)
        assert abs((lead if end == "end" else tail) - span) <= 1e-12
        self.check([f], union, (0, 0))


    def test_image_at_the_closure_slack(self):
        # f repels from inside U and maps it onto all of the circle but a
        # sliver around its attracting point 0.75, inside K = (0.5, 1): the
        # image reads as collapsed, so lead + tail exceeds K's span by the
        # sliver's width, which sits within SCREEN_TOL of the 1e-9 slack of
        # `|lead + img + tail - span|`.  The collapse guard reads that width
        # rounded to the ulp of 2*pi (8.9e-16, against 1.1e-16 at 0.75), and
        # among the taus near 1e-9 - 1e-12 of width some leave it more than
        # SCREEN_TOL from the guard: only the slack's flag sends the pair to
        # the scalar check.
        pt = BoundaryPoint.from_angle
        union = ArcUnion([BoundaryArc(pt(2.9), pt(3.5)), BoundaryArc(pt(0.5), pt(1.0))])
        K = union.arcs[0]
        widen = lambda tau: from_axis_and_length(pt(3.4), pt(0.75), tau)

        def screen_angles(f):
            """The screen's image angles of U's start, end and midpoint under f."""
            maps, pts, *_ = boundary_arcs._screen_inputs([f], *in_both_forms(union)[1].arrays())
            return boundary_arcs._array_images(maps[:, :, None, None], pts[:, None])[0][0, 1].tolist()

        def at_the_slack_alone(f):
            p, q, mid = screen_angles(f)
            rest = boundary_arcs.ccw_gap(K.start.angle, p) + boundary_arcs.ccw_gap(q, K.end.angle) - K.span
            collapsed = boundary_arcs.ccw_gap(p, q) >= COLLAPSE + boundary_arcs.SCREEN_TOL
            return collapsed and abs(rest - 1e-9) <= boundary_arcs.SCREEN_TOL and boundary_arcs.ccw_gap(p, mid) < 5e-10

        tau = tuned(lambda t: boundary_arcs.ccw_gap(*screen_angles(widen(t))[1::-1]), 20.0, 30.0, 1e-9 - 1e-12)
        f = next(filter(at_the_slack_alone, (widen(tau + 2e-8 * k) for k in range(-40, 41))))
        self.check([f, contracting_to(0.95)], union, (0, 1))


class TestWrapTurn:
    """`_wrap_turn`, the screen's remainder, is `x % TWO_PI` bit for bit on [-2*pi, 2*pi) and NaN."""

    def test_equals_the_remainder_across_its_range(self):
        two_pi = boundary_arcs.TWO_PI
        edges = [0.0, -0.0, -two_pi, -math.ulp(0.0), -math.ulp(1.0), -1e-300, math.nextafter(-two_pi, 0.0)]
        edges += [math.nextafter(two_pi, 0.0), math.pi, -math.pi, math.nan]
        rng = np.random.default_rng(150)
        angles = rng.uniform(0.0, two_pi, (2, 5000))
        values = np.concatenate([edges, rng.uniform(-two_pi, two_pi, 5000), angles[0] - angles[1]])
        wrapped = [v.hex() for v in boundary_arcs._wrap_turn(values.copy()).tolist()]
        assert wrapped == [(v % two_pi).hex() for v in values.tolist()]
        assert wrapped == [v.hex() for v in (values % two_pi).tolist()]

    def test_two_pi_lies_outside_its_range(self):
        two_pi = boundary_arcs.TWO_PI
        assert boundary_arcs._wrap_turn(np.array([two_pi])).tolist() == [two_pi]
        assert two_pi % two_pi == 0.0


def negated_affine_maps(rng, count):
    """The matrices -[[a, b], [0, d]] (c = -0.0) of the maps z -> lam z - (2 lam + 1 + mu).

    They fix infinity, the start of (inf, -1), and map (1/2, 2) and (inf, -1)
    into (inf, -1).  Each sends infinity, (1 : 0), to (-a : -0.0): y is -0.0
    and x < 0, where -2*atan2 is 2*pi, not 0, without the canonical sign flip.
    """
    maps = []
    for lam, mu in zip(rng.uniform(1.5, 20.0, size=count), rng.uniform(0.1, 5.0, size=count)):
        f = normalize([[lam, -(2.0 * lam + 1.0 + mu)], [0.0, 1.0]])
        maps.append(MoebiusMap(-f.a, -f.b, -0.0, -f.d))
    return maps


def scaled(maps, factor):
    """The same transformations, every entry multiplied by `factor`."""
    return [MoebiusMap(factor * f.a, factor * f.b, factor * f.c, factor * f.d) for f in maps]


class TestScreenAtItsBounds:
    """The screen reads angles without the canonical flip and places images by
    max(|x|, |y|); on unions at those edges the margin is still the scalar one."""

    def test_screen_angles_stay_below_two_pi(self):
        # Infinity under -[[a, b], [0, d]], and tiny negative y with x < 0:
        # each image is the point at infinity, angle 0 in scalar.
        f = negated_affine_maps(np.random.default_rng(151), 1)[0]
        maps = np.array([[f.a, 1.0], [f.b, 0.0], [f.c, 0.0], [f.d, 1.0]])[:, :, None, None]
        pts = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])[:, None, None, :]
        pts = np.concatenate([pts, np.array([[-1.0, -1.0, -1.0], [-1e-300, -1e-20, -0.0]])[:, None, None, :]], axis=2)
        angle, placed = boundary_arcs._array_images(maps, pts)
        assert placed.all()
        assert angle[0, 0].tolist() == [0.0] * 3  # from (-a : -0.0)
        assert angle[1, 1].tolist() == [0.0] * 3  # from (-1 : -1e-300), (-1 : -1e-20), (-1 : -0.0)
        assert (angle < boundary_arcs.TWO_PI).all()

    def test_images_at_minus_zero_on_a_component_start(self):
        union = ArcUnion([BoundaryArc(INF, BoundaryPoint.from_real(-1.0)), arc(0.5, 2.0)])
        F = negated_affine_maps(np.random.default_rng(152), 20)
        for f in F:
            image = (f.a * INF.x + f.b * INF.y, f.c * INF.x + f.d * INF.y)
            assert image[0] < 0.0 and image[1] == 0.0 and math.copysign(1.0, image[1]) < 0.0
        assert screened_and_scalar(F, union) == [(0.0).hex()] * 2

    @pytest.mark.parametrize("bound", [1e-290, 1e289])
    def test_entries_near_the_placement_bounds(self, bound):
        # Contracting maps scaled so that the larger coordinates of their
        # images fall on both sides of the screen's bound, half on each.
        union = ADVERSARIAL_UNIONS["wraps-past-zero"]
        rng = np.random.default_rng(153)
        maps = contracting_maps(rng, union, 12, (8.0, 20.0))
        points = [p for a in union for p in (a.start, a.end, a.midpoint)]

        def larger_coordinates(F):
            return np.array([max(abs(f.a * p.x + f.b * p.y), abs(f.c * p.x + f.d * p.y)) for f in F for p in points])

        F = scaled(maps, bound / float(np.median(larger_coordinates(maps))))
        above = larger_coordinates(F) > bound
        assert above.any() and not above.all()
        screened, scalar = screened_and_scalar(F, union)
        assert screened == scalar
        assert float.fromhex(scalar) > 0.0

    def test_images_collapsed_below_1e_9(self):
        union = ADVERSARIAL_UNIONS["wraps-past-zero"]
        rng = np.random.default_rng(154)
        F = contracting_maps(rng, union, 12, (45.0, 60.0))
        widths = [image_gaps(f, a)[1] for f in F for a in union]
        assert min(widths) < 1e-9
        screened, scalar = screened_and_scalar(F, union)
        assert screened == scalar
        assert float.fromhex(scalar) > 0.0


class TestRepellingPointInside:
    """A generator that repels from inside a union arc cannot map that arc into the union."""

    def test_image_around_the_repelling_point_is_refused(self):
        # f repels from angle 1 inside (0.9, 1.5): its image of that arc is all
        # of the circle but a sliver around angle 4, where the three sample
        # points of the image land.  The endpoint check alone accepted it.
        pt = BoundaryPoint.from_angle
        g = from_axis_and_length(pt(2.5), pt(4.4), 20.0)
        union = ArcUnion([BoundaryArc.from_angles(0.9, 1.5), BoundaryArc.from_angles(3.5, 4.5)])
        for tau in (30.0, 40.0):
            f = from_axis_and_length(pt(1.0), pt(4.0), tau)
            assert not verify_schottky([f, g], union)
            assert schottky_margin([f, g], union) == -math.inf
            assert schottky_margin([f, g], union, [classify(f), classify(g)]) == -math.inf

    def test_repelling_point_on_an_arc_end_is_allowed(self):
        # Section 1: g repels from infinity, the end of the invariant arc [1, inf].
        f, g = section_one_pair()
        union = ArcUnion([BoundaryArc.from_reals(1.0, math.inf)])
        assert schottky_margin([f, g], union) == 0.0

    def test_assembled_unions_hold_no_repelling_point(self):
        rng = np.random.default_rng(24)
        for F in [figure_two(41.0)] + [random_admissible_family(rng, n) for n in (3, 6, 12)]:
            union = assemble_global(F).union
            assert schottky_margin(F, union) > 0.0


def margins_agree(F, union):
    """float.hex of `schottky_margin` on a union of arc objects, asserted equal to the reference's, with and without `classes`."""
    assert union.arrays() is None
    found = schottky_margin(F, union).hex()
    assert found == reference_schottky_margin(F, union).hex()
    classes = [classify(f) for f in F]
    assert schottky_margin(F, union, classes).hex() == found
    for f in F:
        for a in union:
            for outer in union:
                angles = reference_image_angles(f, (a.start, a.end, a.midpoint))
                expected = None if angles is None else reference_clearances(*angles, outer)
                assert boundary_arcs.image_clearances(f, a, outer) == expected
    return found


class TestFloatPairLoop:
    """The verifier's loop over a union of arc objects, on floats, equals the
    loop that built every image point (`helpers.reference_schottky_margin`) bit for bit."""

    def test_assembled_scalar_unions(self):
        rng = np.random.default_rng(160)
        finite = set()
        for n in range(2, LIST_N + 1):
            for _ in range(3):
                F = random_admissible_family(rng, n, min_gap=0.01)
                union = assemble_global(F).union
                assert float.fromhex(margins_agree(F, union)) >= 1e-7
                if len(union) > 1:  # a broken union: some image leaves it
                    finite.add(math.isfinite(float.fromhex(margins_agree(F, ArcUnion(union.arcs[1:])))))
        assert False in finite

    def test_rank_one_candidates_of_verdict_mix(self):
        families = bench_module("families").verdict_mix(1, 20)
        sizes, candidates = set(), 0
        for fam in families:
            if fam.cls != "rank_one":
                continue
            family = Family.of(fam.maps)
            sizes.add(len(family.maps))
            for arc in family.rank_one_arcs:
                assert float.fromhex(margins_agree(family.maps, ArcUnion([arc]))) >= 0.0
                candidates += 1
        assert min(sizes) == 4 and max(sizes) == 16
        assert candidates == 80

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_UNIONS))
    def test_adversarial_unions(self, name):
        union = ADVERSARIAL_UNIONS[name]
        rng = np.random.default_rng(141)  # the draws of `TestScreenedVerifier.test_adversarial_unions`
        finite = set()
        for count in (1, 3, 8, 20, 48):
            for taus in ((1.0, 8.0), (8.0, 40.0), (40.0, 60.0)):
                maps = contracting_maps(rng, union, count, taus)
                for F in (maps, maps + [random_moebius(rng)]):
                    finite.add(math.isfinite(float.fromhex(margins_agree(F, union))))
        assert finite == {True, False}

    def test_unplaceable_image(self):
        # f1 of `TestScreenedVerifier.test_unplaceable_image`: an image point of `a` rounds to (0.0 : 0.0).
        pt = BoundaryPoint.from_angle
        f0 = from_axis_and_length(pt(0.10047899997889743), pt(4.518991109258015), 2.0)
        f1 = from_axis_and_length(pt(4.518991109258015), pt(4.762346601567949), 37.691380848931175)
        a = BoundaryArc(classify(f1).beta, pt(1.0))
        assert boundary_arcs._image_turns(f1.a, f1.b, f1.c, f1.d, [(p.x, p.y) for p in (a.start, a.end, a.midpoint)]) is None
        union = ArcUnion([a, BoundaryArc(pt(2.0), pt(3.0))])
        assert margins_agree([f0, f1], union) == (-math.inf).hex()
        assert margins_agree([f1], ArcUnion([BoundaryArc(pt(2.0), pt(3.0)), BoundaryArc(pt(5.0), pt(6.0))])) is not None

    @pytest.mark.parametrize("tau", [41.0, 45.0])
    def test_collapsed_images_of_figure_two(self, tau):
        F = figure_two(tau)
        union = assemble_global(F).union
        collapsed = 0
        for f in F:
            for a in union:
                p, q, _ = reference_image_angles(f, (a.start, a.end, a.midpoint))
                collapsed += p == q
        assert collapsed > 0
        assert float.fromhex(margins_agree(F, union)) > 0.0

    def test_images_on_a_component_start_at_angle_zero(self):
        union = ArcUnion([BoundaryArc(INF, BoundaryPoint.from_real(-1.0)), arc(0.5, 2.0)])
        assert union.starts[0] == 0.0
        rng = np.random.default_rng(162)
        F = [
            normalize([[lam, -(2.0 * lam + 1.0 + mu)], [0.0, 1.0]])
            for lam, mu in zip(rng.uniform(1.5, 20.0, size=10), rng.uniform(0.1, 5.0, size=10))
        ]
        assert margins_agree(F, union) == (0.0).hex()
        assert margins_agree(F + [normalize([[1.0, 0.0], [0.0, 1.0]])], union) == (-math.inf).hex()

    def test_minus_zero_coordinates(self):
        # Each map sends infinity, (1 : 0), to (-a : -0.0), which the sign flip turns into infinity.
        union = ArcUnion([BoundaryArc(INF, BoundaryPoint.from_real(-1.0)), arc(0.5, 2.0)])
        F = negated_affine_maps(np.random.default_rng(163), 10)
        assert margins_agree(F, union) == (0.0).hex()
        # Points with -0.0 coordinates, as given, under maps with -0.0 entries.
        f = F[0]
        for x, y in ((-0.0, 1.0), (1.0, -0.0), (-1.0, -0.0), (-0.0, -1.0)):
            [angle] = boundary_arcs._image_turns(f.a, f.b, f.c, f.d, [(x, y)])
            assert angle.hex() == apply_boundary(f, BoundaryPoint(x, y)).angle.hex()

    def test_image_angles_are_those_of_the_points(self):
        # Entries from 1e-320 (subnormal) to 1e308, so that the images' hypot
        # underflows to 0 or overflows to inf for some, and points anywhere,
        # with zeros of either sign among their coordinates; diagonal maps
        # keep points just off infinity there, where the angle rounds to 2*pi.
        rng = np.random.default_rng(164)
        placed, norms, near_infinity = set(), set(), 0
        coordinates = [0.0, -0.0, 1.0, -1.0, 1e-20, -1e-20, 5e-324]
        for _ in range(4000):
            scale = 10.0 ** float(rng.choice([rng.uniform(-320.0, -300.0), rng.uniform(-5.0, 5.0), rng.uniform(300.0, 308.0)]))
            a, b, c, d = (float(v) * scale for v in rng.normal(size=4))
            if rng.random() < 0.1:
                a, b, c, d = abs(a), 0.0, 0.0, abs(d)
            f = MoebiusMap(a, b, c, d)
            points = [BoundaryPoint.from_angle(float(t)) for t in rng.uniform(0.0, boundary_arcs.TWO_PI, 3)]
            if rng.random() < 0.3:
                points[0] = BoundaryPoint(float(rng.choice(coordinates)), float(rng.choice(coordinates)))
            xy = [(p.x, p.y) for p in points]
            turns = boundary_arcs._image_turns(a, b, c, d, xy)
            try:
                expected = [apply_boundary(f, p).angle for p in points]
            except ValueError:
                expected = None
            if expected is None:
                assert turns is None
            else:
                assert [t.hex() for t in turns] == [t.hex() for t in expected]
                image = apply_boundary(f, points[0])  # an angle that rounds to 2*pi reads as 0
                near_infinity += (-2.0 * math.atan2(image.y, image.x)) % boundary_arcs.TWO_PI == boundary_arcs.TWO_PI
            placed.add(expected is not None)
            for x, y in xy:
                n = math.hypot(a * x + b * y, c * x + d * y)
                norms.add(n if n == 0.0 or not math.isfinite(n) else "finite")
        assert placed == {True, False}
        assert {0.0, math.inf, "finite"} <= norms  # hypot's underflow and overflow both reached
        assert near_infinity > 0
