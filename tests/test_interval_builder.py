import json
import math
import re

import numpy as np
import pytest

from semicert import (
    ArcUnion,
    BoundaryPoint,
    Geodesic,
    MoebiusMap,
    assemble_global,
    axis,
    build_crossing_pair_intervals,
    build_disjoint_pair_intervals,
    build_shared_alpha_intervals,
    classify,
    complement,
    conjugate,
    contains,
    cross_ratio,
    from_axis_and_length,
    inverse,
    normalize,
    verify_schottky,
)
from semicert.boundary_arcs import can_partition_rank_one
from semicert.errors import (
    AxesDoNotCross,
    CertifyError,
    AxesNotDisjoint,
    OverlappingArcs,
    PreconditionViolated,
    ThresholdNotMet,
    VerificationFailed,
)
from semicert import interval_builder
from semicert.interval_builder import _build_pair, mapping_margin
from semicert.pair_geometry import Family

from helpers import (
    LIST_N,
    arc_image,
    arcs_approx,
    bench_module,
    conjugated_figure_two,
    crossing_pair,
    cut_floor,
    disjoint_pair,
    figure_two,
    forced_shared_family,
    geodesic_shape,
    group_arcs,
    in_both_forms,
    intersect_shapes,
    nested,
    one_axis_family,
    random_admissible_family,
    reference_build_pair,
    random_moebius,
    reference_shared_intervals,
    retry_ladder_family,
    shared_attractor_family,
    shared_repeller_family,
    strictly_inside,
    tangent_at,
)

INF = BoundaryPoint.infinity()


def assert_symmetric(pair, owner_map):
    """The line through each arc's endpoints must meet the owner's axis at pi/2."""
    ax = axis(owner_map)
    for arc in (pair.a, pair.b):
        line = Geodesic(arc.start, arc.end)
        z = intersect_shapes(geodesic_shape(line), geodesic_shape(ax))
        t1, t2 = tangent_at(line, z), tangent_at(ax, z)
        assert abs(t1.real * t2.real + t1.imag * t2.imag) < 1e-7


class TestDisjointBuilder:
    def test_c_four_configuration(self):
        rng = np.random.default_rng(50)
        d = math.log(3.0)  # concentric radii 1 and 3 give C = 4
        tau = math.log(4.0) + 1.6
        f, g = disjoint_pair(rng, d, tau, tau)
        assert cross_ratio(f, g) == pytest.approx(4.0, rel=1e-9)
        pf, pg = build_disjoint_pair_intervals([f, g])
        ArcUnion([pf.a, pf.b, pg.a, pg.b])  # pairwise disjoint closures
        for pair, owner in ((pf, f), (pg, g)):
            assert mapping_margin(owner, pair) >= 1e-7
            assert_symmetric(pair, owner)
            assert contains(pair.a, classify(owner).alpha)
            assert contains(pair.b, classify(owner).beta)

    def test_c_nine_configuration(self):
        rng = np.random.default_rng(51)
        tau = math.log(9.0) + 1.6
        f, g = disjoint_pair(rng, math.log(2.0), tau, tau)
        pf, pg = build_disjoint_pair_intervals([f, g])
        ArcUnion([pf.a, pf.b, pg.a, pg.b])
        assert strictly_inside(
            ArcUnion([arc_image(f, complement(pf.b))]), ArcUnion([pf.a]), 1e-7
        )
        assert strictly_inside(
            ArcUnion([arc_image(g, complement(pg.b))]), ArcUnion([pg.a]), 1e-7
        )

    def test_threshold_gate(self):
        rng = np.random.default_rng(52)
        tau = math.log(9.0) + 1.4
        f, g = disjoint_pair(rng, math.log(2.0), tau, tau)
        with pytest.raises(ThresholdNotMet):
            build_disjoint_pair_intervals([f, g])

    def test_rejects_other_configurations(self):
        rng = np.random.default_rng(53)
        f, g = crossing_pair(rng, 1.0, 5.0, 5.0)
        with pytest.raises(AxesNotDisjoint):
            build_disjoint_pair_intervals([f, g])
        from semicert import inverse

        f2, g2 = disjoint_pair(rng, 1.0, 9.0, 9.0)
        with pytest.raises(AxesNotDisjoint):
            build_disjoint_pair_intervals([inverse(f2), g2])  # C below 1

    def test_margins_stay_large_at_huge_tau(self):
        rng = np.random.default_rng(54)
        f, g = disjoint_pair(rng, math.log(2.0), 41.0, 41.0)
        pf, pg = build_disjoint_pair_intervals([f, g])
        assert mapping_margin(f, pf) > 1e-3
        assert mapping_margin(g, pg) > 1e-3

    def test_near_vertical_common_perpendicular(self):
        # Generators 10 and 29 of assembly-large seed 45, family admissible32/3.
        # Their common perpendicular is a half-circle of huge radius, and feet
        # computed from it miss the cross-ratio distance by about 2e-5.
        f = MoebiusMap(
            -7723159180656495.0, 3341268183132059.5, -2.9487306711274076e16, 1.2757085205158436e16
        )
        g = MoebiusMap(
            4795559954432299.0, 5050549539804464.0, 2743990322201417.5, 2889893816511124.5
        )
        pf, pg = build_disjoint_pair_intervals([f, g])
        assert mapping_margin(f, pf) >= 1e-7
        assert mapping_margin(g, pg) >= 1e-7


class TestCrossingBuilder:
    def test_right_angle_above_separation(self):
        rng = np.random.default_rng(55)
        f, g = crossing_pair(rng, math.pi / 2.0, 2.0, 2.0)
        pf, pg = build_crossing_pair_intervals([f, g])
        ArcUnion([pf.a, pf.b, pg.a, pg.b])  # tau = 2 clears 2*artanh(cos(pi/4))
        for pair, owner in ((pf, f), (pg, g)):
            assert mapping_margin(owner, pair) >= 1e-7
            assert_symmetric(pair, owner)

    def test_right_angle_near_gate(self):
        # tau = 1.6 passes the stated gate; the owners' own pairs verify even
        # though the four arcs cannot all be separated at this length.
        rng = np.random.default_rng(56)
        f, g = crossing_pair(rng, math.pi / 2.0, 1.6, 1.6)
        pf, pg = build_crossing_pair_intervals([f, g])
        for pair, owner in ((pf, f), (pg, g)):
            assert mapping_margin(owner, pair) >= 1e-7
            assert_symmetric(pair, owner)
            assert contains(pair.a, classify(owner).alpha)
            assert contains(pair.b, classify(owner).beta)
        with pytest.raises(OverlappingArcs):
            ArcUnion([pf.a, pf.b, pg.a, pg.b])

    def test_gate(self):
        rng = np.random.default_rng(57)
        f, g = crossing_pair(rng, math.pi / 2.0, 1.4, 1.4)
        with pytest.raises(ThresholdNotMet):
            build_crossing_pair_intervals([f, g])

    def test_pi_third_with_quarter_condition(self):
        rng = np.random.default_rng(58)
        theta = math.pi / 3.0
        tau = math.log(3.0) + 1.6
        f, g = crossing_pair(rng, theta, tau, tau)
        assert cross_ratio(f, g) == pytest.approx(-1.0 / 3.0, abs=1e-9)
        # sinh(tau) clears the normalized-arc bound (sin+cos)/(sin cos) at theta/2.
        half = 0.5 * theta
        m_bound = (math.sin(half) + math.cos(half)) / (math.sin(half) * math.cos(half))
        assert math.sinh(tau) > m_bound
        pf, pg = build_crossing_pair_intervals([f, g])
        ArcUnion([pf.a, pf.b, pg.a, pg.b])
        for pair, owner in ((pf, f), (pg, g)):
            assert mapping_margin(owner, pair) >= 1e-7

    def test_argument_order_is_respected(self):
        rng = np.random.default_rng(59)
        f, g = crossing_pair(rng, 1.2, 2.5, 2.5)
        pf, pg = build_crossing_pair_intervals([f, g])
        qg, qf = build_crossing_pair_intervals([f, g], 1, 0)
        assert pf.a.start.angular_distance(qf.a.start) < 1e-9
        assert pg.b.end.angular_distance(qg.b.end) < 1e-9

    def test_rejects_disjoint(self):
        rng = np.random.default_rng(60)
        f, g = disjoint_pair(rng, 1.0, 9.0, 9.0)
        with pytest.raises(AxesDoNotCross):
            build_crossing_pair_intervals([f, g])


class TestCutPlacement:
    def test_cuts_sit_at_cut_depth_from_reference_point(self):
        """Each arc's line meets the owner's axis at distance s from the
        common perpendicular's foot (disjoint) or the crossing point."""
        from semicert import hyperbolic_distance
        from semicert.interval_builder import _cut_position, pair_gate
        from semicert.pair_geometry import Family, common_perpendicular

        rng = np.random.default_rng(122)
        for k in range(40):
            crossing = k % 2 == 1
            if crossing:
                make, build = crossing_pair, build_crossing_pair_intervals
                shape = rng.uniform(0.3, math.pi - 0.3)
            else:
                make, build = disjoint_pair, build_disjoint_pair_intervals
                shape = rng.uniform(0.2, 3.0)
            m = random_moebius(rng)
            gate = pair_gate(cross_ratio(*make(rng, shape, 1.0, 1.0, conjugate_by=m)))
            taus = gate + rng.uniform(0.5, 12.0, size=2)
            family = Family.of(make(rng, shape, *taus, conjugate_by=m))
            axes = [axis(h) for h in family.maps]
            if crossing:
                z = intersect_shapes(geodesic_shape(axes[0]), geodesic_shape(axes[1]))
                refs = (z, z)
            else:
                refs = common_perpendicular(axes[0], axes[1])[1:3]
            floor = cut_floor(family, 0, 1)
            for cls, pair, ax, ref in zip(family.cls, build(family), axes, refs):
                s = _cut_position(cls.tau, floor, 0.0)
                for arc in (pair.a, pair.b):
                    line = geodesic_shape(Geodesic(arc.start, arc.end))
                    w = intersect_shapes(line, geodesic_shape(ax))
                    assert hyperbolic_distance(ref, w) == pytest.approx(s, abs=1e-9 * (1.0 + s))


class TestSharedAlpha:
    def test_normalized_family(self):
        f1 = normalize([[6.0, 0.0], [0.0, 1.0]])
        f2 = normalize([[6.0, -5.0], [0.0, 1.0]])
        (group,) = build_shared_alpha_intervals([f1, f2])
        a_arc, b_arc = group_arcs(group)
        assert (group.kind, group.members) == ("alpha", (0, 1))
        assert a_arc.start.value == pytest.approx(2.5)
        assert a_arc.end.value == pytest.approx(-1.5)
        assert b_arc.start.value == pytest.approx(-0.5)
        assert b_arc.end.value == pytest.approx(1.5)
        # The endpoint images land beyond 5/2 + x and -3/2 respectively.
        for f, x in ((f1, 0.0), (f2, 1.0)):
            lam = 6.0
            assert lam * (1.5 - x) + x >= 2.5 + x
            img = arc_image(f, complement(b_arc))
            assert strictly_inside(ArcUnion([img]), ArcUnion([a_arc]), 0.0)

    def test_strict_gate(self):
        f1 = normalize([[5.0, 0.0], [0.0, 1.0]])
        f2 = normalize([[5.0, -4.0], [0.0, 1.0]])
        with pytest.raises(ThresholdNotMet):
            build_shared_alpha_intervals([f1, f2])

    def test_conjugated_family(self):
        rng = np.random.default_rng(61)
        m = random_moebius(rng)
        fs = [
            conjugate(normalize([[6.0, 0.0], [0.0, 1.0]]), m),
            conjugate(normalize([[6.0, -5.0], [0.0, 1.0]]), m),
            conjugate(normalize([[7.5, -3.0], [0.0, 1.0]]), m),
        ]
        (group,) = build_shared_alpha_intervals(fs)
        near, far = group_arcs(group)
        for f in fs:
            img = arc_image(f, complement(far))
            assert strictly_inside(ArcUnion([img]), ArcUnion([near]), 0.0)
            assert contains(near, classify(f).alpha)

    def test_groups_follow_the_shared_point(self):
        # z -> 6z and the map along 0 -> 1 share the repelling point 0.
        f1 = normalize([[6.0, 0.0], [0.0, 1.0]])
        f2 = from_axis_and_length(BoundaryPoint.from_real(0.0), BoundaryPoint.from_real(1.0), 2.0)
        groups = build_shared_alpha_intervals([f1, f2])
        assert [(g.kind, g.members) for g in groups] == [("beta", (0, 1))]
        (group,) = groups
        near, far = group_arcs(group)
        for f in (f1, f2):
            img = arc_image(f, complement(near))
            assert strictly_inside(ArcUnion([img]), ArcUnion([far]), 0.0)
            assert contains(far, classify(f).alpha)
        rng = np.random.default_rng(62)
        assert build_shared_alpha_intervals(disjoint_pair(rng, math.log(2.0), 5.0, 5.0)) == ()

    def test_assembly_names_the_members_below_the_gate(self):
        # Every generator has a partner crossing at a right angle or nearly
        # (pair gate about 3/2), so the pair selection passes at tau = 1.6,
        # and the shared point then fails the log 5 gate.
        a, pi = BoundaryPoint.from_angle, math.pi
        axes = [(pi, 0.0), (pi + 0.05, 0.0), (1.5 * pi, 0.5 * pi), (0.25 * pi, 1.25 * pi), (1.75 * pi, 0.75 * pi)]
        F = [from_axis_and_length(a(u), a(v), 1.6) for u, v in axes]
        gate = r"translation length 1.600000 not above log 5 = 1.609438"
        with pytest.raises(PreconditionViolated, match=r"^shared attracting point at \[0, 1\]: " + gate):
            assemble_global(F)
        with pytest.raises(PreconditionViolated, match=r"^shared repelling point at \[0, 1\]: " + gate):
            assemble_global([inverse(f) for f in F])


@pytest.mark.parametrize(
    "build, expected",
    [
        (shared_attractor_family, [("alpha", (0, 1))]),
        (shared_repeller_family, [("beta", (0, 1))]),
        (one_axis_family, [("alpha", (0, 1)), ("beta", (0, 1))]),
        (conjugated_figure_two, [("alpha", (0, 1)), ("alpha", (2, 3)), ("beta", (0, 3)), ("beta", (1, 2))]),
    ],
    ids=["shared-attractor", "shared-repeller", "one-axis", "conjugated-figure-two"],
)
def test_shared_groups_match_the_inverse_construction(build, expected):
    # The reference classifies the members itself and runs a shared repeller
    # through the inverses; the groups read the Family's classifications.
    # Arcs agree bit for bit because classify(inverse(f)) swaps f's fixed
    # points exactly, except for a member with a == d, whose quadratic roots
    # the two classifications take by different formulas (an ulp apart).
    F = build()
    groups = build_shared_alpha_intervals(F)
    assert [(g.kind, g.members) for g in groups] == expected
    for g in groups:
        members = [F[i] if g.kind == "alpha" else inverse(F[i]) for i in g.members]
        a_union, b_arc = reference_shared_intervals(members)
        assert group_arcs(g) == (a_union.arcs[0], b_arc)


class TestAssembleGlobal:
    def test_figure_two(self):
        F = figure_two(41.0)
        system = assemble_global(F)
        assert len(system.union) >= 2
        assert system.margin >= 1e-7
        assert verify_schottky(F, system.union, margin=1e-7)
        assert {g.kind for g in system.groups} == {"alpha", "beta"}
        assert system.constant_m <= 4.0 * math.log(72.0) + 23.0

    def test_two_generator_case_reduces_to_pair(self):
        rng = np.random.default_rng(62)
        f, g = disjoint_pair(rng, math.log(2.0), 5.0, 5.0)
        system = assemble_global([f, g])
        assert len(system.union) == 2
        assert len(system.pairs) == 2
        assert not system.groups
        pf, pg = build_disjoint_pair_intervals([f, g])
        assert arcs_approx(system.pairs[0].a, pf.a, tol=1e-12)
        assert arcs_approx(system.pairs[1].b, pg.b, tol=1e-12)

    def test_innermost_containment(self):
        F = figure_two(41.0)
        system = assemble_global(F)
        cls = [classify(f) for f in F]
        for i in range(5):
            for j in range(5):
                if i == j:
                    continue
                c = cross_ratio(F[i], F[j])
                if not math.isfinite(c) or (-1e-9 <= c <= 1.0 + 1e-9):
                    continue
                builder = (
                    build_crossing_pair_intervals if c < 0 else build_disjoint_pair_intervals
                )
                pi_, _ = builder(F, i, j)
                assert nested(system.pairs[i].a, pi_.a)
                assert nested(system.pairs[i].b, pi_.b)

    def test_alpha_meets_beta_precondition(self):
        from helpers import section_one_pair

        f, g = section_one_pair()
        with pytest.raises(PreconditionViolated):
            assemble_global([f, g])

    def test_rank_one_precondition(self):
        rng = np.random.default_rng(63)
        from semicert import inverse

        f, g = disjoint_pair(rng, 1.0, 30.0, 30.0)
        with pytest.raises(PreconditionViolated):
            assemble_global([f, inverse(g)])  # aligned pair is separable

    def test_rank_one_precondition_is_the_partition_test(self):
        # With attracting points apart from repelling ones, the Family's
        # rank-one arcs exist exactly when two arcs separate the kinds.
        rng = np.random.default_rng(122)
        seen = {True: 0, False: 0}
        for offset in (1.5e-9, 2.5e-9, -1.2e-9, 0.3):
            for _ in range(60):
                family = Family.of(forced_shared_family(rng, offset))
                if family.alpha_meets_beta is not None:
                    continue
                separable = can_partition_rank_one(
                    [k.alpha for k in family.cls], [k.beta for k in family.cls]
                )
                try:
                    assemble_global(family)
                    refused = False
                except CertifyError as exc:
                    refused = "rank-one configuration" in str(exc)
                assert refused == separable
                seen[separable] += 1
        assert min(seen.values()) > 20

    def test_random_admissible_families(self):
        rng = np.random.default_rng(64)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            F = random_admissible_family(rng, n)
            system = assemble_global(F)
            assert verify_schottky(F, system.union, margin=1e-7)

    def test_retry_ladder_rescues_tight_geometry(self):
        # At the default cut depth this family's arcs collide; deeper cuts
        # must be tried and must succeed.
        from helpers import retry_ladder_family
        from semicert.interval_builder import _assemble_once, _AxisTable

        F = retry_ladder_family()
        from semicert.pair_geometry import Family

        family = Family.of(F)
        with pytest.raises((OverlappingArcs, VerificationFailed)):
            _assemble_once(family, _AxisTable(family), 0.0)
        system = assemble_global(F)
        assert system.margin >= 1e-7
        assert verify_schottky(F, system.union, margin=1e-7)


class TestInnermostSelection:
    """The assembly picks each generator's innermost arcs by axis position."""

    @staticmethod
    def families():
        yield figure_two(41.0)
        for seed, draws, sizes in ((64, 20, (2, 6)), (120, 10, (2, 5)), (12, 3, (12, 13))):
            rng = np.random.default_rng(seed)
            for _ in range(draws):
                yield random_admissible_family(rng, int(rng.integers(*sizes)))

    def test_agrees_with_building_every_pair(self, monkeypatch):
        from semicert import interval_builder

        from helpers import innermost_by_building_every_pair

        schedules = []
        once = interval_builder._assemble_once

        def recording(family, table, extra):
            schedules.append(extra)
            return once(family, table, extra)

        monkeypatch.setattr(interval_builder, "_assemble_once", recording)
        for F in self.families():
            system = assemble_global(F)
            reference = innermost_by_building_every_pair(F, schedules[-1])
            assert [(p.a, p.b) for p in system.pairs] == reference

    def test_cuts_two_arcs_per_generator(self, monkeypatch):
        # The scalar assembly cuts each generator's a and b arc once, at its
        # innermost heights, and builds no pair.
        from semicert import interval_builder
        from semicert.interval_builder import _assemble_once, _AxisTable

        family = in_both_forms(random_admissible_family(np.random.default_rng(12), 12))[0]
        admissible = [
            pg for pg in family.pairs.values()
            if pg.kind == "crossing" or (pg.kind == "disjoint" and pg.nested_attractors)
        ]
        assert len(admissible) > 2 * 12  # cutting every pair would exceed the count
        cuts, built = [], []
        cut = _AxisTable.cut
        monkeypatch.setattr(_AxisTable, "cut", lambda self, *args: cuts.append(args[0]) or cut(self, *args))
        for name in ("build_crossing_pair_intervals", "build_disjoint_pair_intervals", "_build_pair"):
            builder = getattr(interval_builder, name)
            monkeypatch.setattr(
                interval_builder,
                name,
                lambda *args, _b=builder, **kwargs: built.append(args[1:3]) or _b(*args, **kwargs),
            )
        system = _assemble_once(family, _AxisTable(family), 0.0)
        assert sorted(cuts) == [i for i in range(12) for _ in (0, 1)]
        assert built == []
        assert [p.owner for p in system.pairs] == list(range(12))

    def test_assembly_does_not_depend_on_generator_order(self):
        # Relabelling the generators relabels the owners' arcs and leaves the
        # union as it is, bit for bit.
        rng = np.random.default_rng(153)
        for n in range(3, 13):
            F = random_admissible_family(rng, n, min_gap=0.01)
            order = rng.permutation(n).tolist()  # generator k of the copy is F[order[k]]
            system = assemble_global(F)
            shuffled = assemble_global([F[i] for i in order])
            assert shuffled.union.arcs == system.union.arcs, n
            for k, i in enumerate(order):
                assert (shuffled.pairs[k].a, shuffled.pairs[k].b) == (system.pairs[i].a, system.pairs[i].b), (n, k)

    def test_axis_position_is_log_height_of_foot(self):
        from semicert import apply_interior, inverse
        from semicert.interval_builder import _axis_position
        from semicert.moebius_core import axis_chart
        from semicert.pair_geometry import Family, common_perpendicular

        rng = np.random.default_rng(121)
        checked = {"crossing": 0, "disjoint": 0}
        for _ in range(4):
            family = Family.of(random_admissible_family(rng, 6))
            axes = [axis(f) for f in family.maps]
            to_axis = [inverse(axis_chart(ax)) for ax in axes]
            for (i, j), pg in family.pairs.items():
                if pg.kind == "crossing":
                    z = intersect_shapes(geodesic_shape(axes[i]), geodesic_shape(axes[j]))
                    points = ((i, j, z), (j, i, z))
                elif pg.kind == "disjoint":
                    _, foot_i, foot_j, _ = common_perpendicular(axes[i], axes[j])
                    points = ((i, j, foot_i), (j, i, foot_j))
                else:
                    continue
                for owner, partner, z in points:
                    w = apply_interior(to_axis[owner], z)
                    assert abs(w.real) < 1e-9 * abs(w)  # the point is on the owner's axis
                    m = to_axis[owner]
                    assert math.log(w.imag) == pytest.approx(
                        _axis_position((m.a, m.b, m.c, m.d), family.cls[partner]), abs=1e-9
                    )
                checked[pg.kind] += 1
        assert min(checked.values()) > 0


class TestScreens:
    """The numpy screens of the verifier and of the cut ranking change no certificate."""

    @staticmethod
    def screened_and_scalar(F, run):
        """run(family) on the array form of F (both screens), then on its scalar form (every pair in scalar)."""
        scalar, arrays = in_both_forms(F)
        return [run(arrays), run(scalar)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 16, 32])
    def test_certificates_are_byte_identical(self, n):
        from semicert import certify
        from semicert.criteria_engine import certificate_to_dict

        F = random_admissible_family(np.random.default_rng(150 + n), n, min_gap=0.01)
        screened, scalar = self.screened_and_scalar(
            F, lambda family: json.dumps(certificate_to_dict(certify(family)), sort_keys=True)
        )
        assert json.loads(scalar)["kind"] == "semidiscrete_inverse_free"
        assert screened == scalar

    def test_a_corpus_gives_the_same_certificate_or_error_on_both_paths(self):
        from semicert import certify
        from semicert.criteria_engine import certificate_to_dict

        def outcome(family):
            try:
                return json.dumps(certificate_to_dict(certify(family)), sort_keys=True)
            except CertifyError as exc:
                return f"{type(exc).__name__}: {exc}"

        corpus = [f.maps for f in bench_module("families").verdict_mix(1, 2)]
        corpus += [conjugated_figure_two(), shared_attractor_family(), retry_ladder_family()]
        corpus += [figure_two(tau) for tau in (0.1, 0.3, 3.6, 10.0, 40.2, 41.0, 45.0)]
        # The inverse of generator 0 repels from the attracting point that 0 and 1 share.
        corpus.append([*shared_attractor_family(), inverse(shared_attractor_family()[0])])
        # |C(0, 1)| is about 4e16: the crossing cut floor's cos(m/2) rounds to 1, and the floor is inf.
        at = BoundaryPoint.from_angle
        corpus.append(
            [from_axis_and_length(at(b), at(a), 400.0) for b, a in ((0, 3), (3 + 1e-8, 1e-8), (1.5, 4.5), (5, 2))]
        )
        found = [self.screened_and_scalar(F, outcome) for F in corpus]
        assert [arrays for arrays, _ in found] == [scalar for _, scalar in found]
        kinds = {s.split(":")[0] if s.startswith("Precondition") else json.loads(s)["kind"] for _, s in found}
        assert kinds == {
            "PreconditionViolated", "inconclusive", "not_semidiscrete", "rank_one_schottky", "semidiscrete_inverse_free",
        }

    def test_innermost_pairs_match_the_scalar_ranking(self):
        from semicert.interval_builder import _AxisTable

        rng = np.random.default_rng(152)
        for n in (3, 5, 8, 12, 20):
            F = random_admissible_family(rng, n, min_gap=0.01)
            for extra in (0.0, 2.0, 4.0, 7.0, 10.0):
                screened, scalar = self.screened_and_scalar(F, lambda family: _AxisTable(family).innermost(extra))
                assert screened == scalar, (n, extra)

    def test_exact_tie_cuts_equal_arcs(self):
        # Partners mirrored by z -> -z have bit-identical axis positions and
        # cross ratios on the owner's axis 0 -> inf, hence equal t + s and
        # t - s: the owner's innermost cuts are the same whichever partner
        # comes first.
        from semicert.interval_builder import _AxisTable, _cut_position

        owner = from_axis_and_length(BoundaryPoint.from_real(0.0), BoundaryPoint.infinity(), 20.0)
        partner = from_axis_and_length(BoundaryPoint.from_real(-3.0), BoundaryPoint.from_real(0.5), 20.0)
        mirror = MoebiusMap(partner.a, -partner.b, -partner.c, partner.d)
        family = Family.of([owner, partner, mirror])
        table = _AxisTable(family)
        heights = []
        for p in (1, 2):
            t, s = table.position(0, p), _cut_position(family.cls[0].tau, cut_floor(family, 0, p), 0.0)
            heights.append(((t + s).hex(), (t - s).hex()))
        assert heights[0] == heights[1]
        screened, scalar = self.screened_and_scalar(family.maps, lambda f: _AxisTable(f).innermost(0.0))
        assert screened == scalar
        assert [h.hex() for h in scalar[0]] == list(heights[0])
        pairs = [assemble_global(F).pairs[0] for F in ([owner, partner, mirror], [owner, mirror, partner])]
        assert (pairs[0].a, pairs[0].b) == (pairs[1].a, pairs[1].b)

    def test_cut_positions_match_the_scalar_rule(self):
        from semicert.interval_builder import _cut_position, _cut_positions

        rng = np.random.default_rng(151)
        tau, floor = rng.uniform(0.1, 60.0, size=2000), rng.uniform(0.0, 25.0, size=2000)
        for extra in (0.0, 2.0, 4.0, 7.0, 10.0):
            assert [s.hex() for s in _cut_positions(tau, floor, extra).tolist()] == [
                _cut_position(t, f, extra).hex() for t, f in zip(tau.tolist(), floor.tolist())
            ]


def admissible_pairs(family):
    """(i, j, builder) of each pair that a pair builder accepts: crossing, or disjoint with C > 1."""
    for (i, j), pg in family.pairs.items():
        if pg.kind == "crossing":
            yield i, j, build_crossing_pair_intervals
        elif pg.kind == "disjoint" and pg.nested_attractors:
            yield i, j, build_disjoint_pair_intervals


def retimed(family, taus):
    """The family's fixed points with translation lengths `taus`."""
    return Family.of([from_axis_and_length(k.beta, k.alpha, float(t)) for k, t in zip(family.cls, taus)])


class TestPairBuildReadsOnlyItsPair:
    """A pair build reads its two owners' charts and one cut floor, and cuts the arcs that a whole axis table cuts."""

    def test_one_cut_floor_and_two_charts_per_build(self, monkeypatch):
        calls = []
        for name in ("_gated_floor", "_chart_entries", "_AxisTable"):
            original = getattr(interval_builder, name)
            monkeypatch.setattr(interval_builder, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
        rng = np.random.default_rng(170)
        builds = 0
        for n in (4, 12):  # the list and the array pair table
            family = Family.of(random_admissible_family(rng, n, min_gap=0.01))
            for i, j, builder in admissible_pairs(family):
                calls.clear()
                builder(family, i, j)
                assert sorted(calls) == ["_chart_entries", "_chart_entries", "_gated_floor"], (n, i, j)
                builds += 1
        assert builds > 10

    def test_arcs_are_those_of_the_whole_table(self):
        rng = np.random.default_rng(171)
        forms, outcomes = set(), set()
        for n in range(2, 13):
            F = random_admissible_family(rng, n, min_gap=0.01)
            family = Family.of(F)
            forms.add(isinstance(family.cross_ratios, np.ndarray))
            assert isinstance(family.cross_ratios, np.ndarray) == (n > LIST_N)
            # The same fixed points with translation lengths on both sides of the pair gates.
            for fam in (family, retimed(family, rng.uniform(0.5, 12.0, n))):
                for i, j, builder in admissible_pairs(fam):
                    for extra in (0.0, 2.0):
                        # The builders cut at schedule 0; `_build_pair` at any schedule.
                        build = (lambda: builder(fam, i, j)) if extra == 0.0 else (lambda: _build_pair(fam, i, j, extra))
                        try:
                            expected = reference_build_pair(fam, i, j, extra)
                        except ThresholdNotMet as exc:
                            with pytest.raises(ThresholdNotMet, match=f"^{re.escape(str(exc))}$"):
                                build()
                            outcomes.add("skipped")
                            continue
                        found = build()
                        assert [p.owner for p in found] == [i, j]
                        assert endpoint_hexes(found) == endpoint_hexes(expected), (n, i, j, extra)
                        outcomes.add("built")
        assert forms == {False, True}
        assert outcomes == {"built", "skipped"}


def endpoint_hexes(pairs):
    """float.hex of x, y and angle of each endpoint of the a and b arcs of `pairs`."""
    return [
        [v.hex() for v in (p.x, p.y, p.angle)]
        for pair in pairs
        for arc in (pair.a, pair.b)
        for p in (arc.start, arc.end)
    ]
