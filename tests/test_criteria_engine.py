import json
import math
from pathlib import Path

import numpy as np
import pytest

from semicert import (
    ArcUnion,
    BoundaryPoint,
    HRegion,
    Inconclusive,
    NotSemidiscrete,
    RankOneSchottky,
    SemidiscreteInverseFree,
    Thresholds,
    certify,
    classify,
    compose,
    contains,
    cross_ratio,
    crossing_limit_interval,
    elliptic_witness_disjoint,
    from_axis_and_length,
    h_function,
    normalize,
    pair_trace_identity_check,
    triple_crossing_test,
    two_gen_disjoint_test,
    uniform_hyperbolicity,
    verify_schottky,
)
from semicert import criteria_engine
from semicert.boundary_arcs import schottky_margin
from semicert.criteria_engine import (
    certificate_to_dict,
    cos_phi,
    find_rank_one_interval,
)
from semicert.errors import (
    AxesDoNotCross,
    AxesNotDisjoint,
    CertifyError,
    InvalidMatrix,
    PreconditionViolated,
    SearchExhausted,
    ThresholdNotMet,
)
from semicert.moebius_core import power
from semicert.pair_geometry import PARABOLIC, Family, _kind

from helpers import (
    crossing_pair,
    disjoint_pair,
    figure_two,
    forced_shared_family,
    reference_rank_one_search,
    section_one_pair,
)

INF = BoundaryPoint.infinity()


class TestHFunction:
    def test_distance_zero_collapses(self):
        for x in (0.0, 0.3, 2.0, 5.0):
            assert h_function(x, x, 0.0) == pytest.approx(-1.0, abs=1e-9)

    def test_level_at_log_two(self):
        d = math.log(2.0)
        b = math.asinh(math.sqrt(2.0))
        assert h_function(b, b, d) == pytest.approx(-0.5, abs=1e-12)
        assert h_function(1.0, 1.0, d) == pytest.approx(-0.654725, abs=1e-6)

    def test_region_constants_across_distances(self):
        for d in np.geomspace(0.01, 10.0, 50):
            region = HRegion(float(d))
            assert h_function(region.a, region.a, d) == pytest.approx(-7.0 / 9.0, abs=1e-10)
            assert h_function(region.b, region.b, d) == pytest.approx(-0.5, abs=1e-10)
            assert h_function(region.b_prime, region.b_prime, d) == pytest.approx(1.0, abs=1e-10)
            assert region.a < region.b < region.b_prime

    def test_monotone_on_square(self):
        # h increases along horizontal and vertical segments inside [a, b]^2
        # once d clears the corner-derivative threshold near 0.4354; below it
        # the increase genuinely fails near the (b, a) corner (see
        # test_acceptance.py::test_criterion_4_monotonicity_grid, which checks
        # both sides of that threshold), but the values stay inside [-7/9, -1/2].
        for d in (0.5, math.log(2.0), 3.0):
            region = HRegion(d)
            grid = np.linspace(region.a, region.b, 100)
            vals = np.array([[h_function(x, y, d) for y in grid] for x in grid])
            assert (np.diff(vals, axis=0) > -1e-12).all()
            assert (np.diff(vals, axis=1) > -1e-12).all()

    def test_square_stays_in_band(self):
        for d in np.geomspace(0.01, 10.0, 50):
            region = HRegion(float(d))
            grid = np.linspace(region.a, region.b, 40)
            vals = np.array([[h_function(x, y, float(d)) for y in grid] for x in grid])
            assert vals.min() >= -7.0 / 9.0 - 1e-9
            assert vals.max() <= -0.5 + 1e-9


class TestTraceIdentity:
    def test_random_pairs(self):
        rng = np.random.default_rng(70)
        for _ in range(1000):
            f, g = disjoint_pair(
                rng, rng.uniform(0.1, 2.5), rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
            )
            lhs, rhs = pair_trace_identity_check(f, g)
            assert lhs == pytest.approx(rhs, abs=1e-8 * (1.0 + abs(lhs)))

    def test_elliptic_composition_at_level_b(self):
        rng = np.random.default_rng(71)
        d = math.log(2.0)
        b = math.asinh(math.sqrt(2.0))
        f, g = disjoint_pair(rng, d, 2.0 * b, 2.0 * b)
        lhs, _ = pair_trace_identity_check(f, g)
        assert lhs == pytest.approx(0.5, abs=1e-9)
        assert abs(compose(f, g).trace) < 2.0  # elliptic product

    def test_large_lengths_give_hyperbolic_product(self):
        rng = np.random.default_rng(72)
        f, g = disjoint_pair(rng, math.log(2.0), 8.0, 9.0)
        lhs, _ = pair_trace_identity_check(f, g)
        assert lhs > 1.0

    def test_requires_admissible_configuration(self):
        rng = np.random.default_rng(73)
        f, g = crossing_pair(rng, 1.0, 1.0, 1.0)
        with pytest.raises(AxesNotDisjoint):
            pair_trace_identity_check(f, g)


class TestThresholds:
    def test_published_table(self):
        th = Thresholds.from_cross_ratios([-1.0, 25.0 / 4.0, 1.0 / 9.0, 9.0, 0.0])
        assert th.lower == pytest.approx(21.0 / 185.0, abs=1e-12)
        assert th.upper == pytest.approx(4.0 * math.log(72.0) + 23.0, abs=1e-12)

    def test_no_admissible_pairs_defaults(self):
        th = Thresholds.from_cross_ratios([-1.0, 0.5])
        assert th.lower == pytest.approx(0.2)

    def test_monotone_in_pairs(self):
        values = [9.0, 25.0 / 4.0, -1.0, 0.5, 3.0]
        lowers, uppers = [], []
        for k in range(1, len(values) + 1):
            th = Thresholds.from_cross_ratios(values[:k])
            lowers.append(th.lower)
            uppers.append(th.upper)
        assert all(a >= b - 1e-15 for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b + 1e-15 for a, b in zip(uppers, uppers[1:]))

    def test_lower_below_upper(self):
        rng = np.random.default_rng(74)
        for _ in range(100):
            values = list(rng.uniform(-5.0, 8.0, size=4))
            th = Thresholds.from_cross_ratios(values)
            assert th.lower < th.upper

    def test_from_generators_matches_table(self):
        F = figure_two(1.0)
        th = Thresholds.from_generators(F)
        assert th.upper == pytest.approx(4.0 * math.log(72.0) + 23.0, abs=1e-9)
        assert th.lower == pytest.approx(0.2 * (25.0 / 16.0 - 1.0) / (25.0 / 16.0 + 3.0), abs=1e-9)


class TestEllipticWitness:
    def test_small_lengths(self):
        rng = np.random.default_rng(75)
        f, g = disjoint_pair(rng, math.log(2.0), 0.1, 0.1)
        m, n, trace = elliptic_witness_disjoint([f, g])
        assert (m, n) == (1, 1)
        assert 1.0 < abs(trace) < 2.0
        word = compose(power(f, m), power(g, n))
        assert abs(word.trace) < 2.0 - 1e-9

    def test_matches_h_prediction(self):
        rng = np.random.default_rng(76)
        f, g = disjoint_pair(rng, math.log(2.0), 0.1, 0.1)
        m, n, trace = elliptic_witness_disjoint([f, g])
        value = h_function(0.5 * m * 0.1, 0.5 * n * 0.1, math.log(2.0))
        assert abs(trace) == pytest.approx(2.0 * abs(value), abs=1e-8)

    def test_finer_lengths_land_in_band(self):
        rng = np.random.default_rng(77)
        d = math.log(2.0)
        f, g = disjoint_pair(rng, d, 0.05, 0.05)
        m, n, _ = elliptic_witness_disjoint([f, g])
        value = h_function(0.025 * m, 0.025 * n, d)
        assert -1.0 < value < -0.5

    def test_exhausts_above_upper_regime(self):
        rng = np.random.default_rng(78)
        tau = math.log(9.0) + 1.6
        f, g = disjoint_pair(rng, math.log(2.0), tau, tau)
        with pytest.raises(SearchExhausted):
            elliptic_witness_disjoint([f, g])


class TestTwoGenTest:
    def test_three_regimes(self):
        rng = np.random.default_rng(79)
        d = math.log(2.0)  # C = 9, lower bound 2/15
        low = disjoint_pair(rng, d, 0.1, 0.1)
        mid = disjoint_pair(rng, d, 1.0, 1.0)
        high = disjoint_pair(rng, d, math.log(9.0) + 1.6, math.log(9.0) + 1.6)
        cert = two_gen_disjoint_test(*low)
        assert isinstance(cert, NotSemidiscrete)
        assert cert.witness_word == ((0, 1), (1, 1))
        assert isinstance(two_gen_disjoint_test(*mid), Inconclusive)
        cert = two_gen_disjoint_test(*high)
        assert isinstance(cert, SemidiscreteInverseFree)
        assert verify_schottky([*high], cert.system.union, margin=1e-7)

    def test_rejects_wrong_range(self):
        rng = np.random.default_rng(80)
        f, g = crossing_pair(rng, 1.0, 0.1, 0.1)
        with pytest.raises(AxesNotDisjoint):
            two_gen_disjoint_test(f, g)


class TestCrossingLimitInterval:
    def test_right_angle(self):
        rng = np.random.default_rng(81)
        f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15)
        arc = crossing_limit_interval([f, g])
        cf, cg = classify(f), classify(g)
        assert {arc.start.angle, arc.end.angle} == {cf.alpha.angle, cg.alpha.angle}
        assert not contains(arc, cf.beta) and not contains(arc, cg.beta)

    def test_near_the_gate(self):
        rng = np.random.default_rng(82)
        f, g = crossing_pair(rng, math.pi / 2.0, 0.19, 0.19)
        arc = crossing_limit_interval([f, g])
        theta = math.pi / 2.0
        assert cos_phi(0.19, theta) < math.cos(0.5 * theta)

    def test_gate(self):
        rng = np.random.default_rng(83)
        f, g = crossing_pair(rng, math.pi / 2.0, 0.3, 0.3)
        with pytest.raises(ThresholdNotMet):
            crossing_limit_interval([f, g])

    def test_requires_crossing(self):
        rng = np.random.default_rng(84)
        f, g = disjoint_pair(rng, 1.0, 0.1, 0.1)
        with pytest.raises(AxesDoNotCross):
            crossing_limit_interval([f, g])


class TestTripleCrossing:
    def _triple(self, rng, where=0.5):
        f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15, conjugate_by=normalize([[1, 0], [0, 1]]))
        arc = crossing_limit_interval([f, g])
        beta_angle = arc.start.angle + where * arc.span
        h = from_axis_and_length(
            BoundaryPoint.from_angle(beta_angle),
            BoundaryPoint.from_angle(beta_angle + math.pi * 0.9),
            1.0,
        )
        return f, g, h

    def test_interleaved_repeller(self):
        rng = np.random.default_rng(85)
        f, g, h = self._triple(rng)
        cert = triple_crossing_test([f, g, h])
        assert isinstance(cert, NotSemidiscrete)
        assert cert.criterion["rule"] == "crossing_pair_with_interleaved_repeller"
        assert cert.criterion["discreteness_product"] < cert.criterion["discreteness_bound"]
        assert math.sinh(0.075) ** 2 == pytest.approx(0.00564, abs=1e-5)
        assert math.cos(3.0 * math.pi / 7.0) == pytest.approx(0.2225, abs=1e-4)

    def test_repeller_outside(self):
        rng = np.random.default_rng(86)
        f, g, _ = self._triple(rng)
        arc = crossing_limit_interval([f, g])
        outside = BoundaryPoint.from_angle(arc.end.angle + 0.4 * (2 * math.pi - arc.span))
        h = from_axis_and_length(outside, BoundaryPoint.from_angle(outside.angle + 2.0), 1.0)
        with pytest.raises(PreconditionViolated):
            triple_crossing_test([f, g, h])


class TestCertify:
    def test_figure_two_small_lengths(self):
        cert = certify(figure_two(0.1))
        assert isinstance(cert, NotSemidiscrete)
        assert abs(cert.trace) < 2.0 - 1e-9

    def test_figure_two_large_lengths(self):
        F = figure_two(41.0)
        cert = certify(F)
        assert isinstance(cert, SemidiscreteInverseFree)
        assert len(cert.system.union) >= 2
        assert verify_schottky(F, cert.system.union, margin=1e-7)

    def test_figure_two_middle_lengths(self):
        cert = certify(figure_two(10.0))
        assert isinstance(cert, Inconclusive)
        assert cert.report["lower"] < 10.0 < cert.report["upper"]

    def test_rank_one_example(self):
        f, g = section_one_pair()
        cert = certify([f, g])
        assert isinstance(cert, RankOneSchottky)
        assert verify_schottky([f, g], ArcUnion([cert.interval]), margin=0.0)
        assert contains(cert.interval, BoundaryPoint.of(2.0, 1.0))

    def test_single_generator_cone(self):
        cert = certify([normalize([[2.0, 0.0], [0.0, 1.0]])])
        assert isinstance(cert, RankOneSchottky)
        assert cert.margin > 0.0
        assert contains(cert.interval, INF)

    def test_precondition_alpha_meets_beta(self):
        f = from_axis_and_length(BoundaryPoint.from_real(0.0), INF, 1.0)
        g = from_axis_and_length(INF, BoundaryPoint.from_real(-3.0), 1.0)
        h = from_axis_and_length(
            BoundaryPoint.from_real(1.0), BoundaryPoint.from_real(2.0), 1.0
        )
        with pytest.raises(PreconditionViolated):
            certify([f, g, h])

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(PreconditionViolated):
            certify([normalize([[1.0, 1.0], [0.0, 1.0]])])

    def test_assembly_failure_falls_back_to_a_report(self):
        # Every tau clears the upper threshold (29.67), but generator 1 has no
        # admissible partner above its pair gate, so the assembly gives up.
        angles = (
            3.4761109122883744, 4.23075971507368, 3.257061109325002,
            1.6186626719428447, 6.153635994390231, 0.6035339212297176,
        )
        F = [
            from_axis_and_length(BoundaryPoint.from_angle(beta), BoundaryPoint.from_angle(alpha), 30.66622822244309)
            for alpha, beta in zip(angles[::2], angles[1::2])
        ]
        cert = certify(F)
        assert isinstance(cert, Inconclusive)
        assert all(tau > cert.report["upper"] for tau in (g["tau"] for g in cert.report["generators"]))
        assert cert.report["notes"] == [
            "interval assembly failed: generator 1 has no admissible partner with sufficient translation length"
        ]

    def test_repeller_mapped_below_rounding_is_not_contained(self):
        # f1 (entries about 7e8) sends its own repelling point, the shared
        # alpha_0 = beta_1 that ends the rank-one arc, to an image of norm
        # about 6.5e-9 whose coordinates both round to 0.0.
        pt = BoundaryPoint.from_angle
        f0 = from_axis_and_length(pt(0.10047899997889743), pt(4.518991109258015), 2.0)
        f1 = from_axis_and_length(pt(4.518991109258015), pt(4.762346601567949), 37.691380848931175)
        with pytest.raises(PreconditionViolated, match="attracting point of generator 0 meets repelling point of 1"):
            certify([f0, f1])

    def test_shared_repeller_sweep_ends_typed(self):
        # alpha_0 = beta_1 = p, with a long second map: the images that cannot
        # be placed must end as a typed outcome, never a raw error.
        pt = BoundaryPoint.from_angle
        rng = np.random.default_rng(0)
        kinds = set()
        for _ in range(2000):
            p, beta_0, alpha_1 = rng.uniform(0.0, 2.0 * math.pi, size=3)
            F = [
                from_axis_and_length(pt(beta_0), pt(p), 2.0),
                from_axis_and_length(pt(p), pt(alpha_1), rng.uniform(30.0, 45.0)),
            ]
            try:
                kinds.add(certify(F).kind)
            except CertifyError as exc:
                kinds.add(type(exc).__name__)
        assert kinds == {"rank_one_schottky", "PreconditionViolated"}

    def test_witness_soundness(self):
        rng = np.random.default_rng(87)
        for _ in range(20):
            f, g = disjoint_pair(rng, rng.uniform(0.3, 1.5), 0.02, 0.02)
            cert = certify([f, g])
            assert isinstance(cert, NotSemidiscrete)
            word = MoebiusMapProduct(cert.witness_word, [f, g])
            assert abs(word.trace) < 2.0 - 1e-9


class TestRuleTable:
    """`certify` walks one ordered tuple of rules and returns the first certificate."""

    def test_order(self):
        assert [rule.__name__ for rule in criteria_engine._RULES] == ["_rank_one", "_precondition", "_assembly", "_witnesses"]

    def test_first_certificate_wins(self, monkeypatch):
        tried = []

        def rule(name, cert):
            return lambda d: tried.append(name) or cert

        first, second = Inconclusive({"rule": "first"}), Inconclusive({"rule": "second"})
        rules = (rule("none", None), rule("first", first), rule("second", second))
        monkeypatch.setattr(criteria_engine, "_RULES", rules)
        assert certify(figure_two(1.0)) is first
        assert tried == ["none", "first"]

    def test_no_certificate_is_a_report_with_the_notes(self, monkeypatch):
        def noted(d):
            d.notes.append("noted")

        rules = (criteria_engine._precondition, noted)
        monkeypatch.setattr(criteria_engine, "_RULES", rules)
        cert = certify(figure_two(41.0))  # which the full table assembles
        assert isinstance(cert, Inconclusive) and cert.report["notes"] == ["noted"]

    def test_the_precondition_rule_raises_after_the_rank_one_rule(self):
        f = from_axis_and_length(BoundaryPoint.from_real(0.0), INF, 1.0)
        g = from_axis_and_length(INF, BoundaryPoint.from_real(-3.0), 1.0)
        h = from_axis_and_length(BoundaryPoint.from_real(1.0), BoundaryPoint.from_real(2.0), 1.0)
        d = criteria_engine._Decision(Family.of([f, g, h]), 1e-7)
        assert criteria_engine._rank_one(d) is None
        with pytest.raises(PreconditionViolated, match="^attracting point of generator 0 meets repelling point of 1$"):
            criteria_engine._precondition(d)
        with pytest.raises(PreconditionViolated, match="^attracting point of generator 0 meets repelling point of 1$"):
            certify([f, g, h])


def cross_ratio_one_pair(u=1.0, v=-0.5, d=1e-8, tau=5.0):
    """Axes from u to u + d and from v to v - d, so close to points that their cross ratio rounds to exactly 1."""
    r = BoundaryPoint.from_real
    return [from_axis_and_length(r(u), r(u + d), tau), from_axis_and_length(r(v), r(v - d), tau)]


def far_generators():
    """Eight maps whose axes are half-circles about 0 of radius 20 to 55, far outside the points of `cross_ratio_one_pair`."""
    r = BoundaryPoint.from_real
    return [from_axis_and_length(r(x), r(-x), 5.0) for x in (20.0, 30.0, 40.0, 50.0, -25.0, -35.0, -45.0, -55.0)]


def checked_outcome(F):
    """The kind of `certify(F)`, a certificate being checked by `schottky_margin`, or the name of its CertifyError."""
    try:
        cert = certify(F)
    except CertifyError as exc:
        return type(exc).__name__
    if isinstance(cert, RankOneSchottky):
        assert schottky_margin(F, ArcUnion([cert.interval])) >= 0.0
    elif isinstance(cert, SemidiscreteInverseFree):
        assert schottky_margin(F, cert.system.union) >= cert.system.margin
    return cert.kind


class TestCrossRatioOne:
    # A PARABOLIC pair (|C - 1| <= DEGENERATE_TOL) enters no bound, so C == 1.0 never reaches log 0.

    @pytest.mark.parametrize("far", [0, 8], ids=["list", "array"])
    def test_ends_inconclusive(self, far):
        F = cross_ratio_one_pair() + far_generators()[:far]
        family = Family.of(F)
        assert family.cross_ratio(0, 1) == 1.0 and _kind(1.0) == PARABOLIC
        assert isinstance(family.cross_ratios, np.ndarray) == bool(far)
        cert = certify(F)
        assert isinstance(cert, Inconclusive)
        assert cert.report["pairs"][0] == {"i": 0, "j": 1, "cross_ratio": 1.0, "in_lower": False, "in_upper": False}

    def test_thresholds_leave_it_out(self):
        empty = Thresholds(0.2, 23.0)
        assert Thresholds.from_cross_ratios([1.0]) == Thresholds.from_cross_ratios(np.array([1.0] * 50)) == empty
        assert Thresholds.from_cross_ratios([9.0, 1.0]) == Thresholds.from_cross_ratios([9.0])

    def test_grid_ends_in_a_checked_outcome(self):
        outcomes, ones = {}, 0
        for d in (2e-9, 5e-9, 1e-8, 3e-8, 1e-7):
            for tau in (1.0, 5.0, 50.0):
                for u in (0.3, 1.0, 2.0, 7.0):
                    for v in (-1.0, -3.0, -0.5):
                        F = cross_ratio_one_pair(u, v, d, tau)
                        ones += Family.of(F).cross_ratio(0, 1) == 1.0
                        kind = checked_outcome(F)
                        outcomes[kind] = outcomes.get(kind, 0) + 1
        assert ones == 63 and sum(outcomes.values()) == 180
        assert set(outcomes) <= {"rank_one_schottky", "semidiscrete_inverse_free", "not_semidiscrete", "inconclusive", "PreconditionViolated"}


class TestRankOneSearch:
    """The search verifies the Family's arcs and agrees with the all-pairs reference."""

    @pytest.mark.parametrize(
        "F",
        [
            list(section_one_pair()),
            [normalize([[2.0, 0.0], [0.0, 1.0]])],
            [normalize([[2.0, 0.0], [0.0, 1.0]]), normalize([[1.0, 0.0], [0.0, 2.0]])],
            figure_two(41.0),
        ],
        ids=["section-one", "one-generator-cone", "inverse-pair", "figure-two"],
    )
    def test_fixed_cases_match_reference(self, F):
        assert find_rank_one_interval(F) == reference_rank_one_search(F)

    @pytest.mark.parametrize("offset", [0.0, 3e-10, 1.5e-9, 2.5e-9, -1.2e-9])
    def test_seeded_draws_match_reference(self, offset):
        rng = np.random.default_rng(121)
        found = 0
        for _ in range(120):
            F = forced_shared_family(rng, offset)
            result = find_rank_one_interval(F)
            assert result == reference_rank_one_search(F)
            found += result is not None
        assert 20 < found < 100  # both outcomes are exercised


def test_readme_quick_start(capsys):
    """The README example runs and prints what its comments say."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library quick start", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(block, {})
    printed = capsys.readouterr().out.split()
    expected = [line.split("#")[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert printed == expected == ["semidiscrete_inverse_free", "True", "inconclusive"]


def test_readme_pair_verdicts():
    """Pair gate log 9 + 3/2 is cleared; the family upper threshold is not."""
    r = BoundaryPoint.from_real
    tau = math.log(9) + 1.6
    f = from_axis_and_length(r(-1.0), r(1.0), tau=tau)
    g = from_axis_and_length(r(2.0), r(-2.0), tau=tau)
    assert cross_ratio(f, g) == pytest.approx(9.0, abs=1e-12)
    cert = two_gen_disjoint_test(f, g)
    assert isinstance(cert, SemidiscreteInverseFree)
    assert verify_schottky([f, g], cert.system.union, margin=1e-7)
    verdict = certify([f, g])
    assert isinstance(verdict, Inconclusive)
    assert verdict.report["upper"] == pytest.approx(4.0 * math.log(72.0) + 23.0, abs=1e-9)
    assert math.log(9.0) + 1.5 < tau < verdict.report["upper"]


def MoebiusMapProduct(word, gens):
    out = normalize([[1.0, 0.0], [0.0, 1.0]])
    for idx, exponent in word:
        out = compose(out, power(gens[idx], exponent))
    return out


class TestUniformHyperbolicity:
    def test_figure_two_tuple(self):
        F = figure_two(41.0)
        union = uniform_hyperbolicity([[f.a, f.b, f.c, f.d] for f in F])
        assert union is not None
        assert verify_schottky(F, union, margin=1e-7)

    def test_rotation_member(self):
        t = 0.6
        mats = [[2.0, 0.0, 0.0, 0.5], [math.cos(t), -math.sin(t), math.sin(t), math.cos(t)]]
        assert uniform_hyperbolicity(mats) is None

    def test_single_cone(self):
        union = uniform_hyperbolicity([[2.0, 0.0, 0.0, 0.5]])
        assert union is not None
        (arc,) = union.arcs
        assert contains(arc, INF)
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert verify_schottky([f], union, margin=1e-7)

    def test_shared_endpoint_pair_has_no_cone(self):
        # Rank-one certificate exists but only with a zero-clearance endpoint,
        # which is not a multicone.
        f, g = section_one_pair()
        assert uniform_hyperbolicity([[f.a, f.b, f.c, f.d], [g.a, g.b, g.c, g.d]]) is None

    def test_orientation_reversing_member(self):
        assert uniform_hyperbolicity([[2.0, 0.0, 0.0, 0.5], [1.0, 0.0, 0.0, -1.0]]) is None

    def test_rejects_singular(self):
        # Every matrix is read, also after an orientation-reversing one.
        for matrices in ([[1.0, 1.0, 1.0, 1.0]], [[1, 0, 0, -1], [1, 1, 1, 1]]):
            with pytest.raises(InvalidMatrix):
                uniform_hyperbolicity(matrices)


class TestSerialization:
    def test_certificates_serialize_to_json(self):
        rng = np.random.default_rng(88)
        certs = [
            certify(figure_two(0.1)),
            certify(figure_two(41.0)),
            certify(figure_two(10.0)),
            certify(list(section_one_pair())),
        ]
        for cert in certs:
            payload = certificate_to_dict(cert, version="test")
            text = json.dumps(payload)
            assert json.loads(text)["kind"] == cert.kind

    def test_unit_matrix_loader_handles_huge_entries(self):
        for tau in (41.0, 60.0):
            for f in figure_two(tau):
                g = normalize([f.a, f.b, f.c, f.d])
                assert g is not None
                assert classify(g).kind == "hyperbolic"
                assert g == f  # the drowned determinant is trusted: kept as given
