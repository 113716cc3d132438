"""Shared constructions for the test suite."""

import importlib
import math
import sys
from bisect import bisect_right
from pathlib import Path

import numpy as np

from semicert import (
    BoundaryPoint,
    MoebiusMap,
    conjugate,
    from_axis_and_length,
    normalize,
)
from semicert.boundary_arcs import (
    ArcUnion,
    BoundaryArc,
    _arc_at,
    _around,
    can_partition_rank_one,
    ccw_gap,
    complement,
    contains,
    image_clearances,
    schottky_margin,
)
from semicert.criteria_engine import arc_to_dict, union_to_dict
from semicert.errors import CoincidentEndpoints, NonPositiveDeterminant, ThresholdNotMet, VerificationFailed
from semicert.interval_builder import (
    SHARED_ALPHA_GATE,
    GlobalIntervalSystem,
    SharedFixedPointGroup,
    SymmetricIntervalPair,
    _AxisTable,
    _checked_margin,
    _cut_floor,
    _cut_position,
    _no_partner,
    build_crossing_pair_intervals,
    build_disjoint_pair_intervals,
    eq_constant,
)
from semicert.moebius_core import (
    ANGLE_TOL,
    IDENTITY_TOL,
    TRACE_TOL,
    Classification,
    Geodesic,
    apply_boundary,
    axis_chart,
    classify,
    compose,
    inverse,
    require_hyperbolic,
)
from semicert import pair_geometry
from semicert.pair_geometry import Family, cross_ratio_of_points

TWO_PI = 2.0 * math.pi
BENCH = Path(__file__).resolve().parent.parent / "bench"
# The largest n whose Family keeps the pair table as a list; from LIST_N + 1 on it keeps arrays.
LIST_N = max(n for n in range(2, 100) if n * (n - 1) // 2 < pair_geometry.PAIR_ARRAY_MIN_PAIRS)


def bench_module(name):
    """A module of `bench/` (`families`, `exact`), imported read only."""
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def in_both_forms(items):
    """The same arcs, or the same maps, in the scalar form and in the array form: (scalar, arrays).

    Arcs, an ArcUnion or a sequence of BoundaryArc, come as `ArcUnion(arcs)`,
    which `schottky_margin` decides pair by pair, and as `ArcUnion.of_arrays`
    of the same points, which it screens.  Maps come as a Family with the
    pair table as a list and as one with the pair table as arrays, built with
    PAIR_ARRAY_MIN_PAIRS set above and below their number of pairs; each
    takes its own path through `certify` and `assemble_global`.
    """
    items = list(items)
    if items and isinstance(items[0], BoundaryArc):
        start, end = (point_arrays([getattr(a, side) for a in items]) for side in ("start", "end"))
        return ArcUnion(items), ArcUnion.of_arrays(start, end)
    saved = pair_geometry.PAIR_ARRAY_MIN_PAIRS
    try:
        families = []
        for crossover in (math.inf, 0):
            pair_geometry.PAIR_ARRAY_MIN_PAIRS = crossover
            families.append(Family.of(items))
            families[-1].cross_ratios  # the table, and so the path, is taken on first read
    finally:
        pair_geometry.PAIR_ARRAY_MIN_PAIRS = saved
    assert isinstance(families[0].cross_ratios, list) and isinstance(families[1].cross_ratios, np.ndarray)
    return tuple(families)


def point_arrays(points):
    """The x, y and angle arrays of boundary points, as `ArcUnion.of_arrays` reads them."""
    return tuple(np.array([getattr(p, name) for p in points]) for name in ("x", "y", "angle"))


def greedy_cluster(points, tol):
    """Reference for `cluster`: each point, in order, joins the first class whose first point is within tol."""
    classes = []
    for idx, p in enumerate(points):
        for members in classes:
            if points[members[0]].angular_distance(p) <= tol:
                members.append(idx)
                break
        else:
            classes.append([idx])
    return classes


def section_one_pair():
    """f(z) = 2z and g(z) = z/2 + 1."""
    return normalize([[2.0, 0.0], [0.0, 1.0]]), normalize([[1.0, 2.0], [0.0, 2.0]])


def corner_point(x, y):
    return BoundaryPoint.from_angle(math.atan2(y, x))


def figure_two(tau):
    """Five generators with the square-plus-diameter axis layout.

    Orientations are fixed so the diameter pair cross ratios come out as
    -1, 1/9 and 9 and the four corner pairs share fixed points.
    """
    ne, nw = corner_point(0.8, 0.6), corner_point(-0.8, 0.6)
    sw, se = corner_point(-0.8, -0.6), corner_point(0.8, -0.6)
    disc_m1 = BoundaryPoint.from_angle(math.pi)
    disc_p1 = BoundaryPoint.from_angle(0.0)
    return [
        from_axis_and_length(sw, nw, tau),
        from_axis_and_length(ne, nw, tau),
        from_axis_and_length(ne, se, tau),
        from_axis_and_length(sw, se, tau),
        from_axis_and_length(disc_p1, disc_m1, tau),
    ]


def shared_attractor_family():
    """Two generators sharing an attractor, plus two independent ones."""
    a = BoundaryPoint.from_angle
    tau = 60.0
    return [
        from_axis_and_length(a(2.2), a(0.7), tau),   # shares attractor 0.7
        from_axis_and_length(a(2.9), a(0.7), tau),   # shares attractor 0.7
        from_axis_and_length(a(1.7), a(4.2), tau),   # crosses the others
        from_axis_and_length(a(5.8), a(3.6), tau),
    ]


def shared_repeller_family():
    """The inverses of `shared_attractor_family`: generators 0 and 1 share a repeller."""
    a = BoundaryPoint.from_angle
    tau = 60.0
    return [
        from_axis_and_length(a(0.7), a(2.2), tau),
        from_axis_and_length(a(0.7), a(2.9), tau),
        from_axis_and_length(a(4.2), a(1.7), tau),
        from_axis_and_length(a(3.6), a(5.8), tau),
    ]


def one_axis_family():
    """Generators 0 and 1 share both fixed points, so they share an attractor and a repeller."""
    a = BoundaryPoint.from_angle
    return [
        from_axis_and_length(a(0.7), a(2.2), 60.0),
        from_axis_and_length(a(0.7), a(2.2), 70.0),
        from_axis_and_length(a(4.2), a(1.7), 60.0),
        from_axis_and_length(a(3.6), a(5.8), 60.0),
    ]


def conjugated_figure_two():
    """`figure_two(41)` conjugated by one seeded random map: two shared attractors and two shared repellers."""
    m = random_moebius(np.random.default_rng(63))
    return [conjugate(f, m) for f in figure_two(41.0)]


def retry_ladder_family():
    """Five generators whose arcs collide at the first cut schedule; a deeper one verifies."""
    data = [
        (4.2558218450491907, 0.86534830580207434, 36.0266330194099),
        (4.3379055631154708, 2.8364965538271214, 36.539449265708278),
        (5.3174737179548437, 2.4894652937445327, 36.610168408965471),
        (5.8603049233260132, 0.72303015626408307, 36.188926875442107),
        (1.2739359049477512, 2.6816471480974671, 36.619225012259285),
    ]
    return [
        from_axis_and_length(BoundaryPoint.from_angle(b), BoundaryPoint.from_angle(a), t)
        for b, a, t in data
    ]


def random_moebius(rng):
    """Random normalized map with positive determinant (used as a conjugator)."""
    while True:
        a, b, c, d = rng.standard_normal(4)
        if a * d - b * c > 0.1:
            return MoebiusMap.from_matrix(a, b, c, d)


def random_hyperbolic(rng, tau_range=(0.3, 3.0)):
    while True:
        t1, t2 = rng.uniform(0.0, TWO_PI, size=2)
        if abs(t1 - t2) % TWO_PI > 0.2 and abs(t2 - t1) % TWO_PI < TWO_PI - 0.2:
            break
    tau = rng.uniform(*tau_range)
    return from_axis_and_length(
        BoundaryPoint.from_angle(t1), BoundaryPoint.from_angle(t2), tau
    )


def disjoint_pair(rng, d, tau_f, tau_g, conjugate_by=None):
    """Pair with disjoint axes a distance d apart and cross ratio above 1."""
    lam = math.exp(d)
    f = from_axis_and_length(BoundaryPoint.from_real(-1.0), BoundaryPoint.from_real(1.0), tau_f)
    g = from_axis_and_length(BoundaryPoint.from_real(lam), BoundaryPoint.from_real(-lam), tau_g)
    m = conjugate_by if conjugate_by is not None else random_moebius(rng)
    return conjugate(f, m), conjugate(g, m)


def crossing_pair(rng, theta, tau_f, tau_g, conjugate_by=None):
    """Pair whose axes cross at angle theta, in the interleaved ordering."""
    pa_f = BoundaryPoint.from_angle(1.5 * math.pi - 0.5 * theta)
    pb_f = BoundaryPoint.from_angle(0.5 * math.pi - 0.5 * theta)
    pa_g = BoundaryPoint.from_angle(1.5 * math.pi + 0.5 * theta)
    pb_g = BoundaryPoint.from_angle(0.5 * math.pi + 0.5 * theta)
    f = from_axis_and_length(pb_f, pa_f, tau_f)
    g = from_axis_and_length(pb_g, pa_g, tau_g)
    m = conjugate_by if conjugate_by is not None else random_moebius(rng)
    return conjugate(f, m), conjugate(g, m)


def random_admissible_family(rng, n, tau_slack=(0.5, 3.0), min_gap=0.08):
    """Family passing the assembly preconditions, with every tau above the
    upper threshold of its own cross-ratio table.

    The fixed points are drawn by rejection until every gap between them is
    at least `min_gap`.  2n uniform points on the circle have that with
    probability (1 - 2n min_gap / 2 pi)^(2n - 1); below 1e-6 the loop would
    not end in practice, so that raises ValueError instead.
    """
    from semicert import Thresholds

    chance = max(0.0, 1.0 - 2 * n * min_gap / TWO_PI) ** (2 * n - 1)
    if chance < 1e-6:
        raise ValueError(
            f"n = {n} fixed-point pairs with min_gap = {min_gap} are drawn with chance {chance:.1e}; use a smaller min_gap"
        )
    while True:
        angles = rng.uniform(0.0, TWO_PI, size=2 * n)
        angles.sort()
        gaps = np.diff(np.concatenate([angles, [angles[0] + TWO_PI]]))
        if gaps.min() < min_gap:
            continue
        order = rng.permutation(2 * n)
        pts = [BoundaryPoint.from_angle(a) for a in angles[order]]
        alphas, betas = pts[:n], pts[n:]
        if can_partition_rank_one(alphas, betas):
            continue
        table = {}
        degenerate = False
        for i in range(n):
            for j in range(i + 1, n):
                c = cross_ratio_of_points(alphas[i], betas[i], alphas[j], betas[j])
                if not math.isfinite(c) or abs(c) < 1e-6 or abs(c - 1.0) < 1e-6:
                    degenerate = True
                table[(i, j)] = c
        if degenerate:
            continue
        if not all(
            any(
                (table[tuple(sorted((i, j)))] < 0 or table[tuple(sorted((i, j)))] > 1)
                for j in range(n)
                if j != i
            )
            for i in range(n)
        ):
            continue
        upper = Thresholds.from_cross_ratios(list(table.values())).upper
        taus = upper + rng.uniform(*tau_slack, size=n)
        return [
            from_axis_and_length(betas[i], alphas[i], float(taus[i])) for i in range(n)
        ]


def brute_force_line_distance(chart1, chart2, lo=-8.0, hi=8.0):
    """Minimum distance between two lines by nested ternary search."""
    from semicert import apply_interior, hyperbolic_distance

    def point(chart, t):
        return apply_interior(chart, 1j * math.exp(t))

    def inner(s):
        a, b = lo, hi
        for _ in range(120):
            m1 = a + (b - a) / 3.0
            m2 = b - (b - a) / 3.0
            if hyperbolic_distance(point(chart1, s), point(chart2, m1)) < hyperbolic_distance(
                point(chart1, s), point(chart2, m2)
            ):
                b = m2
            else:
                a = m1
        return hyperbolic_distance(point(chart1, s), point(chart2, 0.5 * (a + b)))

    a, b = lo, hi
    for _ in range(120):
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if inner(m1) < inner(m2):
            b = m2
        else:
            a = m1
    return inner(0.5 * (a + b))


# A geodesic is either a vertical euclidean ray ("line", x0) or a euclidean
# half-circle ("circle", center, radius) orthogonal to the real axis.


def geodesic_shape(geo: Geodesic):
    u, v = geo.start, geo.end
    if is_infinity(u) or is_infinity(v):
        finite = v if is_infinity(u) else u
        return ("line", finite.value, 0.0)
    a, b = u.value, v.value
    return ("circle", 0.5 * (a + b), 0.5 * abs(a - b))


def intersect_shapes(shape1, shape2) -> complex:
    """Crossing point of two `geodesic_shape` lines in the upper half-plane."""
    kind1, a1, b1 = shape1
    kind2, a2, b2 = shape2
    if kind1 == "line" and kind2 == "line":
        raise ValueError("parallel vertical lines do not intersect")
    if kind1 == "line":
        return intersect_shapes(shape2, shape1)
    if kind2 == "line":
        c, r, x0 = a1, b1, a2
        y2 = r * r - (x0 - c) * (x0 - c)
        return complex(x0, math.sqrt(max(y2, 0.0)))
    c1, r1, c2, r2 = a1, b1, a2, b2
    x = (r2 * r2 - r1 * r1 + c1 * c1 - c2 * c2) / (2.0 * (c1 - c2))
    y2 = r1 * r1 - (x - c1) * (x - c1)
    return complex(x, math.sqrt(max(y2, 0.0)))


def tangent_at(geo, z):
    """Unit tangent direction of the half-plane geodesic `geo` at a point z on it."""
    kind, a, _ = geodesic_shape(geo)
    if kind == "line":
        return 1j
    t = 1j * complex(z.real - a, z.imag)
    return t / abs(t)


def cayley_from_disc(w):
    """Inverse of `cayley_to_disc`; unit-circle input returns a BoundaryPoint."""
    w = complex(w)
    if abs(abs(w) - 1.0) < 1e-12:
        return BoundaryPoint.from_angle(math.atan2(w.imag, w.real))
    return 1j * (1.0 + w) / (1.0 - w)


def is_infinity(p):
    """Whether the boundary point `p` is infinity, (x : 0)."""
    return p.y == 0.0


def arc_angles(arc):
    """Start, end and midpoint angles of `arc`."""
    return arc.start.angle, arc.end.angle, arc.midpoint.angle


def arcs_approx(arc, other, tol=0.0):
    """Whether both endpoints of the two arcs agree to within `tol` in angle."""
    return arc.start.approx(other.start, tol) and arc.end.approx(other.end, tol)


def strictly_inside(inner, outer, margin=0.0):
    """closure(inner) inside outer with angular clearance >= margin per endpoint.

    At margin 0 one endpoint of an inner arc may coincide with the enclosing
    endpoint, as long as the containment stays proper: that is exactly the
    situation of an invariant interval whose endpoint is a fixed point.  An
    arc equal to a whole component is never strictly inside.  The clearances
    are the verifier's, including its 1e-9 closure slack.
    """
    for arc in inner:
        found = reference_enclosing(arc_angles(arc), outer)
        if found is None or min(found) < margin:
            return False
    return True


def nested(inner, outer):
    """Whether the closure of arc `inner` lies in the closure of `outer`, to within 1e-9."""
    return reference_clearances(*arc_angles(inner), outer) is not None


def innermost_arc(point, arcs):
    """Smallest of a family of nested arcs around `point`; asserts that they nest."""
    ordered = sorted(arcs, key=lambda a: a.span)
    for inner, outer in zip(ordered, ordered[1:]):
        assert nested(inner, outer), "candidate arcs around one fixed point do not nest"
    assert contains(ordered[0], point)
    return ordered[0]


def innermost_by_building_every_pair(F, extra=0.0):
    """Reference selection: build every admissible pair, keep each generator's innermost arcs.

    Returns one (a, b) tuple per generator, from the same builders and cut
    schedule `extra` that the assembly uses.
    """
    family = Family.of(F)
    candidates = {i: [] for i in range(len(family.maps))}
    for (i, j), pg in family.pairs.items():
        if pg.kind == "crossing":
            builder = build_crossing_pair_intervals
        elif pg.kind == "disjoint" and pg.nested_attractors:
            builder = build_disjoint_pair_intervals
        else:
            continue
        try:
            pi, pj = builder(family, i, j, cut_offset=extra)
        except ThresholdNotMet:
            continue
        candidates[i].append(pi)
        candidates[j].append(pj)
    return [
        (
            innermost_arc(family.cls[i].alpha, [p.a for p in found]),
            innermost_arc(family.cls[i].beta, [p.b for p in found]),
        )
        for i, found in candidates.items()
    ]


def reference_build_pair(family, i, j, extra=0.0):
    """The pair builders' cut as it was written: a whole axis table of the family to cut one pair (i, j)."""
    table = _AxisTable(family)
    floor = _cut_floor(family, i, j)
    pairs = []
    for owner, partner in ((i, j), (j, i)):
        k, t = family.cls[owner], table.position(owner, partner)
        s = _cut_position(k.tau, floor, extra)
        a, b = table.cut(owner, t + s, k.alpha.angle), table.cut(owner, t - s, k.beta.angle)
        pairs.append(SymmetricIntervalPair(_arc_at(*a), _arc_at(*b), owner))
    return pairs[0], pairs[1]


def reference_shared_intervals(fs):
    """Reference shared-attractor construction: classifies `fs` itself.

    `fs` share one attracting point; a shared repeller is passed as the
    inverses of its members.  Returns (a_union, b_arc): a_union surrounds
    the shared point and b_arc the members' repelling points.
    """
    cls = [require_hyperbolic(f) for f in fs]
    alpha = cls[0].alpha
    assert all(alpha.approx(k.alpha) for k in cls[1:]), "attracting fixed points differ"
    for k in cls:
        if k.tau <= SHARED_ALPHA_GATE + 1e-12:
            raise ThresholdNotMet(
                f"translation length {k.tau:.6f} not above log 5 = {SHARED_ALPHA_GATE:.6f}"
            )
    to_infinity = from_boundary_triple(
        (cls[0].beta, BoundaryArc(cls[0].beta, alpha).midpoint, alpha),
        (
            BoundaryPoint.from_real(0.0),
            BoundaryPoint.from_real(1.0),
            BoundaryPoint.infinity(),
        ),
    )
    xs = [apply_boundary(to_infinity, k.beta).value for k in cls]
    lo, hi = min(xs), max(xs)
    scale = hi - lo if hi - lo > 1e-12 else 1.0
    affine = MoebiusMap.from_matrix(1.0, -lo, 0.0, scale)
    minv = inverse(compose(affine, to_infinity))
    a_union = ArcUnion([arc_image(minv, BoundaryArc.from_reals(2.5, -1.5))])
    b_arc = arc_image(minv, BoundaryArc.from_reals(-0.5, 1.5))
    for f in fs:
        found = image_clearances(f, complement(b_arc), a_union.arcs[0])
        if found is None or min(found) <= 0.0:
            raise VerificationFailed("shared-attractor intervals failed verification")
    return a_union, b_arc



def reference_rank_one_search(F):
    """Reference rank-one search: every pair of cut points, filtered and verified.

    Fixed points within ANGLE_TOL count as one.  Cut points are the shared
    points (an attracting and a repelling point in one class) and the
    midpoints of the gaps wider than ANGLE_TOL between consecutive classes;
    every ordered pair of cut points whose arc covers the attractors and
    avoids the repellers is verified, and the first with a nonnegative
    margin is returned with that margin.
    """
    family = Family.of(F)
    points = [p for k in family.cls for p in (k.alpha, k.beta)]
    merged = []  # (point, is attracting, is repelling)
    for c in greedy_cluster(points, ANGLE_TOL):
        kinds = {i % 2 for i in c}  # even indices are attracting points
        merged.append((points[c[0]], 0 in kinds, 1 in kinds))
    shared = [p for p, a, b in merged if a and b]
    alphas = [p for p, a, _ in merged if a]
    betas = [p for p, _, b in merged if b]
    if not shared and not can_partition_rank_one(alphas, betas, tol=ANGLE_TOL):
        return None
    ordered = sorted([p for p, _, _ in merged], key=lambda p: p.angle)
    mids = [
        BoundaryArc(cur, nxt).midpoint
        for cur, nxt in zip(ordered, ordered[1:] + ordered[:1])
        if ccw_gap(cur.angle, nxt.angle) > ANGLE_TOL
    ]
    candidates = sorted([*shared, *mids], key=lambda p: p.angle)
    for u in candidates:
        for v in candidates:
            if u is v:
                continue
            arc = BoundaryArc(u, v)
            if not all(contains(arc, p) or p.approx(u) or p.approx(v) for p in alphas):
                continue
            if any(contains(arc, p) for p in betas):
                continue
            achieved = schottky_margin(family.maps, ArcUnion([arc]))
            if achieved >= 0.0:
                return arc, achieved
    return None


def forced_shared_family(rng, offset):
    """One to six generators, often rank one, often with an attracting point
    forced to sit `offset` radians from another generator's repelling point.

    Attracting points are drawn in one arc and repelling points in its
    complement (or anywhere, one draw in four); with two or more generators,
    three draws in four move attracting point i to repelling point j plus
    `offset`, and half of those with three or more generators move a third
    attracting point onto i (or `offset` beyond it).
    """
    n = int(rng.integers(1, 7))
    lo, width = rng.uniform(0.0, TWO_PI), rng.uniform(0.3, 5.5)
    mode = int(rng.integers(0, 4))
    alphas = list(lo + rng.uniform(0.0, width, n))
    if mode == 3:
        betas = list(rng.uniform(0.0, TWO_PI, n))
    else:
        betas = list(lo + width + rng.uniform(0.0, TWO_PI - width, n))
    if n > 1 and mode >= 1:
        i, j = rng.choice(n, 2, replace=False)
        alphas[i] = betas[j] + offset
        if mode == 2 and n > 2:
            k = next(x for x in range(n) if x not in (i, j))
            alphas[k] = alphas[i] + rng.choice([0.0, offset])
    taus = rng.uniform(0.5, 8.0, n)
    return [
        from_axis_and_length(BoundaryPoint.from_angle(b), BoundaryPoint.from_angle(a), float(t))
        for a, b, t in zip(alphas, betas, taus)
    ]


def union_with_gaps(*bounds):
    """ArcUnion of arcs between consecutive angles (start, end, start, end, ...)."""
    points = [BoundaryPoint.from_angle(t) for t in bounds]
    return ArcUnion(BoundaryArc(s, e) for s, e in zip(points[::2], points[1::2]))


ADVERSARIAL_UNIONS = {
    "wraps-past-zero": union_with_gaps(5.9, 0.4, 1.0, 2.0, 3.0, 4.5),
    "gap-1e-9": union_with_gaps(1.0, 2.0, 2.0 + 1e-9, 3.0, 3.5, 6.0),
    "gaps-below-1e-9": union_with_gaps(0.5, 2.0, 2.0 + 1e-12, 3.0, 3.0 + 1e-14, 6.2),
    "one-component": union_with_gaps(6.0, 5.0),
}


# --- references for the fused `classify` and `_decode` -------------------------
#
# The classification and pair decoding as they were written with one helper
# per step; `tests/test_moebius_core.py` compares the library with them bit for bit.


def reference_classify(f: MoebiusMap) -> Classification:
    if max(abs(f.a - 1.0), abs(f.b), abs(f.c), abs(f.d - 1.0)) <= IDENTITY_TOL:
        return Classification(kind="identity")
    t = f.trace
    if abs(t - 2.0) <= TRACE_TOL:
        x, y = f.a - f.d, 2.0 * f.c
        fixed = BoundaryPoint.infinity() if math.hypot(x, y) < 1e-14 else BoundaryPoint.of(x, y)
        return Classification(kind="parabolic", fixed=fixed)
    if t < 2.0:
        return Classification(kind="elliptic", rotation_angle=math.acos(max(-1.0, min(1.0, t / 2.0))))
    p1, p2 = reference_hyperbolic_fixed_points(f)
    alpha, beta = (p1, p2) if reference_image_norm(f, p1) > reference_image_norm(f, p2) else (p2, p1)
    return Classification(kind="hyperbolic", alpha=alpha, beta=beta, tau=2.0 * math.acosh(t / 2.0))


def reference_hyperbolic_fixed_points(f: MoebiusMap) -> tuple[BoundaryPoint, BoundaryPoint]:
    """The roots of A z^2 + B z + C with A = c, B = d - a, C = -b; the discriminant is tr^2 - 4."""
    A, B, C = f.c, f.d - f.a, -f.b
    t2 = f.trace * f.trace
    sq = math.sqrt(max(t2 - 4.0, 0.0)) if t2 < math.inf else f.trace
    if A == 0.0:
        return BoundaryPoint.infinity(), BoundaryPoint.of(-C, B)
    q = -0.5 * (B + math.copysign(sq, B if B != 0.0 else A))
    first = BoundaryPoint.of(q, A)
    second = BoundaryPoint.of(C, q) if q != 0.0 else BoundaryPoint.of(-B, A)
    return first, second


def reference_image_norm(f: MoebiusMap, p: BoundaryPoint) -> float:
    return math.hypot(f.a * p.x + f.b * p.y, f.c * p.x + f.d * p.y)


def reference_decode(c: float, cf: Classification, cg: Classification) -> pair_geometry.PairGeometry:
    PairGeometry = pair_geometry.PairGeometry
    if math.isinf(c):
        return PairGeometry(cross_ratio=c, kind="alpha_meets_beta")
    if abs(c) <= pair_geometry.DEGENERATE_TOL:
        kind = "shared_alpha" if cf.alpha.approx(cg.alpha) else "shared_beta"
        return PairGeometry(cross_ratio=c, kind=kind)
    if abs(c - 1.0) <= pair_geometry.DEGENERATE_TOL:
        return PairGeometry(cross_ratio=c, kind="parabolic_degenerate")
    if c < 0.0:
        return PairGeometry(cross_ratio=c, kind="crossing", _theta=2.0 * math.atan(math.sqrt(-c)))
    if c < 1.0:
        d = 2.0 * math.atanh(math.sqrt(c))
        return PairGeometry(cross_ratio=c, kind="disjoint", _distance=d, nested_attractors=False)
    d = 2.0 * math.atanh(1.0 / math.sqrt(c))
    return PairGeometry(cross_ratio=c, kind="disjoint", _distance=d, nested_attractors=True)


# --- reference for the verifier's pair loop on floats ---------------------------
#
# `schottky_margin`'s loop over a union of arc objects as it was written with
# one `BoundaryPoint` per image point; `tests/test_boundary_arcs.py` compares
# the library's float loop with it bit for bit.


def reference_schottky_margin(generators, union, classes=None):
    """`schottky_margin` of a union of arc objects, each image built as points."""
    if classes is None:
        classes = [classify(f) for f in generators]
    for k in classes:
        # Components are disjoint, so only the last one starting at or before beta can hold it.
        if k.beta is not None and contains(union.arcs[bisect_right(union.starts, k.beta.angle) - 1], k.beta):
            return -math.inf
    worst = math.inf
    arc_points = [(a.start, a.end, a.midpoint) for a in union]
    for f in generators:
        for points in arc_points:
            found = reference_enclosing(reference_image_angles(f, points), union)
            if found is None:
                return -math.inf
            worst = min(worst, min(found))
    return worst


def reference_clearances(p, q, mid, outer):
    """Endpoint clearances of the arc from angle p to angle q inside `outer`, or None."""
    img = ccw_gap(p, q)
    if img >= TWO_PI - 1e-9:
        img = 0.0  # endpoints collapsed by rounding
    off = ccw_gap(p, mid)
    if off >= TWO_PI - 1e-9:
        off = 0.0  # midpoint rounded just behind the start
    if off > img + 1e-9:
        return None
    span = outer.span
    lead = ccw_gap(outer.start.angle, p)
    tail = ccw_gap(q, outer.end.angle)
    if lead > span or tail > span or abs(lead + img + tail - span) > 1e-9:
        return None
    return lead, tail


def reference_image_angles(f, points):
    """Start, end and midpoint angles of the images of an arc's `points` under f; None when one cannot be placed."""
    start, end, mid = points
    try:
        return apply_boundary(f, start).angle, apply_boundary(f, end).angle, apply_boundary(f, mid).angle
    except ValueError:
        return None


def reference_enclosing(angles, union):
    """Clearances in the component of `union` that properly contains the arc, or None.

    Components have disjoint closures, so only the one starting last at or
    before the arc's start (index -1 wraps to the last) can contain it.
    """
    if angles is None:
        return None
    found = reference_clearances(*angles, union.arcs[bisect_right(union.starts, angles[0]) - 1])
    if found is not None and found[0] + found[1] > 0.0:
        return found
    return None


def arc_around(point, arcs, hull=False):
    """`boundary_arcs._around` of a point and arcs given as objects: the intersection around the point, or the hull."""
    return _arc_at(*_around(point.angle, [(a.start.angle, a.end.angle) for a in arcs], hull))


# --- references for the list assembly on floats ---------------------------------
#
# The cut, the intersections and hulls around a point, the list branch of
# `_assemble_once` and the writer of a system's pairs as they were written
# with `BoundaryPoint`, `BoundaryArc` and `MoebiusMap` objects;
# `tests/test_float_assembly.py` compares the library's float code with them
# bit for bit, errors included.


def reference_axis_position(to_axis, partner):
    """Log-height on the owner's axis of the partner's foot or crossing point; `to_axis` is the map that inverts the owner's chart."""
    u = apply_boundary(to_axis, partner.alpha).value
    v = apply_boundary(to_axis, partner.beta).value
    return 0.5 * (math.log(abs(u)) + math.log(abs(v)))


def reference_cut(chart, height, around):
    """The arc around the point `around` cut off at log-height `height` on the axis that the map `chart` sends 0 -> inf to."""
    e = math.exp(height)
    try:
        return reference_arc_between(*(apply_boundary(chart, BoundaryPoint.from_real(v)) for v in (-e, e)), around)
    except ValueError as exc:
        raise VerificationFailed(f"cut arcs fell below float angular resolution: {exc}")


def reference_arc_between(p, q, containing):
    """The one of the two arcs with endpoints {p, q} that contains `containing`."""
    arc = BoundaryArc(p, q)
    if contains(arc, containing):
        return arc
    arc = BoundaryArc(q, p)
    if not contains(arc, containing):
        raise ValueError("reference point lies on the arc boundary")
    return arc


def reference_intersect_around(point, arcs):
    """Largest arc around `point` inside each of `arcs` (each must contain the point)."""
    lead, tail = reference_reach(point, arcs, min)
    if lead <= 0.0 or tail <= 0.0:
        raise VerificationFailed("intersection around fixed point is empty")
    return BoundaryArc.from_angles(point.angle - lead, point.angle + tail)


def reference_hull_around(point, arcs):
    """Smallest arc around `point` holding each of `arcs` (each must contain the point)."""
    lead, tail = reference_reach(point, arcs, max)
    if lead + tail >= TWO_PI:
        raise VerificationFailed("hull around fixed point covers the whole circle")
    return BoundaryArc.from_angles(point.angle - lead, point.angle + tail)


def reference_reach(point, arcs, pick):
    """`pick` of the clearances behind and ahead of `point` to the ends of `arcs`."""
    lead = pick(ccw_gap(a.start.angle, point.angle) for a in arcs)
    tail = pick(ccw_gap(point.angle, a.end.angle) for a in arcs)
    return lead, tail


def reference_assemble_once(family, table, margin, extra):
    """One cut schedule of a family with the pair table as a list, on objects; the system holds its pairs' arcs."""
    maps, cls = family.maps, family.cls
    n = len(maps)
    pairs = []
    for i, heights in enumerate(table.innermost(extra)):
        if heights is None:
            raise _no_partner(i)
        top, bottom = heights
        chart = MoebiusMap(*table.charts[i][0])
        a, b = reference_cut(chart, top, cls[i].alpha), reference_cut(chart, bottom, cls[i].beta)
        pairs.append(SymmetricIntervalPair(a, b, i))
    groups = reference_shared_groups(family)
    alpha_extra = {i: [] for i in range(n)}
    for group in groups:
        for i in group.members:
            alpha_extra[i].append(group.near if group.kind == "alpha" else group.far)
    final_a = []
    for i in range(n):
        final_a.append(reference_intersect_around(cls[i].alpha, [pairs[i].a, *alpha_extra[i]]))
    components = []
    for members in family.alpha_classes:
        point = cls[members[0]].alpha
        components.append(reference_hull_around(point, [final_a[i] for i in members]))
    union = ArcUnion(components)
    achieved = _checked_margin(schottky_margin(maps, union, cls), margin)
    return GlobalIntervalSystem(tuple(pairs), groups, union, eq_constant(family.cross_ratios, family.kinds), achieved, table.notes)


def reference_system_to_dict(system):
    """The `union` and `pairs` entries of a certificate, written off the system's arc objects."""
    pairs = [{"owner": p.owner, "a": arc_to_dict(p.a), "b": arc_to_dict(p.b)} for p in system.pairs]
    return union_to_dict(system.union), pairs


# --- references for the charts and shared groups on floats ----------------------
#
# The map of two boundary triples, the axis charts, the shared-fixed-point groups and the image of an arc as they were
# written with `Geodesic`, `MoebiusMap` and `BoundaryPoint` objects;
# `tests/test_float_groups.py` compares the library's float code with them
# bit for bit, errors included.


def from_boundary_triple(src, dst):
    """The map sending one ordered boundary triple of points to another with the same cyclic orientation."""
    s = chart_to_zero_one_inf(*src)
    t = chart_to_zero_one_inf(*dst)
    ti = (t[3], -t[1], -t[2], t[0])
    raw = (
        ti[0] * s[0] + ti[1] * s[2],
        ti[0] * s[1] + ti[1] * s[3],
        ti[2] * s[0] + ti[3] * s[2],
        ti[2] * s[1] + ti[3] * s[3],
    )
    try:
        return MoebiusMap.from_matrix(*raw)
    except NonPositiveDeterminant as exc:
        raise ValueError("boundary triples have opposite cyclic orientations") from exc


def chart_to_zero_one_inf(p, q, r):
    # z -> (z ^ p)(q ^ r) / ((z ^ r)(q ^ p)) with ^ the homogeneous wedge.
    qr = q.x * r.y - q.y * r.x
    qp = q.x * p.y - q.y * p.x
    if qr == 0.0 or qp == 0.0:
        raise CoincidentEndpoints("triple contains coincident points")
    return (qr * p.y, -qr * p.x, qp * r.y, -qp * r.x)


def reference_chart_entries(k):
    """The entries of the `axis_chart` of the map classified as `k`, and of its inverse, through the objects."""
    chart = axis_chart(Geodesic(k.beta, k.alpha))
    to_axis = inverse(chart)
    return (chart.a, chart.b, chart.c, chart.d), (to_axis.a, to_axis.b, to_axis.c, to_axis.d)


def arc_image(f, arc):
    """The ccw arc between the endpoint images of `arc` under f, checked on the midpoint's image, through point objects."""
    try:
        start, end, mid = (apply_boundary(f, p) for p in (arc.start, arc.end, arc.midpoint))
    except ValueError as exc:
        raise VerificationFailed(f"image point cannot be placed: {exc}") from exc
    if start.angular_distance(end) > 0.0:
        image = BoundaryArc(start, end)
        if contains(image, mid):
            return image
    raise VerificationFailed("image arc is below float angular resolution")


def reference_shared_group(family, kind, members):
    """One shared-fixed-point group of `family`, cut through map objects, and built from its arcs' floats."""
    attracting = kind == "alpha"
    for i in members:
        tau = family.cls[i].tau
        if tau <= SHARED_ALPHA_GATE + 1e-12:
            raise ThresholdNotMet(
                f"shared {'attracting' if attracting else 'repelling'} point at {list(members)}: "
                f"translation length {tau:.6f} not above log 5 = {SHARED_ALPHA_GATE:.6f}"
            )
    ends = [(k.alpha, k.beta) if attracting else (k.beta, k.alpha) for k in (family.cls[i] for i in members)]
    shared, first = ends[0]
    to_infinity = from_boundary_triple(
        (first, BoundaryArc(first, shared).midpoint, shared),
        (BoundaryPoint.from_real(0.0), BoundaryPoint.from_real(1.0), BoundaryPoint.infinity()),
    )
    xs = [apply_boundary(to_infinity, other).value for _, other in ends]
    lo, hi = min(xs), max(xs)
    scale = hi - lo if hi - lo > 1e-12 else 1.0
    back = inverse(compose(MoebiusMap.from_matrix(1.0, -lo, 0.0, scale), to_infinity))
    near = arc_image(back, BoundaryArc.from_reals(2.5, -1.5))
    far = arc_image(back, BoundaryArc.from_reals(-0.5, 1.5))
    return SharedFixedPointGroup(kind, members, tuple(tuple((p.x, p.y, p.angle) for p in (a.start, a.end)) for a in (near, far)))


def reference_shared_groups(family):
    """`build_shared_alpha_intervals` through `reference_shared_group`: attracting classes, then repelling ones."""
    groups = []
    for kind, classes in (("alpha", family.alpha_classes), ("beta", family.beta_classes)):
        for members in classes:
            if len(members) > 1:
                groups.append(reference_shared_group(family, kind, members))
    return tuple(groups)
