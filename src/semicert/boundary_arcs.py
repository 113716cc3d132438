"""Arcs on the circle at infinity, their images, and every cyclic-order decision.

All arc arithmetic happens in disc-model angle coordinates so that infinity
needs no special casing.  An arc is the open set swept counterclockwise from
its start point to its end point.  This is the only module that does
arithmetic on circle order: strict membership (`contains`), one arc-in-arc
clearance routine behind the verifier and every containment check, greedy
clustering of nearby points, the rank-one candidate arcs, and arcs around a point.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import AxesDoNotCross, OverlappingArcs, VerificationFailed
from .moebius_core import TWO_PI, BoundaryPoint, Classification, FrozenValue, MoebiusMap, apply_boundary, classify

# Verification margin below which a certificate is not trusted.
DEFAULT_MARGIN = 1e-7


class BoundaryArc(FrozenValue):
    """Open arc from `start` counterclockwise to `end` (never the full circle).

    A slotted class, not a frozen dataclass, for the same reason as
    `BoundaryPoint`: the verifier and the assembly build arcs in bulk.
    """

    __slots__ = ("start", "end")
    _fields = ("start", "end")
    _key = attrgetter(*_fields)

    def __init__(self, start: BoundaryPoint, end: BoundaryPoint):
        # Angles lie in [0, 2*pi): equal angles are zero angular distance.
        if start.angle == end.angle:
            raise ValueError("arc endpoints coincide")
        _arc_start(self, start)
        _arc_end(self, end)

    @staticmethod
    def from_reals(start: float, end: float) -> "BoundaryArc":
        return BoundaryArc(BoundaryPoint.from_real(start), BoundaryPoint.from_real(end))

    @staticmethod
    def from_angles(start: float, end: float) -> "BoundaryArc":
        return BoundaryArc(BoundaryPoint.from_angle(start), BoundaryPoint.from_angle(end))

    @property
    def span(self) -> float:
        return (self.end.angle - self.start.angle) % TWO_PI

    @property
    def midpoint(self) -> BoundaryPoint:
        return BoundaryPoint.from_angle(self.start.angle + 0.5 * self.span)


_arc_start = BoundaryArc.start.__set__
_arc_end = BoundaryArc.end.__set__


def ccw_gap(from_angle: float, to_angle: float) -> float:
    """Counterclockwise angular distance in [0, 2*pi)."""
    return (to_angle - from_angle) % TWO_PI


def contains(arc: BoundaryArc, p: BoundaryPoint) -> bool:
    """Strict membership in the open arc."""
    offset = ccw_gap(arc.start.angle, p.angle)
    return 0.0 < offset < arc.span


def arc_image(f: MoebiusMap, arc: BoundaryArc) -> BoundaryArc:
    """The ccw arc between the endpoint images, checked on the midpoint's image.

    An image thinner than float angular resolution (endpoint images equal,
    or rounded out of order) or not placeable raises VerificationFailed.
    """
    try:
        start, end, mid = (apply_boundary(f, p) for p in (arc.start, arc.end, arc.midpoint))
    except ValueError as exc:
        raise VerificationFailed(f"image point cannot be placed: {exc}") from exc
    if start.angular_distance(end) > 0.0:
        image = BoundaryArc(start, end)
        if contains(image, mid):
            return image
    raise VerificationFailed("image arc is below float angular resolution")


def complement(arc: BoundaryArc) -> BoundaryArc:
    """Open arc from end to start; together they miss only the two endpoints."""
    return BoundaryArc(arc.end, arc.start)


def arc_between(p: BoundaryPoint, q: BoundaryPoint, containing: BoundaryPoint) -> BoundaryArc:
    """The one of the two arcs with endpoints {p, q} that contains `containing`."""
    arc = BoundaryArc(p, q)
    if contains(arc, containing):
        return arc
    arc = BoundaryArc(q, p)
    if not contains(arc, containing):
        raise ValueError("reference point lies on the arc boundary")
    return arc


class ArcUnion:
    """Finite union of open arcs with pairwise disjoint closures.

    Arcs are kept sorted by start angle, and `starts` holds those angles for
    bisection; arcs whose closures meet are rejected rather than merged, and
    the assembly answers that rejection with deeper cuts.
    """

    __slots__ = ("arcs", "starts")

    def __init__(self, arcs: Iterable[BoundaryArc]):
        ordered = sorted(arcs, key=lambda a: a.start.angle)
        if not ordered:
            raise ValueError("arc union must contain at least one arc")
        if len(ordered) > 1:
            for cur, nxt in zip(ordered, ordered[1:] + ordered[:1]):
                # The closure of `cur` must end strictly before `nxt` begins.
                if ccw_gap(cur.start.angle, nxt.start.angle) <= cur.span:
                    raise OverlappingArcs(
                        f"arc closures intersect near angle {cur.end.angle:.6f}"
                    )
        self.arcs = tuple(ordered)
        self.starts = [a.start.angle for a in ordered]

    def __iter__(self):
        return iter(self.arcs)

    def __len__(self) -> int:
        return len(self.arcs)


def _clearances(p: float, q: float, mid: float, outer: BoundaryArc) -> tuple[float, float] | None:
    """Endpoint clearances of the arc from angle p to angle q inside `outer`.

    Works on endpoint angles directly, so arcs contracted below float
    angular resolution (endpoints rounding to one point) are still checked;
    the angle `mid` of a point inside the arc guards against mistaking a
    wrapped arc for a tiny one.  Returns None when the arc is not contained
    in `outer`.
    """
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


def _image_angles(
    f: MoebiusMap, points: tuple[BoundaryPoint, BoundaryPoint, BoundaryPoint]
) -> tuple[float, float, float] | None:
    """Start, end and midpoint angles of the images of an arc's `points` under f.

    None when an image cannot be placed: a map with huge entries can send a
    point to a pair whose coordinates both round to zero.
    """
    start, end, mid = points
    try:
        return apply_boundary(f, start).angle, apply_boundary(f, end).angle, apply_boundary(f, mid).angle
    except ValueError:
        return None


def _enclosing(angles: tuple[float, float, float] | None, union: ArcUnion) -> tuple[float, float] | None:
    """Clearances in the component of `union` that properly contains the arc, or None.

    Components have disjoint closures, so only the one starting last at or
    before the arc's start (index -1 wraps to the last) can contain it.
    """
    if angles is None:
        return None
    found = _clearances(*angles, union.arcs[bisect_right(union.starts, angles[0]) - 1])
    if found is not None and found[0] + found[1] > 0.0:
        return found
    return None


def image_clearances(
    f: MoebiusMap, arc: BoundaryArc, outer: BoundaryArc
) -> tuple[float, float] | None:
    """Endpoint clearances of the image of `arc` under f inside `outer`, or None."""
    angles = _image_angles(f, (arc.start, arc.end, arc.midpoint))
    return None if angles is None else _clearances(*angles, outer)


def verify_schottky(
    generators: Sequence[MoebiusMap], union: ArcUnion, margin: float = DEFAULT_MARGIN
) -> bool:
    """Check that every generator maps every arc of the union strictly inside it.

    This is the final, construction-independent certificate check: it looks
    only at the generators' repelling points, endpoint images and angular
    clearances.
    """
    return schottky_margin(generators, union) >= margin


# The screen's error bound: array angles differ from the scalar ones by a
# few ulps of 2*pi (about 1e-15 rad), and derived gaps by a few times that.
SCREEN_TOL = 1e-12
# Generators times union components from which the screen pays for itself.
# One call on assembled families (about n components for n generators),
# scalar against screened: 120 vs 170 us at n*k = 16, 160 vs 160 us at 25,
# 230 vs 180 us at 36, 530 vs 230 us at 64, 9.4 vs 1.0 ms at 1,024.
SCREEN_MIN_PAIRS = 32


def schottky_margin(
    generators: Sequence[MoebiusMap], union: ArcUnion, classes: Sequence[Classification] | None = None
) -> float:
    """Smallest endpoint clearance over all generator images; -inf on failure,
    which includes an image that cannot be placed (it is never guessed).

    It is also -inf when a hyperbolic generator f repels from a point inside
    an arc A of the union.  f fixes that point, so f(A) holds it and could
    only lie in A, the one component holding it; but a closed arc that f
    maps into its own interior holds an attracting fixed point of f and no
    repelling one.  The endpoint images alone cannot see this: such an image
    covers all of the circle but a sliver, and its three sample points can
    land in the sliver.  `classes` are the generators' classifications,
    when the caller holds them; otherwise they are classified here.

    Every pair of generator and union arc is decided by the scalar
    `_enclosing` check, or screened out by :func:`_screen` once there are
    SCREEN_MIN_PAIRS = 32 pairs or more, where the screen was measured to
    start paying for itself.  The screen maps every arc's start, end
    and midpoint by every generator at once in numpy and replays the check
    on those angles.  It leaves to the scalar check every pair with a
    decision within SCREEN_TOL = 1e-12 rad of its threshold, every pair it
    finds not contained, and every pair whose clearance is within SCREEN_TOL
    of the least one.  Its angles are within about 1e-15 rad of the scalar
    ones, so a screened-out pair is contained in scalar too, with a
    clearance above the minimum.  The result, -inf or the scalar clearance
    of the minimising pair, is therefore bit-identical to the all-scalar
    loop.  On n = 32 assembled unions the scalar check runs on about 3% of
    the pairs: the images of one strongly contracting generator, whose
    clearances agree to the last few ulps.
    """
    for k in classes if classes is not None else map(classify, generators):
        # Components are disjoint, so only the last one starting at or before beta can hold it.
        if k.beta is not None and contains(union.arcs[bisect_right(union.starts, k.beta.angle) - 1], k.beta):
            return -math.inf
    worst = math.inf
    arc_points = [(a.start, a.end, a.midpoint) for a in union]
    if len(generators) * len(union) < SCREEN_MIN_PAIRS:
        candidates = [(i, k) for i in range(len(generators)) for k in range(len(arc_points))]
    else:
        candidates = _screen(generators, union, arc_points)
    for i, k in candidates:
        found = _enclosing(_image_angles(generators[i], arc_points[k]), union)
        if found is None:
            return -math.inf
        worst = min(worst, min(found))
    return worst


@np.errstate(all="ignore")  # images that overflow or vanish are left to the scalar check
def _screen(
    generators: Sequence[MoebiusMap], union: ArcUnion, arc_points: list[tuple[BoundaryPoint, ...]]
) -> list[tuple[int, int]]:
    """The (generator, arc) pairs, in order, that the scalar check must decide.

    Replays `_image_angles`, `_enclosing` and `_clearances` on arrays of
    shape (generators, arcs).  Returns a pair when an image point is not
    safely placeable, when a decision lies within SCREEN_TOL of its
    threshold (a collapse guard, a 1e-9 slack, a clearance against the
    span), when the screen finds it not contained, or when its clearance is
    within SCREEN_TOL of the least screened one.  That covers the other
    decisions too.  An image start near a component start (the choice of
    component, or `lead` wrapping from 2*pi to 0) or an image end near a
    component end gives a clearance within SCREEN_TOL of 0, so near the
    least; near the next component's start, `lead` exceeds the span or
    comes within SCREEN_TOL of it.
    """
    maps = np.array([(f.a, f.b, f.c, f.d) for f in generators]).T[:, :, None, None]
    pts = np.array([[(p.x, p.y) for p in points] for points in arc_points]).transpose(2, 0, 1)[:, None]
    angle, placed = _array_images(maps, pts)
    p = angle[..., 0]
    starts = np.array(union.starts)
    ends = np.array([a.end.angle for a in union])
    spans = np.array([a.span for a in union])
    comp = np.searchsorted(starts, p, side="right") - 1
    lead, tail, inside, near = _array_clearances(angle, starts[comp], ends[comp], spans[comp])
    near |= ~placed
    inside &= lead + tail > 0.0
    clear = np.where(inside & ~near, np.minimum(lead, tail), np.inf)
    pick = near | ~inside | (clear <= clear.min() + SCREEN_TOL)
    return list(zip(*(axis.tolist() for axis in np.nonzero(pick))))


def _array_images(maps: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles of the images of homogeneous points, and where all of a row's three are placeable.

    `maps` holds the entries a, b, c, d on its first axis and `pts` the
    coordinates x, y; the two broadcast to angles of shape (..., 3).
    """
    x = maps[0] * pts[0] + maps[1] * pts[1]
    y = maps[2] * pts[0] + maps[3] * pts[1]
    norm = np.hypot(x, y)  # far from 0 and inf, the scalar check places the image too
    placed = ((norm > 1e-290) & (norm < 1e290)).all(axis=-1)
    flip = (y < 0.0) | ((y == 0.0) & (x < 0.0))
    angle = (-2.0 * np.arctan2(np.where(flip, -y, y), np.where(flip, -x, x))) % TWO_PI
    return angle, placed


def _array_clearances(angle: np.ndarray, start, end, span) -> tuple[np.ndarray, ...]:
    """`_clearances` on arrays: lead, tail, contained, and near a decision.

    `angle` holds the image start, end and midpoint angles on its last axis;
    `start`, `end` and `span` describe the outer arc.  Near means within
    SCREEN_TOL of a collapse guard, a 1e-9 slack or a clearance against the
    span.
    """
    tol = SCREEN_TOL
    p, q, mid = angle[..., 0], angle[..., 1], angle[..., 2]
    img = (q - p) % TWO_PI
    off = (mid - p) % TWO_PI
    near = (np.abs(img - (TWO_PI - 1e-9)) <= tol) | (np.abs(off - (TWO_PI - 1e-9)) <= tol)
    img = np.where(img >= TWO_PI - 1e-9, 0.0, img)
    off = np.where(off >= TWO_PI - 1e-9, 0.0, off)
    lead = (p - start) % TWO_PI
    tail = (end - q) % TWO_PI
    rest = np.abs(lead + img + tail - span)
    near |= (np.abs(off - img - 1e-9) <= tol) | (np.abs(rest - 1e-9) <= tol)
    near |= (np.abs(lead - span) <= tol) | (np.abs(tail - span) <= tol)
    inside = (off <= img + 1e-9) & (lead <= span) & (tail <= span) & (rest <= 1e-9)
    return lead, tail, inside, near


# --- points and arcs around them -----------------------------------------------


# Points from which the distance matrix beats the pairwise loop, on the fixed
# points of the benchmark's families: loop vs matrix 13 vs 18 us at 6 points,
# 23 vs 22 us at 10, 54 vs 24 us at 12, 1.6 vs 0.15 ms at 64.
CLUSTER_MIN_POINTS = 12


def cluster(points: Sequence[BoundaryPoint], tol: float) -> list[list[int]]:
    """Greedy index classes: each point joins the first class whose first point is within tol.

    From CLUSTER_MIN_POINTS points on, the distances come from one numpy
    matrix; it uses only subtraction, abs and %, so it matches
    `BoundaryPoint.angular_distance` bit for bit.
    """
    if len(points) < CLUSTER_MIN_POINTS:
        classes: list[list[int]] = []
        for idx, p in enumerate(points):
            for members in classes:
                if points[members[0]].angular_distance(p) <= tol:
                    members.append(idx)
                    break
            else:
                classes.append([idx])
        return classes
    angles = np.fromiter((p.angle for p in points), dtype=float, count=len(points))
    gap = np.abs(angles[:, None] - angles) % TWO_PI
    later, earlier = np.nonzero(np.minimum(gap, TWO_PI - gap) <= tol)
    head = list(range(len(points)))
    # Row by row with ascending columns: the first earlier point that heads a class.
    for i, j in zip(later.tolist(), earlier.tolist()):
        if j < head[i] and head[j] == j:
            head[i] = j
    heads: dict[int, list[int]] = {}
    for idx, h in enumerate(head):
        heads.setdefault(h, []).append(idx)
    return list(heads.values())


def can_partition_rank_one(
    alphas: Sequence[BoundaryPoint], betas: Sequence[BoundaryPoint], tol: float = 1e-12
) -> bool:
    """Whether two complementary arcs separate the alphas from the betas.

    Points are deduplicated per side; a point appearing on both sides makes
    separation impossible by convention and yields False.  That test reads
    only the repelling heads whose angle lies within tol (and a rounding
    slack) of an attracting head's, found by bisection, across angle 0 too.
    """
    if not alphas or not betas:
        raise ValueError("both point lists must be nonempty")
    a_pts = [alphas[c[0]] for c in cluster(alphas, tol)]
    b_pts = sorted((betas[c[0]] for c in cluster(betas, tol)), key=lambda q: q.angle)
    b_angles = [q.angle for q in b_pts]
    reach = tol + 1e-12  # beyond any rounding of an angle difference below 2*pi
    for p in a_pts:
        for centre in (p.angle - TWO_PI, p.angle, p.angle + TWO_PI):
            for q in b_pts[bisect_left(b_angles, centre - reach) : bisect_right(b_angles, centre + reach)]:
                if p.angular_distance(q) <= tol:
                    return False
    labeled = sorted(
        [(p.angle, 0) for p in a_pts] + [(q.angle, 1) for q in b_pts], key=lambda t: t[0]
    )
    changes = sum(1 for cur, nxt in zip(labeled, labeled[1:] + labeled[:1]) if cur[1] != nxt[1])
    return changes == 2


def rank_one_arcs(points: Sequence[BoundaryPoint], classes: list[list[int]]) -> tuple[BoundaryArc, ...]:
    """The arcs that can be one interval every generator maps inside itself.

    Reads the :func:`cluster` classes of the fixed points (alpha_i at 2i,
    beta_i at 2i + 1).  An arc qualifies when its open interior holds exactly
    the attracting-only classes and each shared class is one of its ends; the
    other ends are midpoints of the gaps next to the attracting run.  Returns
    a tuple sorted by start, then end angle.
    """
    classes = sorted(classes, key=lambda c: points[c[0]].angle)
    reps, m = [points[c[0]] for c in classes], len(classes)
    kinds = [{i % 2 for i in c} for c in classes]  # 0: attracting, 1: repelling
    shared = {k for k, kind in enumerate(kinds) if len(kind) == 2}
    attracting = [k for k, kind in enumerate(kinds) if kind == {0}]
    runs = [k for k in attracting if kinds[k - 1] != {0}]
    if m < 2 or len(runs) > 1 or len(shared) > 2:
        return ()
    gaps = [BoundaryArc(reps[k - 1], reps[k]).midpoint for k in range(m)]
    arcs = []
    for k in runs or range(m):  # an empty attracting run may sit in any gap
        prev, nxt = (k - 1) % m, (k + len(attracting)) % m
        starts = [(gaps[k], None)] + [(reps[prev], prev)] * (prev in shared)
        ends = [(gaps[nxt], None)] + [(reps[nxt], nxt)] * (nxt in shared)
        arcs += [BoundaryArc(u, v) for u, i in starts for v, j in ends if u != v and shared <= {i, j}]
    return tuple(sorted(arcs, key=lambda a: (a.start.angle, a.end.angle)))


def repeller_free_arc(ci: Classification, cj: Classification) -> BoundaryArc:
    """The attractor-to-attractor arc of two maps that holds neither repelling point.

    Tries alpha_i -> alpha_j first, then alpha_j -> alpha_i; when both hold
    a repeller the fixed points do not interleave.
    """
    for start, end in ((ci.alpha, cj.alpha), (cj.alpha, ci.alpha)):
        arc = BoundaryArc(start, end)
        if not contains(arc, ci.beta) and not contains(arc, cj.beta):
            return arc
    raise AxesDoNotCross("fixed points do not interleave")


def intersect_around(point: BoundaryPoint, arcs: Sequence[BoundaryArc]) -> BoundaryArc:
    """Largest arc around `point` inside each of `arcs` (each must contain the point)."""
    lead, tail = _reach(point, arcs, min)
    if lead <= 0.0 or tail <= 0.0:
        raise VerificationFailed("intersection around fixed point is empty")
    return BoundaryArc.from_angles(point.angle - lead, point.angle + tail)


def hull_around(point: BoundaryPoint, arcs: Sequence[BoundaryArc]) -> BoundaryArc:
    """Smallest arc around `point` holding each of `arcs` (each must contain the point)."""
    lead, tail = _reach(point, arcs, max)
    if lead + tail >= TWO_PI:
        raise VerificationFailed("hull around fixed point covers the whole circle")
    return BoundaryArc.from_angles(point.angle - lead, point.angle + tail)


def _reach(point: BoundaryPoint, arcs: Sequence[BoundaryArc], pick) -> tuple[float, float]:
    """`pick` of the clearances behind and ahead of `point` to the ends of `arcs`."""
    lead = pick(ccw_gap(a.start.angle, point.angle) for a in arcs)
    tail = pick(ccw_gap(point.angle, a.end.angle) for a in arcs)
    return lead, tail
