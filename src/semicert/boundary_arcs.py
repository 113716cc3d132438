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
from functools import cache
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import AxesDoNotCross, OverlappingArcs, VerificationFailed
from .moebius_core import (
    TWO_PI,
    BoundaryPoint,
    Classification,
    FrozenValue,
    MoebiusMap,
    _apply_pairs,
    angle_pairs,
    apply_boundary,
    boundary_angles,
    classify,
    points_of,
)

# Verification margin below which a certificate is not trusted.
DEFAULT_MARGIN = 1e-7

# Canonical x, y and angle arrays of boundary points: the array form of a
# sequence of `BoundaryPoint`s (see the kernel in `moebius_core`).
PointArrays = tuple[np.ndarray, np.ndarray, np.ndarray]

# Messages that the scalar and the array forms raise alike.
_COINCIDENT_ENDS = "arc endpoints coincide"
_EMPTY_UNION = "arc union must contain at least one arc"
_EMPTY_INTERSECTION = "intersection around fixed point is empty"
_WHOLE_CIRCLE_HULL = "hull around fixed point covers the whole circle"


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
            raise ValueError(_COINCIDENT_ENDS)
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


def arcs_of(start: PointArrays, end: PointArrays) -> list[BoundaryArc]:
    """The arcs from start[k] to end[k], their points built once from the arrays."""
    return list(map(BoundaryArc, points_of(*start), points_of(*end)))


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


def arcs_between(p: np.ndarray, q: np.ndarray, containing: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`arc_between` on angle arrays: whether each arc runs from p (else from q), and where it exists.

    Membership is decided with the arithmetic of :func:`contains`.  An arc
    does not exist where `arc_between` raises ValueError.
    """
    offset, span, back, back_span = np.array([containing - p, q - p, containing - q, p - q]) % TWO_PI
    forward = (0.0 < offset) & (offset < span)
    return forward, (p != q) & (forward | ((0.0 < back) & (back < back_span)))


class ArcUnion:
    """Finite union of open arcs with pairwise disjoint closures.

    Arcs are kept sorted by start angle, and `starts` holds those angles for
    bisection; arcs whose closures meet are rejected rather than merged, and
    the assembly answers that rejection with deeper cuts.  :func:`schottky_margin`
    decides a union of arc objects pair by pair, and screens a union built
    by :meth:`of_arrays`, which holds its arcs as the kernel's arrays and
    builds the arc objects on first use of `arcs`.
    """

    __slots__ = ("_arcs", "_arrays", "starts")

    def __init__(self, arcs: Iterable[BoundaryArc]):
        ordered = sorted(arcs, key=lambda a: a.start.angle)
        if not ordered:
            raise ValueError(_EMPTY_UNION)
        if len(ordered) > 1:
            for cur, nxt in zip(ordered, ordered[1:] + ordered[:1]):
                # The closure of `cur` must end strictly before `nxt` begins.
                if ccw_gap(cur.start.angle, nxt.start.angle) <= cur.span:
                    raise _overlapping(cur.end.angle)
        self._arcs = tuple(ordered)
        self._arrays: tuple[PointArrays, PointArrays] | None = None
        self.starts = [a.start.angle for a in ordered]

    @staticmethod
    def of_arrays(start: PointArrays, end: PointArrays) -> "ArcUnion":
        """The union of the arcs start[k] -> end[k], checked and sorted as the constructor does."""
        if not len(start[2]):
            raise ValueError(_EMPTY_UNION)
        if np.count_nonzero(start[2] == end[2]):
            raise ValueError(_COINCIDENT_ENDS)
        order = start[2].argsort(kind="stable")
        ends = np.array([*start, *end])[:, order]
        start, end = ends[:3], ends[3:]
        if len(order) > 1:
            starts = start[2]
            overlap = (np.concatenate([starts[1:], starts[:1]]) - starts) % TWO_PI <= (end[2] - starts) % TWO_PI
            if np.count_nonzero(overlap):
                raise _overlapping(float(end[2][np.argmax(overlap)]))
        union = object.__new__(ArcUnion)
        union._arcs, union._arrays, union.starts = None, (start, end), start[2].tolist()
        return union

    @property
    def arcs(self) -> tuple[BoundaryArc, ...]:
        if self._arcs is None:
            self._arcs = tuple(arcs_of(*self._arrays))
        return self._arcs

    def arrays(self) -> tuple[PointArrays, PointArrays] | None:
        """The start and end points of the arcs of a union built by :meth:`of_arrays`, else None."""
        return self._arrays

    def __iter__(self):
        return iter(self.arcs)

    def __len__(self) -> int:
        return len(self.starts)


def _overlapping(end_angle: float) -> OverlappingArcs:
    return OverlappingArcs(f"arc closures intersect near angle {end_angle:.6f}")


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

    The union's form picks the path.  A union of arc objects (the scalar
    assembly's, the rank-one search's) is decided pair by pair by the scalar
    `_enclosing` check; one of :meth:`ArcUnion.of_arrays` (the array
    assembly's) by :func:`_screened_margin`, with the same result, building no arc.
    """
    if classes is None:
        classes = [classify(f) for f in generators]
    arrays = union.arrays()
    if arrays is not None:
        return _screened_margin(generators, classes, *arrays)
    for k in classes:
        # Components are disjoint, so only the last one starting at or before beta can hold it.
        if k.beta is not None and contains(union.arcs[bisect_right(union.starts, k.beta.angle) - 1], k.beta):
            return -math.inf
    worst = math.inf
    arc_points = [(a.start, a.end, a.midpoint) for a in union]
    for f in generators:
        for points in arc_points:
            found = _enclosing(_image_angles(f, points), union)
            if found is None:
                return -math.inf
            worst = min(worst, min(found))
    return worst


@np.errstate(all="ignore")  # images that overflow or vanish are not placed
def _screened_margin(
    generators: Sequence[MoebiusMap], classes: Sequence[Classification], start: PointArrays, end: PointArrays
) -> float:
    """:func:`schottky_margin` on arrays, bit for bit, with the pairs to decide narrowed by :func:`_screen`.

    The repelling points are checked on the arcs' angles with the arithmetic
    of :func:`contains`.  The arcs' midpoints and the images of the pairs
    that the screen leaves are computed with the kernel of `moebius_core`,
    and decided by `_array_clearances`, whose arithmetic is that of
    `_clearances` (its remainders by :func:`_wrap_turn` are `%` bit for bit,
    since the kernel's angles and the arcs' lie in [0, 2*pi)): each pair is
    decided as in the scalar loop.  A pair the
    screen leaves out is contained in scalar too, with a clearance above the
    least, so the result, -inf or the clearance of the minimising pair, is
    the scalar one bit for bit.  On n = 32 assembled unions the screen
    leaves about 3% of the pairs: the images of one strongly contracting
    generator, whose clearances agree to the last few ulps.
    """
    maps, pts, starts, ends, spans = _screen_inputs(generators, start, end)
    betas = np.array([k.beta.angle for k in classes if k.beta is not None], dtype=float)
    comp = starts.searchsorted(betas, side="right") - 1
    offset = (betas - starts[comp]) % TWO_PI  # as in `contains`
    if np.count_nonzero((0.0 < offset) & (offset < spans[comp])):
        return -math.inf
    rows, cols = _screen(maps, pts, starts, ends, spans)
    x, y, placed = _apply_pairs(maps[:, rows, None], *pts[:, cols])
    angle = boundary_angles(x, y)
    comp = starts.searchsorted(angle[:, 0], side="right") - 1
    lead, tail, inside = _array_clearances(angle, starts[comp], ends[comp], spans[comp])
    if not (placed.all(axis=-1) & inside & (lead + tail > 0.0)).all():
        return -math.inf
    return float(np.minimum(lead, tail).min())


def _screen_inputs(generators: Sequence[MoebiusMap], start: PointArrays, end: PointArrays) -> tuple[np.ndarray, ...]:
    """What :func:`_screen` reads: the generators' entries, the arcs' points and their start and end angles and spans."""
    spans = (end[2] - start[2]) % TWO_PI
    mid = angle_pairs(start[2] + 0.5 * spans)
    pts = np.array([[start[0], end[0], mid[0]], [start[1], end[1], mid[1]]]).transpose(0, 2, 1)
    maps = np.array([(f.a, f.b, f.c, f.d) for f in generators]).T
    return maps, pts, start[2], end[2], spans


def _screen(
    maps: np.ndarray, pts: np.ndarray, starts: np.ndarray, ends: np.ndarray, spans: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Generator and arc indices of the pairs, in order, that the exact check must decide.

    `maps` holds the generators' entries a, b, c, d on its first axis, and
    `pts` the x and y of each arc's start, end and midpoint (shape (2,
    arcs, 3)).  Replays `_image_angles`, `_enclosing` and `_clearances` on
    arrays of shape (generators, arcs) at array cost: :func:`_array_images`
    reads the angles with numpy's arctan2 off the images as computed, with
    no normalisation and no sign flip, and places them by a bound on their
    larger coordinate; no remainder is taken with numpy's `%`.
    Returns a pair when an image point is not safely placeable, when a
    decision lies within SCREEN_TOL of its threshold (a collapse guard, a
    1e-9 slack, a clearance against the span), when the screen finds it not
    contained, or when its clearance is within SCREEN_TOL of the least
    screened one.  That covers the other decisions too.  An image start
    near a component start (the choice of component, or `lead` wrapping
    from 2*pi to 0) or an image end near a component end gives a clearance
    within SCREEN_TOL of 0, so near the least; near the next component's
    start, `lead` exceeds the span or comes within SCREEN_TOL of it.
    """
    angle, placed = _array_images(maps[:, :, None, None], pts[:, None])
    comp = starts.searchsorted(angle[..., 0], side="right") - 1
    near = ~placed
    lead, tail, inside = _array_clearances(angle, starts[comp], ends[comp], spans[comp], near)
    near |= ~inside | ~(lead + tail > 0.0)
    clear = np.minimum(lead, tail)
    clear[near] = np.inf
    return (near | (clear <= clear.min() + SCREEN_TOL)).nonzero()


def _array_images(maps: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Angles of the images of homogeneous points, and where all of a row's three are placeable.

    `maps` holds the entries a, b, c, d on its first axis and `pts` the
    coordinates x, y; the two broadcast to angles of shape (..., 3), each in
    [0, 2*pi) or NaN.  An image is placeable where the larger of |x| and |y|
    lies in (1e-290, 1e289): its hypot, at most sqrt(2) times that, is then
    neither 0 nor inf, so the scalar check places it too.  The angle is read
    off (x, y) without the canonical sign flip: -2*atan2 of (x, y) and of
    (-x, -y) differ by 2*pi, which :func:`_wrap_turn` removes up to an ulp.
    So -2*atan2 lies in [-2*pi, 2*pi], and a result of exactly 2*pi (from
    y = -0.0 with x < 0, or a tiny negative angle that wraps onto 2*pi) reads
    as 0, as in `boundary_angles`.
    """
    x = maps[0] * pts[0] + maps[1] * pts[1]
    y = maps[2] * pts[0] + maps[3] * pts[1]
    big = np.maximum(np.abs(x), np.abs(y))
    placed = ((big > 1e-290) & (big < 1e289)).all(axis=-1)
    angle = _wrap_turn(-2.0 * np.arctan2(y, x))
    angle[angle == TWO_PI] = 0.0
    return angle, placed


def _wrap_turn(d: np.ndarray) -> np.ndarray:
    """`d % TWO_PI` in place, bit for bit, for every d in [-2*pi, 2*pi) and NaN.

    On a float d with |d| <= 2*pi numpy's remainder (like Python's) takes
    fmod(d, 2*pi), which is d itself except at -2*pi, where it is -0.0; it
    then adds 2*pi to a negative result and turns a zero into +0.0.  Adding
    2*pi where d < 0 rounds the same sum, gives -2*pi + 2*pi = +0.0 and
    -0.0 + 0.0 = +0.0, and leaves NaN as it is: about an eighth of the cost
    of `%` on the screen's thousands of elements, and twice it on a few
    dozen.  Angles in [0, 2*pi) have their differences in that range.
    """
    d += TWO_PI * (d < 0.0)
    return d


def _array_clearances(angle: np.ndarray, start, end, span, near: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
    """`_clearances` on arrays: lead, tail and contained; `near`, when given, is or-ed with where a decision is near.

    `angle` holds the image start, end and midpoint angles on its last axis;
    `start`, `end` and `span` describe the outer arc.  Near means within
    SCREEN_TOL of a collapse guard, a 1e-9 slack or a clearance against the
    span.  Every angle here, the images' and the outer arc's, lies in
    [0, 2*pi) or is NaN, so each difference lies in (-2*pi, 2*pi) or is NaN,
    and :func:`_wrap_turn` is `%` on it, bit for bit; the four differences
    are wrapped as one array.
    """
    p, q, mid = angle[..., 0], angle[..., 1], angle[..., 2]
    turns = _wrap_turn(np.array([q - p, mid - p, p - start, end - q]))
    img, off, lead, tail = turns
    collapse = TWO_PI - 1e-9
    if near is not None:
        near |= (np.abs(turns[:2] - collapse) <= SCREEN_TOL).any(axis=0)
    img[img >= collapse] = 0.0  # endpoints collapsed by rounding
    off[off >= collapse] = 0.0  # midpoint rounded just behind the start
    rest = np.abs(lead + img + tail - span)
    if near is not None:
        near |= (np.abs(np.array([off - img - 1e-9, rest - 1e-9, lead - span, tail - span])) <= SCREEN_TOL).any(axis=0)
    inside = (off <= img + 1e-9) & (np.maximum(lead, tail) <= span) & (rest <= 1e-9)
    return lead, tail, inside


# --- points and arcs around them -----------------------------------------------


_ANGLE = attrgetter("angle")


def cluster(points: Sequence[BoundaryPoint], tol: float) -> list[list[int]]:
    """Greedy index classes: each point joins the first class whose first point is within tol.

    One pass over the points in angle order: each point's window holds the
    points after it, across angle 0 too, whose angle lies within tol plus a
    slack beyond any rounding, so every pair within tol shares a window.
    `BoundaryPoint.angular_distance` confirms each pair a window holds, and
    the greedy rule reads only the confirmed pairs; the classes are those of
    comparing every point with every class head.  Members ascend within a
    class, and the classes come in the order of their first points.
    """
    return _cluster(points, tol)[0]


def _cluster(points: Sequence[BoundaryPoint], tol: float) -> tuple[list[list[int]], list[list[int]]]:
    """:func:`cluster`'s classes, then the same classes in the angle order of their first points.

    The second order is read off the one sort of the points by angle (ties
    by index), so it is the stable sort of the first by the first points' angles.
    """
    n = len(points)
    angles = list(map(_ANGLE, points))
    order = sorted(range(n), key=angles.__getitem__)
    # The angles in sorted order, then once more a turn later: a window may run across angle 0.
    turn = [angles[i] for i in order]
    turn += [a + TWO_PI for a in turn]
    reach = tol + 1e-12  # beyond any rounding of an angle difference below 2*pi
    pairs = []
    for k in [k for k in range(n) if turn[k + 1] - turn[k] <= reach]:
        for m in range(k + 1, k + n):  # the window of k: each other point at most once
            if turn[m] - turn[k] > reach:
                break
            i, j = order[k], order[m % n]
            if points[i].angular_distance(points[j]) <= tol:
                pairs.append((max(i, j), min(i, j)))
    classes: list[list[int] | None] = [[i] for i in range(n)]
    # By ascending later point i, then earlier point j: i joins the first j that heads a class.
    for i, j in sorted(pairs):
        if classes[i] is not None and classes[j] is not None:
            classes[j].append(i)
            classes[i] = None
    by_angle = [members for members in map(classes.__getitem__, order) if members is not None]
    return [members for members in classes if members is not None], by_angle


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
    beta_i at 2i + 1), given in the angle order of their first points, ties
    by index, as `_cluster` returns them second.  An arc qualifies when its
    open interior holds exactly the attracting-only classes and each shared
    class is one of its ends; the other ends are midpoints of the gaps next
    to the attracting run.  Most families have their attracting points in
    several runs, which is decided first, before any class's kinds are
    collected.  Returns a tuple sorted by start, then end angle.
    """
    m = len(classes)
    # A class is attracting-only when every member is an attracting point (an even index).
    attracting = [c[0] % 2 == 0 and (len(c) == 1 or not any(i % 2 for i in c)) for c in classes]
    runs = [k for k in range(m) if attracting[k] and not attracting[k - 1]]
    if m < 2 or len(runs) > 1:
        return ()
    reps = [points[c[0]] for c in classes]
    shared = {k for k, c in enumerate(classes) if len({i % 2 for i in c}) == 2}
    if len(shared) > 2:
        return ()
    count = attracting.count(True)
    gap = cache(lambda k: BoundaryArc(reps[k - 1], reps[k]).midpoint)  # built for the arcs that end there only
    arcs = []
    for k in runs or range(m):  # an empty attracting run may sit in any gap
        prev, nxt = (k - 1) % m, (k + count) % m
        for i in (None, prev)[: 1 + (prev in shared)]:
            for j in (None, nxt)[: 1 + (nxt in shared)]:
                if shared <= {i, j}:
                    u, v = gap(k) if i is None else reps[i], gap(nxt) if j is None else reps[j]
                    if u != v:
                        arcs.append(BoundaryArc(u, v))
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
        raise VerificationFailed(_EMPTY_INTERSECTION)
    return BoundaryArc.from_angles(point.angle - lead, point.angle + tail)


def hull_around(point: BoundaryPoint, arcs: Sequence[BoundaryArc]) -> BoundaryArc:
    """Smallest arc around `point` holding each of `arcs` (each must contain the point)."""
    lead, tail = _reach(point, arcs, max)
    if lead + tail >= TWO_PI:
        raise VerificationFailed(_WHOLE_CIRCLE_HULL)
    return BoundaryArc.from_angles(point.angle - lead, point.angle + tail)


def _reach(point: BoundaryPoint, arcs: Sequence[BoundaryArc], pick) -> tuple[float, float]:
    """`pick` of the clearances behind and ahead of `point` to the ends of `arcs`."""
    lead = pick(ccw_gap(a.start.angle, point.angle) for a in arcs)
    tail = pick(ccw_gap(point.angle, a.end.angle) for a in arcs)
    return lead, tail


def intersections_around(
    points: np.ndarray, owner: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[PointArrays, PointArrays]:
    """:func:`intersect_around` of each angle points[i] and the arcs k with owner[k] == i, on angle arrays.

    Returns the start and end points of the arcs; raises the error that the
    scalar calls, in order of i, raise first.
    """
    lead, tail = _reaches(points, owner, starts, ends, np.minimum, math.inf)
    return _arcs_around(points, lead, tail, (lead <= 0.0) | (tail <= 0.0), _EMPTY_INTERSECTION)


def hulls_around(
    points: np.ndarray, owner: np.ndarray, starts: np.ndarray, ends: np.ndarray
) -> tuple[PointArrays, PointArrays]:
    """:func:`hull_around` of each angle points[i] and the arcs k with owner[k] == i, as :func:`intersections_around`."""
    lead, tail = _reaches(points, owner, starts, ends, np.maximum, -math.inf)
    return _arcs_around(points, lead, tail, lead + tail >= TWO_PI, _WHOLE_CIRCLE_HULL)


def _reaches(points, owner, starts, ends, pick, empty) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_reach` of every point, with the ufunc `pick` and `empty` for a point without arcs."""
    lead, tail = np.full((2, len(points)), empty)
    at = points[owner]
    pick.at(lead, owner, (at - starts) % TWO_PI)
    pick.at(tail, owner, (ends - at) % TWO_PI)
    return lead, tail


def _arcs_around(points, lead, tail, failed, message) -> tuple[PointArrays, PointArrays]:
    """`BoundaryArc.from_angles(points - lead, points + tail)` on arrays, after the check `failed`.

    The first i where `failed` holds raises VerificationFailed(message), or
    where the endpoints coincide, ValueError, as the arc's constructor does.
    """
    x, y = angle_pairs(points + np.array([-lead, tail]))  # a - b is a + (-b) in floats
    start, end = np.array([x, y, boundary_angles(x, y)]).transpose(1, 0, 2)
    bad = failed | (start[2] == end[2])
    if np.count_nonzero(bad):
        i = int(np.argmax(bad))
        raise VerificationFailed(message) if failed[i] else ValueError(_COINCIDENT_ENDS)
    return start, end

