"""Constructions of the boundary interval systems behind the certificates.

Each pair builder returns arcs that are symmetric with respect to their
owner: the hyperbolic line through the arc endpoints meets the owner's axis
at a right angle.  In the owner's axis chart (axis on 0 -> inf) such a line
is one log-height on the axis, and :func:`_cut` cuts every arc
from its height.  The partner fixes a position t = log sqrt|u v| on the
axis, u and v being the partner's fixed points there; the a arc is cut at
t + s and the b arc at t - s.  The owner translates cut positions by its
translation length, which turns every mapping claim into arithmetic on cut
positions.  The geometry here is advisory: the pair builders and the
shared-fixed-point groups return unverified cut arcs,
:func:`mapping_margin` measures one owner's pair, and
:func:`assemble_global` verifies only the assembled union, with the
verifier in :mod:`semicert.boundary_arcs`, which is the certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import attrgetter

import numpy as np

from .boundary_arcs import (
    DEFAULT_MARGIN,
    ArcUnion,
    BoundaryArc,
    PointArrays,
    _arc_at,
    _arc_floats,
    _around,
    _image_ends,
    _midpoint,
    _runs_forward,
    arcs_between,
    complement,
    hulls_around,
    image_clearances,
    intersections_around,
    schottky_margin,
)
from .errors import (
    AxesDoNotCross,
    OverlappingArcs,
    PreconditionViolated,
    ThresholdNotMet,
    VerificationFailed,
)
from .moebius_core import (
    BoundaryPoint,
    Classification,
    FrozenValue,
    MoebiusMap,
    _apply_pairs,
    _axis_chart_entries,
    _canonical_point,
    _product,
    _signed_entries,
    _triple_entries,
    _unit_entries,
    axis_charts,
    boundary_angles,
    boundary_values,
    exact_map,
)
from .pair_geometry import CROSSING, NESTED, PAIR_GATE_SLACK, Family, _bound_ratios, _pair_gathers, distance_from_cross_ratio, pair_gate, screened_max

# Shared-fixed-point construction needs every translation length above log 5.
SHARED_ALPHA_GATE = math.log(5.0)
# That construction's triple 0, 1, inf, and its half-plane intervals (5/2,
# -3/2) through infinity (`near`) and (-1/2, 3/2) (`far`), as the (x, y) of
# their start, end and midpoint.
_ZERO_ONE_INF = [(p.x, p.y) for p in (BoundaryPoint.from_real(0.0), BoundaryPoint.from_real(1.0), BoundaryPoint.infinity())]
_NEAR_FAR = [_arc_floats(BoundaryArc.from_reals(*ends))[0] for ends in ((2.5, -1.5), (-0.5, 1.5))]


@dataclass(frozen=True)
class SymmetricIntervalPair:
    """Arcs (a around the attractor, b around the repeller) of one generator.

    Both arcs are symmetric with respect to the owner.  They are cut
    geometry, not checked: the cut depth aims at disjoint closures and at
    the owner mapping the complement of b strictly inside a, and
    :func:`mapping_margin` measures the latter.
    """

    a: BoundaryArc
    b: BoundaryArc
    owner: int


@dataclass(frozen=True)
class SharedFixedPointGroup:
    """Two arcs that serve every generator sharing one fixed point.

    `near` surrounds the shared point and `far` the members' other fixed
    points.  They are cut geometry, not checked: the cut aims at, for kind
    "alpha" (shared attractor), every member mapping the complement of `far`
    strictly inside `near`, and for kind "beta" (shared repeller), every
    member mapping the complement of `near` strictly inside `far`.  The
    assembled union is the check.  `ends` holds the x, y and angle of the
    start and end of `near`, then of `far`; each arc is built on first read.
    """

    kind: str  # "alpha" or "beta"
    members: tuple[int, ...]
    ends: tuple[tuple[tuple[float, float, float], ...], ...]

    @cached_property
    def near(self) -> BoundaryArc:
        return _arc_at(*self.ends[0])

    @cached_property
    def far(self) -> BoundaryArc:
        return _arc_at(*self.ends[1])


class GlobalIntervalSystem(FrozenValue):
    """Assembled per-generator intervals plus the verified forward union.

    `pairs[i]` holds generator i's a and b arcs.  A system holds its cuts, and
    a certificate is written from them with no pair arc built: as arrays in
    `cuts` (the start and end points of the a arcs, row 0, and of the b arcs,
    row 1, each x, y and angle of shape (2, n)), else as floats in `_cut_ends`
    (per generator, x, y and angle of its a arc's ends, then its b arc's),
    read off `pairs` when they are given, and else built into `pairs` on first
    read.  Immutable, with equality, hashing and repr over `_fields`.
    """

    __slots__ = ("_pairs", "cuts", "_cut_ends", "groups", "union", "constant_m", "margin", "notes")
    _fields = ("pairs", "groups", "union", "constant_m", "margin", "notes")
    _key = attrgetter(*_fields)

    def __init__(
        self,
        pairs: tuple[SymmetricIntervalPair, ...] | None,
        groups: tuple[SharedFixedPointGroup, ...],
        union: ArcUnion,
        constant_m: float,
        margin: float,
        notes: tuple[str, ...] = (),
        cuts: tuple[PointArrays, PointArrays] | None = None,
        _cut_ends: list[tuple[tuple[float, float, float], ...]] | None = None,
    ):
        if pairs is not None:
            _cut_ends = [[(p.x, p.y, p.angle) for arc in (q.a, q.b) for p in (arc.start, arc.end)] for q in pairs]
        for name, value in zip(self.__slots__, (pairs, cuts, _cut_ends, groups, union, constant_m, margin, notes)):
            object.__setattr__(self, name, value)  # as a frozen dataclass sets its fields

    @property
    def pairs(self) -> tuple[SymmetricIntervalPair, ...]:
        if self._pairs is None:
            ends = self._cut_ends
            if ends is None:  # the arrays' ends, in the order of `_cut_ends`
                ends = np.array(self.cuts).transpose(3, 2, 0, 1).reshape(-1, 4, 3).tolist()
            pairs = (SymmetricIntervalPair(_arc_at(*e[:2]), _arc_at(*e[2:]), i) for i, e in enumerate(ends))
            object.__setattr__(self, "_pairs", tuple(pairs))
        return self._pairs


def _cut_floor(family: Family, i: int, j: int) -> float:
    """Cut floor of crossing or C > 1 pair (i, j); raises ThresholdNotMet below its pair gate."""
    return _gated_floor(family, i, j, family.cross_ratio(i, j))


def _gated_floor(family: Family, i: int, j: int, c: float) -> float:
    """:func:`_cut_floor` of the pair (i, j) with cross ratio c."""
    gate = pair_gate(c)
    for k in (i, j):
        tau = family.cls[k].tau
        if tau <= gate:
            rule = "|log|C|| + 3/2" if c < 0.0 else "log C + 3/2"
            raise ThresholdNotMet(f"translation length {tau:.6f} not above {rule} = {gate:.6f}")
    return _floor_of(c)


# Cap on the cut depth, so that cut arcs stay far wider than float angular
# resolution; deeper cuts could not be verified anyway.
MAX_CUT_DEPTH = 18.0


def _cut_position(tau: float, floor: float, extra: float) -> float:
    """Cut strictly between `floor` (separation) and tau/2 (mapping margin).

    When tau/2 does not clear the floor the cut keeps only the per-owner
    mapping property; separation against the partner is then unattainable.
    """
    gap = 0.5 * tau - floor
    if gap <= 0.0:
        return min(0.375 * tau + extra, 0.45 * tau, MAX_CUT_DEPTH)
    s = floor + min(1.0 + extra, 0.5 * gap + extra)
    return min(s, 0.5 * tau - 0.125 * gap, max(floor + 1e-6, MAX_CUT_DEPTH))


def _cut_positions(tau: np.ndarray, floor: np.ndarray, extra: float) -> np.ndarray:
    """:func:`_cut_position` elementwise, for the screen of the cut ranking."""
    half = 0.5 * tau
    gap = half - floor
    shallow = np.minimum(np.minimum(0.375 * tau + extra, 0.45 * tau), MAX_CUT_DEPTH)
    s = floor + np.minimum(1.0 + extra, 0.5 * gap + extra)
    deep = np.minimum(np.minimum(s, half - 0.125 * gap), np.maximum(floor + 1e-6, MAX_CUT_DEPTH))
    return np.where(gap <= 0.0, shallow, deep)


def _floor_of(c: float) -> float:
    """The cut floor of a crossing (c < 0) or C > 1 pair from its cross ratio, with the angle or distance of `_decode`.

    A crossing floor, the least cut keeping the four arcs apart, is inf,
    atanh's limit, where cos rounds to 1.  Half of `_decode`'s distance
    2 * atanh(...) is its atanh exactly.
    """
    if c < 0.0:
        theta = 2.0 * math.atan(math.sqrt(-c))
        x = math.cos(0.5 * min(theta, math.pi - theta))
        return math.atanh(x) if x < 1.0 else math.inf
    return math.asinh(1.0 / math.sinh(math.atanh(1.0 / math.sqrt(c))))


def _exp(height: float) -> float:
    """math.exp, or NaN where it overflows: the cut is then rerun in scalar, which raises the OverflowError."""
    try:
        return math.exp(height)
    except OverflowError:
        return math.nan


def _axis_position(to_axis: tuple[float, float, float, float], partner: Classification) -> float:
    """Log-height on the owner's axis of the partner's perpendicular foot or crossing point.

    The map with entries `to_axis` inverts the owner's :func:`axis_chart`
    (axis on 0 -> inf) and sends the partner's fixed points to u and v;
    the point sits at height sqrt|u v|.  Neither is 0 or inf:
    DEGENERATE_TOL keeps C away from 0, 1 and inf, and C is 0 or inf
    exactly when the two maps share a fixed point.
    """
    u, v = _image_value(to_axis, partner.alpha), _image_value(to_axis, partner.beta)
    return 0.5 * (math.log(abs(u)) + math.log(abs(v)))


def _image_value(f: tuple[float, float, float, float], p: BoundaryPoint) -> float:
    """`apply_boundary(f, p).value` of the map with entries f, bit for bit, without building the point; raises its ValueError.

    `of`'s sign flip changes neither |y| nor x / y, so it is not taken.
    """
    a, b, c, d = f
    # Inline, not `_canonical_point`: folded, a Schottky family read about 1.5% slower.
    x, y = a * p.x + b * p.y, c * p.x + d * p.y
    n = math.hypot(x, y)
    if n == 0.0 or not math.isfinite(n):
        _canonical_point(x, y)  # raises "invalid homogeneous pair"
    x, y = x / n, y / n
    return math.inf if abs(y) < 1e-300 else x / y


# Screen of the cut ranking of an array pair table: an owner's entry is
# rescored exactly, with the kernel of `moebius_core`, when its
# t + s or t - s lies within AXIS_SCREEN_TOL of the owner's max or min, and a
# pair is admitted or skipped in scalar when its lesser translation length
# lies within AXIS_SCREEN_TOL of its pair gate.  The screened t differs from the
# exact one by about 1e-14 while both logs stay within AXIS_SCREEN_LOG, the
# gates by a few ulps, and the cut floors by at most about 1e-11 where
# trusted (a crossing floor atanh(x) with 1 - x^2 >= AXIS_FLOOR_CONDITION);
# entries beyond these bounds are always rescored.
AXIS_SCREEN_TOL = 1e-9
AXIS_SCREEN_LOG = 100.0
AXIS_FLOOR_CONDITION = 1e-4


class _AxisTable:
    """What every cut schedule of one family reads; one :func:`assemble_global` call builds one.

    - `charts[i]`: the entries a, b, c, d of generator i's
      :func:`axis_chart` and of its inverse, on first use;
    - `floors` (`_entry_arrays` on the array path, each pair's (owner,
      partner) in both orders): the admissible pairs above their pair gate,
      in table order, and `notes` for the pairs skipped below it;
    - :meth:`position`: the axis position t of an ordered pair;
    - :meth:`innermost`, :meth:`cut`: each owner's innermost cut heights,
      and the ends of the arc cut at one height; :meth:`cuts`, many cuts on
      arrays;
    - :meth:`groups`: the family's shared-fixed-point groups, cut once, by
      the first schedule that reaches them, or the error that a retried
      schedule meets again.

    The table follows the family's path.  A family with the pair table as
    a list ranks and cuts on floats: one pass over the table's rows keeps
    the cut floors and the skip notes, and the first ranking keeps, for
    each entry, its owner, its axis position, the owner's translation
    length and the cut floor, so a schedule computes only its cut
    positions.  Its charts come from each
    classification's fixed points as floats.  One with the pair table as
    arrays is admitted from the arrays: gates and cut floors come from
    numpy, and a pair is decided, and a skip note written, in scalar where
    the gate screen cannot decide it.  Its charts come from one pass of
    :func:`axis_charts` over the fixed points, as entries a, b, c, d on the
    first axis, equal to `charts` bit for bit.  Its cut ranking is screened
    and reads, for each schedule's candidates, exact positions and cut
    floors from the kernel of `moebius_core`.
    """

    def __init__(self, family: Family):
        self.family = family
        self._groups: tuple[SharedFixedPointGroup, ...] | VerificationFailed | None = None
        if not isinstance(family.cross_ratios, np.ndarray):
            notes = []
            self.floors: dict[tuple[int, int], float] = {}  # the cut floor of each admitted pair
            for (i, j), c, code in family.pair_rows():
                if code == CROSSING or code == NESTED:
                    try:
                        self.floors[(i, j)] = _gated_floor(family, i, j, c)
                    except ThresholdNotMet as exc:
                        notes.append(f"pair ({i}, {j}) skipped: {exc}")
            self._rows: list[tuple[int, float, float, float]] | None = None
        else:
            # Translation lengths, then the angles of the attracting and of the repelling points: shape (2, n).
            cls = family.cls
            table = np.array([[k.tau for k in cls], [k.alpha.angle for k in cls], [k.beta.angle for k in cls]])
            self._taus, self.fixed_angles = table[0], table[1:]
            alpha, beta = family.fixed_points
            self._chart_entries, self._to_axis_entries, coincide = axis_charts(beta, alpha)
            if np.count_nonzero(coincide | (self.fixed_angles[0] == self.fixed_angles[1])):
                for k in family.cls:
                    _chart_entries(k)  # raises the scalar error of the first such generator
            rows, cols, notes, self._key_floors, self._key_trusted, self._key_c = self._admit(family)
            # Entry 2k is (rows[k], cols[k]) and entry 2k + 1 the reverse.
            self._entry_arrays = np.array([[rows, cols], [cols, rows]]).transpose(0, 2, 1).reshape(2, -1)
            self._screen: tuple[np.ndarray, ...] | None = None
        self.notes = tuple(notes)

    @np.errstate(all="ignore")  # the gates and floors of degenerate entries come out untrusted
    def _admit(self, family: Family) -> tuple:
        """Rows and columns of the admitted keys, skip notes, and the keys' cut floors, their trust and cross ratios, from the arrays.

        The admissible kinds are CROSSING (c < 0) and NESTED (c > 1).  A pair
        is admitted on arrays where its lesser translation length clears its
        pair gate by more than AXIS_SCREEN_TOL (that difference is above 0,
        so the scalar test holds too), else decided in scalar.
        """
        pick = ((family.kinds == CROSSING) | (family.kinds == NESTED)).nonzero()[0]
        rows, cols = (v[pick] for v in _pair_gathers(len(family.cls))[1])
        c = family.cross_ratios[pick]
        tau = self._taus
        admit = np.minimum(tau[rows], tau[cols]) - (np.abs(np.log(np.abs(c))) + PAIR_GATE_SLACK) > AXIS_SCREEN_TOL
        # The floors of `_floor_of` with numpy's functions: half the crossing
        # angle is arctan(sqrt(-c)), and (pi - theta) / 2 is pi/2 - half exactly.
        half = np.arctan(np.sqrt(-c))
        x = np.cos(np.minimum(half, 0.5 * math.pi - half))
        crossing = c < 0.0
        floors = np.where(crossing, np.arctanh(x), np.arcsinh(1.0 / np.sinh(np.arctanh(1.0 / np.sqrt(c)))))
        trusted = ~crossing | (1.0 - x * x >= AXIS_FLOOR_CONDITION)
        notes = []
        for k in (~admit).nonzero()[0].tolist():  # decided in scalar, in table order
            i, j = int(rows[k]), int(cols[k])
            try:
                floors[k] = _cut_floor(family, i, j)
                admit[k] = trusted[k] = True
            except ThresholdNotMet as exc:
                notes.append(f"pair ({i}, {j}) skipped: {exc}")
        return rows[admit], cols[admit], notes, floors[admit], trusted[admit], c[admit]

    def position(self, owner: int, partner: int) -> float:
        """The axis position t of the partner on the owner's axis."""
        return _axis_position(self.charts[owner][1], self.family.cls[partner])

    def innermost(self, extra: float) -> list[tuple[float, float] | None]:
        """Per owner, the heights (top, bottom) of its innermost a and b cuts at schedule `extra`.

        Perpendiculars to one line nest, so the innermost a arc is cut at the
        largest t + s and the innermost b arc at the smallest t - s; equal
        heights cut equal arcs, so no tie needs a rule.  A list table ranks
        every entry in scalar, from rows (owner, t, tau, floor) that its
        first ranking computes in entry order; an array table ranks on
        arrays (:meth:`_innermost_arrays`).  None marks an owner without one.
        """
        if isinstance(self.family.cross_ratios, np.ndarray):
            heights, held = self._innermost_arrays(extra)
            return [(u, v) if h else None for u, v, h in zip(*heights.tolist(), held.tolist())]
        if self._rows is None:
            taus = [k.tau for k in self.family.cls]
            self._rows = [
                (o, self.position(o, p), taus[o], floor)
                for (i, j), floor in self.floors.items()
                for o, p in ((i, j), (j, i))
            ]
        heights: list[tuple[float, float] | None] = [None] * len(self.family.cls)
        for owner, t, tau, floor in self._rows:
            s = _cut_position(tau, floor, extra)
            top, bottom = heights[owner] or (-math.inf, math.inf)
            heights[owner] = (max(top, t + s), min(bottom, t - s))
        return heights

    @np.errstate(all="ignore")  # positions that cannot be placed are rerun in scalar, which raises
    def _innermost_arrays(self, extra: float) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`innermost` on arrays: the top and bottom heights, shape (2, n), and which owners hold an entry.

        Ranks only the :meth:`_candidates`, which hold every entry that can
        win, with their exact positions and cut floors (the floors of
        :func:`_cut_floor`, without decoding a pair), so it finds the scalar
        heights.
        """
        picked = self._candidates(extra)
        owner = self._entry_arrays[0, picked]
        t = self._exact_positions(picked)
        s = _cut_positions(self._taus[owner], exact_map(_floor_of, self._key_c[picked // 2]), extra)
        n = len(self.family.cls)
        heights, held = np.full((2, n), math.inf), np.zeros(n, dtype=bool)
        heights[0] = -math.inf
        np.maximum.at(heights[0], owner, t + s)
        np.minimum.at(heights[1], owner, t - s)
        held[owner] = True
        return heights, held

    def _exact_positions(self, picked: np.ndarray) -> np.ndarray:
        """:meth:`position` of the entries `picked`, from the kernel, bit for bit: both fixed points of each partner in one pass."""
        owner, partner = self._entry_arrays[:, picked]
        x, y = self.family.fixed_points[:, :, partner].transpose(1, 0, 2)  # attracting row, then repelling
        x, y, placed = _apply_pairs(self._to_axis_entries[:, owner], x, y)
        value = np.abs(boundary_values(x, y))
        if not (placed & (value > 0.0)).all():
            for o, p in zip(owner.tolist(), partner.tolist()):
                self.position(o, p)  # raises the scalar error of the first such entry
        logs = exact_map(math.log, value)
        return 0.5 * (logs[0] + logs[1])

    def cut(self, owner: int, height: float, around: float) -> tuple[tuple[float, float, float], ...]:
        """The ends of the arc around the angle `around` cut off at log-height `height` on the owner's axis (:func:`_cut`)."""
        return _cut(self.charts[owner][0], height, around)

    @np.errstate(all="ignore")  # cuts that cannot be placed come out not `ok`
    def cuts(self, owners: np.ndarray, heights: np.ndarray, around: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`cut` of each owners[k] at heights[..., k] around the angle around[..., k], on arrays.

        Returns the start and end points of the cut arcs, each x, y and angle
        on the first axis, and where :meth:`cut` would not raise; elsewhere
        the points are meaningless.  `BoundaryPoint.from_real` of -e and e
        scales (v : 1) by its hypot, which leaves y positive, so no sign flip
        is taken; an infinite v is (1 : 0), and a NaN one is not placed.
        """
        e = exact_map(_exp, heights)
        norm = exact_map(math.hypot, e, 1.0)  # that of -e too
        x, y = e / norm, 1.0 / norm
        x = np.array([-x, x])  # (-e) / norm is -(e / norm) exactly
        far = np.isinf(e)
        x[:, far], y[far] = 1.0, 0.0
        x, y, placed = _apply_pairs(self._chart_entries[:, owners], x, y)
        angle = boundary_angles(x, y)
        forward, between = arcs_between(angle[0], angle[1], around)
        p, q = np.array([x, y, angle]).transpose(1, 0, 2, 3)
        return np.where(forward, p, q), np.where(forward, q, p), placed[0] & placed[1] & ~np.isnan(e) & between

    def _candidates(self, extra: float) -> np.ndarray:
        """Indices of the entries whose screened t + s or t - s is near its owner's max or min, or untrusted."""
        if self._screen is None:
            self._screen = self._screen_entries()
        owners, tau, floor, t, trusted = self._screen
        s = _cut_positions(tau, floor, extra)
        # t + s, then -(t - s), whose maximum is minus the least t - s (negation is exact).
        reach = np.concatenate([np.where(trusted, t + s, -math.inf), np.where(trusted, s - t, -math.inf)])
        top = np.full(2 * len(self.family.cls), -math.inf)
        np.maximum.at(top, owners, reach)
        near = (reach >= top[owners] - AXIS_SCREEN_TOL).reshape(2, -1)
        return (near[0] | near[1] | ~trusted).nonzero()[0]

    @np.errstate(all="ignore")  # degenerate positions come out untrusted
    def _screen_entries(self) -> tuple[np.ndarray, ...]:
        """The entries' owners, translation lengths and floors, with t screened with numpy's log, and where t is trusted.

        An entry is also untrusted where its floor is, or where tau/2 lies
        within AXIS_SCREEN_TOL of the floor: :func:`_cut_position` jumps there.
        """
        owner, partner = self._entry_arrays
        maps = self._to_axis_entries[:, owner]
        x, y = self.family.fixed_points[:, :, partner].transpose(1, 0, 2)  # attracting row, then repelling
        logs = np.log(np.abs((maps[0] * x + maps[1] * y) / (maps[2] * x + maps[3] * y)))
        floor, tau = self._key_floors.repeat(2), self._taus[owner]
        trusted = np.abs(logs) <= AXIS_SCREEN_LOG
        trusted = trusted[0] & trusted[1] & self._key_trusted.repeat(2)
        trusted &= np.abs(0.5 * tau - floor) > AXIS_SCREEN_TOL
        # The owners of the t + s, then of the -(t - s), in one index of 2n slots.
        owners = np.concatenate([owner, owner + len(self.family.cls)])
        return owners, tau, floor, 0.5 * (logs[0] + logs[1]), trusted

    @cached_property
    def charts(self) -> tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]:
        return tuple(map(_chart_entries, self.family.cls))

    def groups(self) -> tuple[SharedFixedPointGroup, ...]:
        """:func:`build_shared_alpha_intervals` of the family, called once: every later call returns its groups.

        Its VerificationFailed, the one error after which
        :func:`assemble_global` tries another schedule, is kept and raised
        again by every later call, as a new call would raise it.
        """
        if self._groups is None:
            try:
                self._groups = build_shared_alpha_intervals(self.family)
            except VerificationFailed as exc:
                self._groups = exc
        if isinstance(self._groups, VerificationFailed):
            raise self._groups
        return self._groups


def _chart_entries(k: Classification) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The entries a, b, c, d of the :func:`axis_chart` of the map classified as `k`, and of its inverse, without building a line or a map.

    Raises the CoincidentEndpoints of `Geodesic(k.beta, k.alpha)` and `axis_chart`.
    """
    a, b, c, d = chart = _axis_chart_entries(k.beta, k.alpha)
    return chart, _signed_entries(d, -b, -c, a)  # `inverse`


def _cut(chart: tuple[float, float, float, float], height: float, around: float) -> tuple[tuple[float, float, float], ...]:
    """The x, y and angle of the start and end of the arc around the angle `around` cut off at log-height `height`.

    The cut lies on the axis that the map with entries `chart` sends 0 ->
    inf to; there it is the half-circle from -e to e, e = exp(height).  The
    ends, and the errors in their order, are those of the arc, of the two
    between the points `apply_boundary(chart, BoundaryPoint.from_real(v))`
    for v = -e and e, that holds the angle, built as objects.
    """
    e = math.exp(height)
    a, b, c, d = chart
    try:
        if math.isfinite(e):
            norm = math.hypot(e, 1.0)
            x, y = e / norm, 1.0 / norm
            u = -x  # (-e) / norm is -(e / norm) exactly
        else:  # `from_real` raises on NaN, and -e and e are infinity, (1 : 0)
            u = x = BoundaryPoint.from_real(e).x
            y = 0.0
        p, q = _canonical_point(a * u + b * y, c * u + d * y), _canonical_point(a * x + b * y, c * x + d * y)
        forward = _runs_forward(p[2], q[2], around)
    except ValueError as exc:
        raise VerificationFailed(f"cut arcs fell below float angular resolution: {exc}")
    return (p, q) if forward else (q, p)


def mapping_margin(owner: MoebiusMap, pair: SymmetricIntervalPair) -> float:
    """Clearance of image(complement of b) inside a; -inf if not contained.

    This is how a caller checks a pair: the builders do not.
    """
    found = image_clearances(owner, complement(pair.b), pair.a)
    if found is None:
        return -math.inf
    return min(found)


def _build_pair(
    family: Family, i: int, j: int, extra: float
) -> tuple[SymmetricIntervalPair, SymmetricIntervalPair]:
    """Owner-symmetric pairs of admissible pair (i, j), each cut around the other's axis position t.

    Reads only the two owners' axis charts and the pair's cut floor, as an
    :class:`_AxisTable` of the family would give them.
    """
    charts = [_chart_entries(family.cls[k]) for k in (i, j)]
    floor = _cut_floor(family, i, j)
    pairs = []
    for (chart, to_axis), owner, partner in zip(charts, (i, j), (j, i)):
        k, t = family.cls[owner], _axis_position(to_axis, family.cls[partner])
        s = _cut_position(k.tau, floor, extra)
        a, b = _cut(chart, t + s, k.alpha.angle), _cut(chart, t - s, k.beta.angle)
        pairs.append(SymmetricIntervalPair(_arc_at(*a), _arc_at(*b), owner))
    return pairs[0], pairs[1]


def build_disjoint_pair_intervals(
    F, i: int = 0, j: int = 1, cut_offset: float = 0.0
) -> tuple[SymmetricIntervalPair, SymmetricIntervalPair]:
    """Interval pairs for generators i, j of F with disjoint axes and cross ratio above 1.

    Each owner's arcs are cut at t + s and t - s along its axis, where t is
    the position of the common perpendicular's foot.  The cut depth s stays
    beyond the separation floor arsinh(1/sinh(d/2)) (so the four closures
    are pairwise disjoint) and below tau/2 (so each owner maps the
    complement of its b-arc strictly inside its a-arc), bounded so that
    margins stay macroscopic at any tau.

    The arcs are not verified here: :func:`mapping_margin` checks an
    owner's pair, and :func:`assemble_global` checks only the union it
    assembles.  Raises AxesNotDisjoint or ThresholdNotMet when the pair does
    not qualify, and VerificationFailed when a cut falls below float angular
    resolution.
    """
    family = Family.of(F)
    family.disjoint_pair(i, j)
    return _build_pair(family, i, j, cut_offset)


def build_crossing_pair_intervals(
    F, i: int = 0, j: int = 1, cut_offset: float = 0.0
) -> tuple[SymmetricIntervalPair, SymmetricIntervalPair]:
    """Interval pairs for generators i, j of F whose axes cross.

    Each owner's arcs are cut at t + s and t - s along its axis, where t is
    the position of the crossing point.

    Near the threshold the four arcs of the two owners cannot always be made
    pairwise disjoint (that needs roughly 2*artanh(cos(min(theta, pi-theta)/2))
    of translation length); the cut depth still aims at each owner's own
    mapping property.

    The arcs are not verified here: :func:`mapping_margin` checks an
    owner's pair, and :func:`assemble_global` checks only the union it
    assembles.  Raises AxesDoNotCross or ThresholdNotMet when the pair does
    not qualify, and VerificationFailed when a cut falls below float angular
    resolution.
    """
    family = Family.of(F)
    pg = family.pair(i, j)
    if pg.kind != "crossing":
        raise AxesDoNotCross(f"cross ratio {pg.cross_ratio!r} is not negative")
    return _build_pair(family, i, j, cut_offset)


def build_shared_alpha_intervals(F) -> tuple[SharedFixedPointGroup, ...]:
    """One cut group for each fixed point shared by two or more generators.

    Attracting classes come first, then repelling ones, each in the order of
    `Family.alpha_classes` and `Family.beta_classes`.  The construction
    conjugates the shared point to infinity and the members' other fixed
    points into [0, 1]; there the half-plane intervals (5/2, -3/2) through
    infinity (`near`) and (-1/2, 3/2) (`far`) work for every member as soon
    as each translation length exceeds log 5, and are pulled back.

    The groups are not checked here: :func:`assemble_global` checks only
    the union it assembles.  Raises ThresholdNotMet below the gate and
    VerificationFailed when a pulled-back arc falls below float angular
    resolution.
    """
    family = Family.of(F)
    groups = []
    for kind, classes in (("alpha", family.alpha_classes), ("beta", family.beta_classes)):
        for members in classes:
            if len(members) > 1:
                groups.append(_shared_group(family, kind, members))
    return tuple(groups)


def _shared_group(family: Family, kind: str, members: tuple[int, ...]) -> SharedFixedPointGroup:
    """The cut `near` and `far` arcs of one shared fixed point, as floats; the assembled union is their check.

    Each map has the entries that the map objects had (the map between two
    boundary triples, `MoebiusMap.from_matrix`, `compose` and `inverse`),
    the values are those of `apply_boundary` and the arcs the images of the
    two intervals (`_image_ends`), bit for bit, with their errors in their
    order, after the log 5 gate.
    """
    attracting = kind == "alpha"
    for i in members:
        tau = family.cls[i].tau
        # The comparison is conservative by a few ulps so that multiplier 5
        # exactly is rejected even after classification round-trips.
        if tau <= SHARED_ALPHA_GATE + 1e-12:
            raise ThresholdNotMet(
                f"shared {'attracting' if attracting else 'repelling'} point at {list(members)}: "
                f"translation length {tau:.6f} not above log 5 = {SHARED_ALPHA_GATE:.6f}"
            )
    cls = [family.cls[i] for i in members]
    ends = [(k.alpha, k.beta) if attracting else (k.beta, k.alpha) for k in cls]
    shared, first = ends[0]
    # Send the shared point to infinity (the map of first, the midpoint of
    # `BoundaryArc(first, shared)` and shared onto 0, 1, inf), then squeeze
    # the other fixed points into [0, 1] with a boundary-affine map; every
    # map is four floats.
    mid = _midpoint(first.angle, shared.angle)[:2]
    t = _triple_entries([(first.x, first.y), mid, (shared.x, shared.y)], _ZERO_ONE_INF)
    xs = [_image_value(t, other) for _, other in ends]
    lo, hi = min(xs), max(xs)
    scale = hi - lo if hi - lo > 1e-12 else 1.0
    a, b, c, d = _signed_entries(*_product(_unit_entries(1.0, -lo, 0.0, scale), t))  # compose(squeeze, t)
    back = _signed_entries(d, -b, -c, a)  # its inverse
    return SharedFixedPointGroup(kind, members, tuple(_image_ends(back, points) for points in _NEAR_FAR))


# --- global assembly --------------------------------------------------------


def assemble_global(F, margin: float = DEFAULT_MARGIN) -> GlobalIntervalSystem:
    """Assemble a verified forward-invariant union for the whole family.

    Each generator's admissible partners (crossing axes, or disjoint with
    cross ratio above 1) propose cut heights on its axis; its a arc is cut at
    the highest and its b arc at the lowest, the innermost arcs they would
    cut, whatever the order of the generators.  Generators sharing a fixed
    point are additionally constrained by the shared-fixed-point
    intervals.  The pairs are not checked one by one: the union of the
    components, as :class:`ArcUnion`, and its :func:`schottky_margin` are
    the only check, and if they fail the cuts are pushed deeper.  The call
    builds one axis table (charts, cut floors, axis positions, shared
    groups) of the family, and every cut schedule reads it.
    """
    family = Family.of(F)
    family.require_alpha_apart_from_beta()
    if family.rank_one_arcs:
        raise PreconditionViolated("fixed points are separable by two intervals (rank-one configuration)")
    table = _AxisTable(family)
    last_error: Exception | None = None
    for extra in (0.0, 2.0, 4.0, 7.0, 10.0):
        try:
            return _assemble_once(family, table, margin, extra)
        except (VerificationFailed, OverlappingArcs) as exc:
            last_error = exc
    raise VerificationFailed(f"no cut schedule produced a verifiable union: {last_error}")


def _assemble_once(family: Family, table: _AxisTable, margin: float, extra: float) -> GlobalIntervalSystem:
    """One cut schedule: the union of the innermost cuts, or the first error of its construction.

    A family with the pair table as a list is assembled on floats: only the
    union's components become arcs, for the verifier.  One with the pair
    table as arrays is assembled by :func:`_assemble_arrays`.
    """
    if isinstance(family.cross_ratios, np.ndarray):
        return _assemble_arrays(family, table, margin, extra)
    cls = family.cls
    alpha = [k.alpha.angle for k in cls]
    ends = []
    for i, heights in enumerate(table.innermost(extra)):
        if heights is None:
            raise _no_partner(i)
        top, bottom = heights
        ends.append((*table.cut(i, top, alpha[i]), *table.cut(i, bottom, cls[i].beta.angle)))
    groups = table.groups()
    # Each generator's a arc, then the alpha-side arc of each group it belongs to, as start and end angles.
    sides = [[(start[2], end[2])] for start, end, _, _ in ends]
    for group in groups:
        start, end = _alpha_side(group)
        for i in group.members:
            sides[i].append((start[2], end[2]))
    final = [_around(alpha[i], arcs, False) for i, arcs in enumerate(sides)]
    union = ArcUnion(
        _arc_at(*_around(alpha[members[0]], [(final[i][0][2], final[i][1][2]) for i in members], True))
        for members in family.alpha_classes
    )
    achieved = _checked_margin(schottky_margin(family.maps, union, cls), margin)
    return _system(table, union, achieved, ends=ends)


def _assemble_arrays(family: Family, table: _AxisTable, margin: float, extra: float) -> GlobalIntervalSystem:
    """The float schedule of :func:`_assemble_once` on the arrays of the `moebius_core` kernel.

    The cuts, intersections, hulls, union and margin are the float ones bit
    for bit, and the error raised is the one the float schedule raises
    first: the cuts of the owners before the first owner without a partner,
    each a cut before its b cut (a failing cut is rerun by :meth:`_AxisTable.cut`,
    which raises its error), then that owner, the shared groups, the
    intersections, the hulls, the union's overlap and the margin, in order.
    No point or arc is built: the returned system holds the cuts as arrays.
    """
    cls = family.cls
    heights = table.innermost(extra)
    n = next((i for i, h in enumerate(heights) if h is None), len(cls))
    # Row 0 holds the a cuts (top heights, around alpha), row 1 the b cuts.
    owners, cut_heights = np.arange(n), np.fromiter(chain.from_iterable(heights[:n]), float, 2 * n).reshape(n, 2).T
    start, end, ok = table.cuts(owners, cut_heights, table.fixed_angles[:, :n])
    failed = (~(ok[0] & ok[1])).nonzero()[0]
    if failed.size:
        i = int(failed[0])
        side = 0 if not ok[0, i] else 1
        table.cut(i, cut_heights[side, i], (cls[i].alpha, cls[i].beta)[side].angle)  # raises the scalar error
        raise AssertionError(f"the cut of generator {i} failed on arrays but not in scalar")
    if n < len(cls):
        raise _no_partner(n)
    groups = table.groups()
    alpha = table.fixed_angles[0]
    owner, starts, ends = owners, start[2][0], end[2][0]
    if groups:  # each member's a arc, then the alpha-side arc of each group for each of its members
        sides = [(i, _alpha_side(group)) for group in groups for i in group.members]
        owner = np.concatenate([owner, [i for i, _ in sides]])
        starts = np.concatenate([starts, [side[0][2] for _, side in sides]])
        ends = np.concatenate([ends, [side[1][2] for _, side in sides]])
    final_start, final_end = intersections_around(alpha, owner, starts, ends)
    classes = family.alpha_classes
    members = np.fromiter(chain.from_iterable(classes), np.intp)
    owner = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    heads = alpha[np.array([c[0] for c in classes])]
    union = ArcUnion.of_arrays(*hulls_around(heads, owner, final_start[2][members], final_end[2][members]))
    achieved = _checked_margin(schottky_margin(family.maps, union, cls), margin)
    return _system(table, union, achieved, cuts=(start, end))


def _no_partner(i: int) -> PreconditionViolated:
    return PreconditionViolated(f"generator {i} has no admissible partner with sufficient translation length")


def _alpha_side(group: SharedFixedPointGroup) -> tuple[tuple[float, float, float], ...]:
    """The x, y and angle of the start and end of the arc of a shared group around its members' attracting points."""
    return group.ends[0 if group.kind == "alpha" else 1]


def _checked_margin(achieved: float, margin: float) -> float:
    if not achieved >= margin:  # a NaN margin fails too
        raise VerificationFailed(f"assembled union has margin {achieved:.3e}, below required {margin:.3e}")
    return achieved


def _system(
    table: _AxisTable,
    union: ArcUnion,
    achieved: float,
    cuts: tuple[PointArrays, PointArrays] | None = None,
    ends: list[tuple[tuple[float, float, float], ...]] | None = None,
) -> GlobalIntervalSystem:
    return GlobalIntervalSystem(
        pairs=None,
        groups=table.groups(),
        union=union,
        constant_m=eq_constant(table.family.cross_ratios, table.family.kinds),
        margin=achieved,
        notes=table.notes,
        cuts=cuts,
        _cut_ends=ends,
    )


def eq_constant(cross_ratios: list[float] | np.ndarray, codes: list[int] | np.ndarray) -> float:
    """The assembly constant 2*max(|log|C|| + 3/2) + max axis distance of a table and its kind codes; 0 when no pair enters.

    Pairs enter each maximum by `pair_geometry._BOUNDS_OF_KIND`.  An array is
    read with numpy, each maximum a :func:`screened_max`: the scalar constant bit for bit.
    """
    gated, far = _bound_ratios(cross_ratios, codes, (1, 2))
    if not len(gated):
        return 0.0
    if isinstance(gated, np.ndarray):
        top = screened_max(gated, np.abs(np.log(np.abs(gated))) + PAIR_GATE_SLACK, pair_gate)
        root = np.sqrt(far)
        dist = screened_max(far, np.log((root + 1.0) / np.abs(root - 1.0)), distance_from_cross_ratio) or 0.0
    else:
        top, dist = max(map(pair_gate, gated)), max([0.0, *map(distance_from_cross_ratio, far)])
    return 2.0 * top + dist
