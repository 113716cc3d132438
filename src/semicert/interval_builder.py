"""Constructions of the boundary interval systems behind the certificates.

Each pair builder returns arcs that are symmetric with respect to their
owner: the hyperbolic line through the arc endpoints meets the owner's axis
at a right angle.  In the owner's axis chart (axis on 0 -> inf) such a line
is one log-height on the axis, and :meth:`_AxisTable.cut` cuts every arc
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
    arc_between,
    arc_image,
    arcs_between,
    arcs_of,
    complement,
    hull_around,
    hulls_around,
    image_clearances,
    intersect_around,
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
    Geodesic,
    MoebiusMap,
    _apply_pairs,
    apply_boundary,
    axis_chart,
    axis_charts,
    boundary_angles,
    boundary_values,
    compose,
    exact_map,
    from_boundary_triple,
    inverse,
)
from .pair_geometry import CROSSING, DEGENERATE_TOL, NESTED, Family, distance_from_cross_ratio, screened_max

# Additive slack on translation lengths required by the pair constructions.
PAIR_GATE_SLACK = 1.5
# Shared-fixed-point construction needs every translation length above log 5.
SHARED_ALPHA_GATE = math.log(5.0)


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
    assembled union is the check.
    """

    kind: str  # "alpha" or "beta"
    members: tuple[int, ...]
    near: BoundaryArc
    far: BoundaryArc


class GlobalIntervalSystem(FrozenValue):
    """Assembled per-generator intervals plus the verified forward union.

    `pairs[i]` holds generator i's a and b arcs.  A system assembled on the
    kernel's arrays holds its cuts as arrays in `cuts`: the start and end
    points of the a arcs (row 0) and of the b arcs (row 1), each x, y and
    angle of shape (2, n).  It builds `pairs` from them on first read, as a
    union of :meth:`ArcUnion.of_arrays` builds its arcs, so a certificate
    written from the arrays builds no arc.  `cuts` is None otherwise.
    Immutable, with equality, hashing and repr over `_fields`, as a frozen
    dataclass.
    """

    __slots__ = ("_pairs", "cuts", "groups", "union", "constant_m", "margin", "notes")
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
    ):
        for name, value in zip(self.__slots__, (pairs, cuts, groups, union, constant_m, margin, notes)):
            object.__setattr__(self, name, value)  # as a frozen dataclass sets its fields

    @property
    def pairs(self) -> tuple[SymmetricIntervalPair, ...]:
        if self._pairs is None:
            start, end = self.cuts
            a, b = (arcs_of(tuple(v[side] for v in start), tuple(v[side] for v in end)) for side in (0, 1))
            object.__setattr__(self, "_pairs", tuple(map(SymmetricIntervalPair, a, b, range(len(a)))))
        return self._pairs


def pair_gate(c: float) -> float:
    """|log|C|| + 3/2, the translation-length gate of a pair; log C + 3/2 when C > 1."""
    return abs(math.log(abs(c))) + PAIR_GATE_SLACK


def crossing_cut_floor(theta: float) -> float:
    """Smallest cut position keeping the four crossing-pair arcs separated."""
    m = min(theta, math.pi - theta)
    return math.atanh(math.cos(0.5 * m))


def _cut_floor(family: Family, i: int, j: int) -> float:
    """Cut floor of crossing or C > 1 pair (i, j); raises ThresholdNotMet below its pair gate."""
    pg = family.pair(i, j)
    gate, floor = pair_gate(pg.cross_ratio), _floor_of(pg.cross_ratio)
    rule = "|log|C|| + 3/2" if pg.kind == "crossing" else "log C + 3/2"
    for k in (i, j):
        tau = family.cls[k].tau
        if tau <= gate:
            raise ThresholdNotMet(f"translation length {tau:.6f} not above {rule} = {gate:.6f}")
    return floor


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

    Half of `_decode`'s distance 2 * atanh(...) is its atanh exactly.
    """
    if c < 0.0:
        return crossing_cut_floor(2.0 * math.atan(math.sqrt(-c)))
    return math.asinh(1.0 / math.sinh(math.atanh(1.0 / math.sqrt(c))))


def _exp(height: float) -> float:
    """math.exp, or NaN where it overflows: the cut is then rerun in scalar, which raises the OverflowError."""
    try:
        return math.exp(height)
    except OverflowError:
        return math.nan


def _axis_position(to_axis: MoebiusMap, partner: Classification) -> float:
    """Log-height on the owner's axis of the partner's perpendicular foot or crossing point.

    `to_axis` inverts the owner's :func:`axis_chart` (axis on 0 -> inf) and
    sends the partner's fixed points to u and v; the point sits at height
    sqrt|u v|.  Neither is 0 or inf: DEGENERATE_TOL keeps C away from 0, 1
    and inf, and C is 0 or inf exactly when the two maps share a fixed point.
    """
    u = apply_boundary(to_axis, partner.alpha).value
    v = apply_boundary(to_axis, partner.beta).value
    return 0.5 * (math.log(abs(u)) + math.log(abs(v)))


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
    """What the cut ranking and every cut of one family read; one :func:`assemble_global` call builds one.

    - `charts[i]`: generator i's :func:`axis_chart`, `to_axis[i]` its
      inverse;
    - `entries` (`_entry_arrays` on the array path, shape (2, entries)):
      (owner, partner) for both orders of each admissible pair above its
      pair gate, in table order, and `notes` for the pairs skipped below it;
    - :meth:`floor`, :meth:`position`: the scalar cut floor of a pair, read
      off `family`, and the axis position t of an ordered pair, each
      computed once;
    - :meth:`innermost`, :meth:`cut`: each owner's innermost cut heights,
      and the arc cut at one height; :meth:`cuts`, many cuts on arrays.

    The table follows the family's path.  A family with the pair table as
    a list builds the objects and ranks in scalar.  One with the pair table
    as arrays is admitted from the arrays: gates and cut floors come from
    numpy, and a pair is decided, and a skip note written, in scalar where
    the gate screen cannot decide it.  Its charts come from one pass of
    :func:`axis_charts` over the fixed points, as entries a, b, c, d on the
    first axis, and the chart objects are built only when a scalar replay
    (:meth:`cut`, :meth:`position`) reads them.  Its cut ranking is screened
    and reads, for each schedule's candidates, exact positions and cut
    floors from the kernel of `moebius_core`.
    """

    def __init__(self, family: Family):
        self.family = family
        self.floors: dict[tuple[int, int], float] = {}
        if family.kinds is None:
            self.charts = tuple(axis_chart(Geodesic(k.beta, k.alpha)) for k in family.cls)
            self.to_axis = tuple(inverse(chart) for chart in self.charts)
            keys, notes = [], []
            for (i, j), pg in family.pairs.items():
                if pg.kind != "crossing" and not (pg.kind == "disjoint" and pg.nested_attractors):
                    continue
                try:
                    self.floors[(i, j)] = _cut_floor(family, i, j)
                    keys.append((i, j))
                except ThresholdNotMet as exc:
                    notes.append(f"pair ({i}, {j}) skipped: {exc}")
            self.entries = [(o, p) for i, j in keys for o, p in ((i, j), (j, i))]
        else:
            # Translation lengths, then the angles of the attracting and of the repelling points: shape (2, n).
            cls = family.cls
            table = np.array([[k.tau for k in cls], [k.alpha.angle for k in cls], [k.beta.angle for k in cls]])
            self._taus, self.fixed_angles = table[0], table[1:]
            alpha, beta = family.fixed_points
            self._chart_entries, self._to_axis_entries, coincide = axis_charts(beta, alpha)
            if np.count_nonzero(coincide | (self.fixed_angles[0] == self.fixed_angles[1])):
                for k in family.cls:
                    axis_chart(Geodesic(k.beta, k.alpha))  # raises the scalar error of the first such generator
            rows, cols, notes, self._key_floors, self._key_trusted, self._key_c = self._admit(family)
            # Entry 2k is (rows[k], cols[k]) and entry 2k + 1 the reverse.
            self._entry_arrays = np.array([[rows, cols], [cols, rows]]).transpose(0, 2, 1).reshape(2, -1)
            self._screen: tuple[np.ndarray, ...] | None = None
        self.notes = tuple(notes)
        self._positions: dict[tuple[int, int], float] = {}

    @np.errstate(all="ignore")  # the gates and floors of degenerate entries come out untrusted
    def _admit(self, family: Family) -> tuple:
        """Rows and columns of the admitted keys, skip notes, and the keys' cut floors, their trust and cross ratios, from the arrays.

        The admissible kinds are CROSSING (c < 0) and NESTED (c > 1).  A pair
        is admitted on arrays where its lesser translation length clears its
        pair gate by more than AXIS_SCREEN_TOL (that difference is above 0,
        so the scalar test holds too), else decided in scalar.
        """
        kinds = family.kinds
        pick = ((kinds == CROSSING) | (kinds == NESTED)).nonzero()[0]
        rows, cols = (v[pick] for v in family.pair_index)
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
                floors[k] = self.floors[(i, j)] = _cut_floor(family, i, j)
                admit[k] = trusted[k] = True
            except ThresholdNotMet as exc:
                notes.append(f"pair ({i}, {j}) skipped: {exc}")
        return rows[admit], cols[admit], notes, floors[admit], trusted[admit], c[admit]

    def floor(self, i: int, j: int) -> float:
        """The scalar cut floor of pair (i, j); raises ThresholdNotMet below its pair gate."""
        key = (i, j) if i < j else (j, i)
        floor = self.floors.get(key)
        if floor is None:
            floor = self.floors[key] = _cut_floor(self.family, i, j)
        return floor

    def position(self, owner: int, partner: int) -> float:
        t = self._positions.get((owner, partner))
        if t is None:
            t = _axis_position(self.to_axis[owner], self.family.cls[partner])
            self._positions[(owner, partner)] = t
        return t

    def innermost(self, extra: float) -> list[tuple[float, float] | None]:
        """Per owner, the heights (top, bottom) of its innermost a and b cuts at schedule `extra`.

        Perpendiculars to one line nest, so the innermost a arc is cut at the
        largest t + s and the innermost b arc at the smallest t - s; equal
        heights cut equal arcs, so no tie needs a rule.  A list table ranks
        every entry in scalar; an array table ranks on arrays
        (:meth:`_innermost_arrays`).  None marks an owner without one.
        """
        if self.family.kinds is not None:
            heights, held = self._innermost_arrays(extra)
            return [(u, v) if h else None for u, v, h in zip(*heights.tolist(), held.tolist())]
        cls = self.family.cls
        heights: list[tuple[float, float] | None] = [None] * len(cls)
        for owner, partner in self.entries:
            t = self.position(owner, partner)
            s = _cut_position(cls[owner].tau, self.floor(owner, partner), extra)
            top, bottom = heights[owner] or (-math.inf, math.inf)
            heights[owner] = (max(top, t + s), min(bottom, t - s))
        return heights

    @np.errstate(all="ignore")  # positions that cannot be placed are rerun in scalar, which raises
    def _innermost_arrays(self, extra: float) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`innermost` on arrays: the top and bottom heights, shape (2, n), and which owners hold an entry.

        Ranks only the :meth:`_candidates`, which hold every entry that can
        win, with their exact positions and cut floors (the floors of
        :meth:`floor`, without decoding a pair), so it finds the scalar
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

    def cut(self, owner: int, height: float, around: BoundaryPoint) -> BoundaryArc:
        """The arc around `around` cut off at log-height `height` on the owner's axis.

        In the owner's axis chart (axis 0 -> inf) the cut is the half-circle from -e to e, e = exp(height).
        """
        chart, e = self.charts[owner], math.exp(height)
        try:
            return arc_between(*(apply_boundary(chart, BoundaryPoint.from_real(v)) for v in (-e, e)), around)
        except ValueError as exc:
            raise VerificationFailed(f"cut arcs fell below float angular resolution: {exc}")

    @np.errstate(all="ignore")  # cuts that cannot be placed come out not `ok`
    def cuts(self, owners: np.ndarray, heights: np.ndarray, around: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`cut` of each owners[k] at heights[..., k] around the point at angle around[..., k], on arrays.

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

    # The scalar path sets the charts and their inverses as objects; the
    # array path sets their arrays, and builds the objects from them on the
    # first scalar replay.

    @cached_property
    def charts(self) -> tuple[MoebiusMap, ...]:
        return _maps(self._chart_entries)

    @cached_property
    def to_axis(self) -> tuple[MoebiusMap, ...]:
        return _maps(self._to_axis_entries)


def _maps(entries: np.ndarray) -> tuple[MoebiusMap, ...]:
    """The maps whose entries a, b, c, d lie on the first axis."""
    return tuple(map(MoebiusMap, *entries.tolist()))


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
    """Owner-symmetric pairs of admissible pair (i, j), each cut around the other's axis position t."""
    table = _AxisTable(family)
    floor = table.floor(i, j)
    pairs = []
    for owner, partner in ((i, j), (j, i)):
        k, t = family.cls[owner], table.position(owner, partner)
        s = _cut_position(k.tau, floor, extra)
        a, b = table.cut(owner, t + s, k.alpha), table.cut(owner, t - s, k.beta)
        pairs.append(SymmetricIntervalPair(a, b, owner))
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
    """The cut `near` and `far` arcs of one shared fixed point; the assembled union is their check."""
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
    # Send the shared point to infinity, then squeeze the other fixed points
    # into [0, 1] with a boundary-affine map.
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
    return SharedFixedPointGroup(kind, members, near, far)


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
    builds one axis table (charts, cut floors, axis positions) of the family,
    and every cut schedule reads it.
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

    A family with the pair table as arrays is assembled by :func:`_assemble_arrays`.
    """
    if family.kinds is not None:
        return _assemble_arrays(family, table, margin, extra)
    maps, cls = family.maps, family.cls
    n = len(maps)
    pairs = []
    for i, heights in enumerate(table.innermost(extra)):
        if heights is None:
            raise _no_partner(i)
        top, bottom = heights
        a, b = table.cut(i, top, cls[i].alpha), table.cut(i, bottom, cls[i].beta)
        pairs.append(SymmetricIntervalPair(a, b, i))
    groups = build_shared_alpha_intervals(family)
    alpha_extra: dict[int, list[BoundaryArc]] = {i: [] for i in range(n)}
    for group in groups:
        for i in group.members:
            alpha_extra[i].append(_alpha_side(group))
    final_a: list[BoundaryArc] = []
    for i in range(n):
        final_a.append(intersect_around(cls[i].alpha, [pairs[i].a, *alpha_extra[i]]))
    components: list[BoundaryArc] = []
    for members in family.alpha_classes:
        point = cls[members[0]].alpha
        components.append(hull_around(point, [final_a[i] for i in members]))
    union = ArcUnion(components)
    achieved = _checked_margin(schottky_margin(maps, union, cls), margin)
    return _system(family, table, tuple(pairs), groups, union, achieved)


def _assemble_arrays(family: Family, table: _AxisTable, margin: float, extra: float) -> GlobalIntervalSystem:
    """The scalar schedule of :func:`_assemble_once` on the arrays of the `moebius_core` kernel.

    The cuts, intersections, hulls, union and margin are the scalar ones bit
    for bit, and the error raised is the one the scalar schedule raises
    first: the cuts of the owners before the first owner without a partner,
    each a cut before its b cut (a failing cut is rerun by :meth:`_AxisTable.cut`,
    which raises its error), then that owner, the shared groups, the
    intersections, the hulls, the union's overlap and the margin, in order.
    No point or arc is built: the returned system holds the cuts as arrays
    (only the one cut that a failing schedule reruns builds its points).
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
        table.cut(i, cut_heights[side, i], (cls[i].alpha, cls[i].beta)[side])  # raises the scalar error
        raise AssertionError(f"the cut of generator {i} failed on arrays but not in scalar")
    if n < len(cls):
        raise _no_partner(n)
    groups = build_shared_alpha_intervals(family)
    alpha = table.fixed_angles[0]
    owner, starts, ends = owners, start[2][0], end[2][0]
    if groups:  # each member's a arc, then the alpha-side arc of each group for each of its members
        sides = [(i, _alpha_side(group)) for group in groups for i in group.members]
        owner = np.concatenate([owner, [i for i, _ in sides]])
        starts = np.concatenate([starts, [arc.start.angle for _, arc in sides]])
        ends = np.concatenate([ends, [arc.end.angle for _, arc in sides]])
    final_start, final_end = intersections_around(alpha, owner, starts, ends)
    classes = family.alpha_classes
    members = np.fromiter(chain.from_iterable(classes), np.intp)
    owner = np.repeat(np.arange(len(classes)), [len(c) for c in classes])
    heads = alpha[np.array([c[0] for c in classes])]
    union = ArcUnion.of_arrays(*hulls_around(heads, owner, final_start[2][members], final_end[2][members]))
    achieved = _checked_margin(schottky_margin(family.maps, union, cls), margin)
    return _system(family, table, None, groups, union, achieved, (start, end))


def _no_partner(i: int) -> PreconditionViolated:
    return PreconditionViolated(f"generator {i} has no admissible partner with sufficient translation length")


def _alpha_side(group: SharedFixedPointGroup) -> BoundaryArc:
    """The arc of a shared group around its members' attracting points."""
    return group.near if group.kind == "alpha" else group.far


def _checked_margin(achieved: float, margin: float) -> float:
    if achieved < margin:
        raise VerificationFailed(f"assembled union has margin {achieved:.3e}, below required {margin:.3e}")
    return achieved


def _system(
    family: Family,
    table: _AxisTable,
    pairs: tuple[SymmetricIntervalPair, ...] | None,
    groups: tuple[SharedFixedPointGroup, ...],
    union: ArcUnion,
    achieved: float,
    cuts: tuple[PointArrays, PointArrays] | None = None,
) -> GlobalIntervalSystem:
    return GlobalIntervalSystem(
        pairs=pairs,
        groups=groups,
        union=union,
        constant_m=eq_constant(family.cross_ratios),
        margin=achieved,
        notes=table.notes,
        cuts=cuts,
    )


def eq_constant(cross_ratios: list[float] | np.ndarray) -> float:
    """The assembly constant 2*max(|log|C|| + 3/2) + max axis distance.

    An array, as the pair table of a large Family holds, is read with numpy,
    each maximum a :func:`screened_max`, so the constant is the scalar one
    bit for bit.
    """
    if isinstance(cross_ratios, np.ndarray):
        return _eq_constant_of_array(cross_ratios)
    logs = [pair_gate(c) for c in cross_ratios if math.isfinite(c) and abs(c) > DEGENERATE_TOL]
    if not logs:
        return 0.0
    dists = [0.0]
    for c in cross_ratios:
        if math.isfinite(c) and c > DEGENERATE_TOL and abs(c - 1.0) > DEGENERATE_TOL:
            dists.append(distance_from_cross_ratio(c))
    return 2.0 * max(logs) + max(dists)


@np.errstate(all="ignore")
def _eq_constant_of_array(cs: np.ndarray) -> float:
    cs = cs[np.isfinite(cs)]
    gated = cs[np.abs(cs) > DEGENERATE_TOL]
    top = screened_max(gated, np.abs(np.log(np.abs(gated))) + PAIR_GATE_SLACK, pair_gate)
    if top is None:
        return 0.0
    far = cs[(cs > DEGENERATE_TOL) & (np.abs(cs - 1.0) > DEGENERATE_TOL)]
    root = np.sqrt(far)
    dist = screened_max(far, np.log((root + 1.0) / np.abs(root - 1.0)), distance_from_cross_ratio)
    return 2.0 * top + max(0.0, dist or 0.0)
