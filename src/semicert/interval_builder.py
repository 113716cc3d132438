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

import numpy as np

from .boundary_arcs import (
    DEFAULT_MARGIN,
    ArcUnion,
    BoundaryArc,
    arc_between,
    arc_image,
    complement,
    hull_around,
    image_clearances,
    intersect_around,
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
    Geodesic,
    MoebiusMap,
    apply_boundary,
    axis_chart,
    compose,
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


@dataclass(frozen=True)
class GlobalIntervalSystem:
    """Assembled per-generator intervals plus the verified forward union."""

    pairs: tuple[SymmetricIntervalPair, ...]
    groups: tuple[SharedFixedPointGroup, ...]
    union: ArcUnion
    constant_m: float
    margin: float
    notes: tuple[str, ...] = ()


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
    gate = pair_gate(pg.cross_ratio)
    if pg.kind == "crossing":
        rule, floor = "|log|C|| + 3/2", crossing_cut_floor(pg.theta)
    else:
        rule, floor = "log C + 3/2", math.asinh(1.0 / math.sinh(0.5 * pg.distance))
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
    gap = 0.5 * tau - floor
    shallow = np.minimum(np.minimum(0.375 * tau + extra, 0.45 * tau), MAX_CUT_DEPTH)
    s = floor + np.minimum(1.0 + extra, 0.5 * gap + extra)
    deep = np.minimum(np.minimum(s, 0.5 * tau - 0.125 * gap), np.maximum(floor + 1e-6, MAX_CUT_DEPTH))
    return np.where(gap <= 0.0, shallow, deep)


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


# Screen of the cut ranking: an owner's entry is rescored in scalar when its
# t + s or t - s lies within AXIS_SCREEN_TOL of the owner's max or min, and a
# pair is admitted or skipped in scalar when its lesser translation length
# lies within AXIS_SCREEN_TOL of its pair gate.  The array t differs from the
# scalar one by about 1e-14 while both logs stay within AXIS_SCREEN_LOG, the
# gates by a few ulps, and the cut floors by at most about 1e-11 where
# trusted (a crossing floor atanh(x) with 1 - x^2 >= AXIS_FLOOR_CONDITION);
# entries beyond these bounds are always rescored.
AXIS_SCREEN_TOL = 1e-9
AXIS_SCREEN_LOG = 100.0
AXIS_FLOOR_CONDITION = 1e-4
# Ordered admissible pairs from which the screen pays for itself.  One table
# and ranking, scalar against screened: 115 vs 180 us at 22 entries, 215 vs
# 220 us at 42, 350 vs 250 us at 68, 3.9 vs 0.8 ms at about 640 (n = 32).
AXIS_SCREEN_MIN_PAIRS = 48


class _AxisTable:
    """What the cut ranking and every cut of one family read; one :func:`assemble_global` call builds one.

    - `charts[i]`: generator i's :func:`axis_chart`, `to_axis[i]` its inverse;
    - `entries`: (owner, partner) for both orders of each admissible pair
      above its pair gate, in table order, and `notes` for the pairs skipped
      below it;
    - :meth:`floor`, :meth:`position`: the scalar cut floor of a pair, read
      off `family`, and the axis position t of an ordered pair, each
      computed once;
    - :meth:`innermost`, :meth:`cut`: each owner's innermost cut heights,
      and the arc cut at one height.

    A family with the pair table as arrays is admitted from the arrays:
    gates and cut floors come from numpy, and a pair is decided, and a skip
    note written, in scalar where the gate screen cannot decide it.
    """

    def __init__(self, family: Family):
        self.family = family
        self.charts = tuple(axis_chart(Geodesic(k.beta, k.alpha)) for k in family.cls)
        self.to_axis = tuple(inverse(chart) for chart in self.charts)
        self.floors: dict[tuple[int, int], float] = {}
        if family.kinds is None:
            keys, notes = [], []
            for (i, j), pg in family.pairs.items():
                if pg.kind != "crossing" and not (pg.kind == "disjoint" and pg.nested_attractors):
                    continue
                try:
                    self.floors[(i, j)] = _cut_floor(family, i, j)
                    keys.append((i, j))
                except ThresholdNotMet as exc:
                    notes.append(f"pair ({i}, {j}) skipped: {exc}")
            floors = np.array([self.floors[key] for key in keys])
            trusted = np.ones(len(keys), dtype=bool)
        else:
            keys, notes, floors, trusted = self._admit(family)
        self.notes = tuple(notes)
        self.entries = [(o, p) for i, j in keys for o, p in ((i, j), (j, i))]
        self._key_floors = floors
        self._key_trusted = trusted
        self._positions: dict[tuple[int, int], float] = {}
        self._screen: tuple[np.ndarray, ...] | None = None

    @np.errstate(all="ignore")  # the gates and floors of degenerate entries come out untrusted
    def _admit(self, family: Family) -> tuple[list, list, np.ndarray, np.ndarray]:
        """Admitted keys, skip notes, cut floors and their trust, from the family's arrays."""
        n = len(family.cls)
        rows, cols = np.triu_indices(n, 1)
        pick = np.flatnonzero((family.kinds == CROSSING) | (family.kinds == NESTED))
        c, rows, cols = family.cross_ratios[pick], rows[pick], cols[pick]
        crossing = family.kinds[pick] == CROSSING
        tau = np.array([k.tau for k in family.cls])
        gate = np.abs(np.log(np.abs(c))) + PAIR_GATE_SLACK
        low = np.minimum(tau[rows], tau[cols])
        admit = (low > gate) & ~(np.abs(low - gate) <= AXIS_SCREEN_TOL)
        # The floors of crossing_cut_floor and _cut_floor, with the
        # configuration's angle and distance as _decode computes them.
        theta = 2.0 * np.arctan(np.sqrt(-c))
        x = np.cos(0.5 * np.minimum(theta, math.pi - theta))
        nested = np.arcsinh(1.0 / np.sinh(0.5 * (2.0 * np.arctanh(1.0 / np.sqrt(c)))))
        floors = np.where(crossing, np.arctanh(x), nested)
        trusted = ~crossing | (1.0 - x * x >= AXIS_FLOOR_CONDITION)
        notes = []
        for k in np.flatnonzero(~admit).tolist():  # decided in scalar, in table order
            i, j = int(rows[k]), int(cols[k])
            try:
                floors[k] = self.floors[(i, j)] = _cut_floor(family, i, j)
                admit[k] = trusted[k] = True
            except ThresholdNotMet as exc:
                notes.append(f"pair ({i}, {j}) skipped: {exc}")
        keys = list(zip(rows[admit].tolist(), cols[admit].tolist()))
        return keys, notes, floors[admit], trusted[admit]

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
        heights cut equal arcs, so no tie needs a rule.  From
        AXIS_SCREEN_MIN_PAIRS entries on, the loop runs only over the
        :meth:`_candidates`, which hold every entry that can win, so it finds
        the same heights as over all entries.  None marks an owner without one.
        """
        entries = self.entries
        if len(entries) >= AXIS_SCREEN_MIN_PAIRS:
            entries = [entries[e] for e in self._candidates(extra)]
        cls = self.family.cls
        heights: list[tuple[float, float] | None] = [None] * len(cls)
        for owner, partner in entries:
            t = self.position(owner, partner)
            s = _cut_position(cls[owner].tau, self.floor(owner, partner), extra)
            top, bottom = heights[owner] or (-math.inf, math.inf)
            heights[owner] = (max(top, t + s), min(bottom, t - s))
        return heights

    def cut(self, owner: int, height: float, around: BoundaryPoint) -> BoundaryArc:
        """The arc around `around` cut off at log-height `height` on the owner's axis.

        In the owner's axis chart (axis 0 -> inf) the cut is the half-circle from -e to e, e = exp(height).
        """
        chart, e = self.charts[owner], math.exp(height)
        try:
            return arc_between(*(apply_boundary(chart, BoundaryPoint.from_real(v)) for v in (-e, e)), around)
        except ValueError as exc:
            raise VerificationFailed(f"cut arcs fell below float angular resolution: {exc}")

    def _candidates(self, extra: float) -> list[int]:
        """Indices of the entries whose screened t + s or t - s is near its owner's max or min, or untrusted."""
        if self._screen is None:
            self._screen = self._screen_entries()
        owner, partner, tau, floor, t, trusted = self._screen
        s = _cut_positions(tau, floor, extra)
        n = len(self.family.cls)
        up, down = np.full((n, n), -np.inf), np.full((n, n), np.inf)
        up[owner, partner] = np.where(trusted, t + s, -np.inf)
        down[owner, partner] = np.where(trusted, t - s, np.inf)
        top, bottom = up.max(axis=1)[owner], down.min(axis=1)[owner]
        near = (t + s >= top - AXIS_SCREEN_TOL) | (t - s <= bottom + AXIS_SCREEN_TOL)
        return np.flatnonzero(near | ~trusted).tolist()

    @np.errstate(all="ignore")  # the diagonal and degenerate positions come out untrusted
    def _screen_entries(self) -> tuple[np.ndarray, ...]:
        """The entries as arrays, with t from one n x n broadcast and where it is trusted.

        An entry is also untrusted where its floor is, or where tau/2 lies
        within AXIS_SCREEN_TOL of the floor: :func:`_cut_position` jumps there.
        """
        cls = self.family.cls
        maps = np.array([(m.a, m.b, m.c, m.d) for m in self.to_axis]).T[:, :, None]
        logs = []
        for point in ("alpha", "beta"):
            x, y = np.array([(getattr(k, point).x, getattr(k, point).y) for k in cls]).T
            logs.append(np.log(np.abs((maps[0] * x + maps[1] * y) / (maps[2] * x + maps[3] * y))))
        trusted = (np.abs(logs[0]) <= AXIS_SCREEN_LOG) & (np.abs(logs[1]) <= AXIS_SCREEN_LOG)
        owner, partner = np.array(self.entries).T
        floor = np.repeat(self._key_floors, 2)
        tau = np.array([k.tau for k in cls])[owner]
        t = 0.5 * (logs[0] + logs[1])
        trusted = trusted[owner, partner] & np.repeat(self._key_trusted, 2)
        trusted &= ~(np.abs(0.5 * tau - floor) <= AXIS_SCREEN_TOL)
        return owner, partner, tau, floor, t[owner, partner], trusted


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
    maps, cls = family.maps, family.cls
    n = len(maps)
    pairs = []
    for i, heights in enumerate(table.innermost(extra)):
        if heights is None:
            raise PreconditionViolated(
                f"generator {i} has no admissible partner with sufficient translation length"
            )
        top, bottom = heights
        a, b = table.cut(i, top, cls[i].alpha), table.cut(i, bottom, cls[i].beta)
        pairs.append(SymmetricIntervalPair(a, b, i))
    groups = build_shared_alpha_intervals(family)
    alpha_extra: dict[int, list[BoundaryArc]] = {i: [] for i in range(n)}
    for group in groups:
        for i in group.members:
            alpha_extra[i].append(group.near if group.kind == "alpha" else group.far)
    final_a: list[BoundaryArc] = []
    for i in range(n):
        final_a.append(intersect_around(cls[i].alpha, [pairs[i].a, *alpha_extra[i]]))
    components: list[BoundaryArc] = []
    for members in family.alpha_classes:
        point = cls[members[0]].alpha
        components.append(hull_around(point, [final_a[i] for i in members]))
    union = ArcUnion(components)
    achieved = schottky_margin(maps, union, cls)
    if achieved < margin:
        raise VerificationFailed(
            f"assembled union has margin {achieved:.3e}, below required {margin:.3e}"
        )
    return GlobalIntervalSystem(
        pairs=tuple(pairs),
        groups=groups,
        union=union,
        constant_m=eq_constant(family.cross_ratios),
        margin=achieved,
        notes=table.notes,
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
