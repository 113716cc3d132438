"""Cross ratio of two hyperbolic maps and the geometry of their axes.

The cross ratio is evaluated in homogeneous coordinates (2x2 determinants of
endpoint pairs), so infinite fixed points need no branching.  Its value
decodes the axis configuration: crossing angle for negative values, distance
apart for positive ones, shared endpoints at 0 and infinity.  A `Family`
classifies each generator of a set once, computes each pair's cross ratio
once, decodes a pair at most once and groups coinciding fixed points once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import attrgetter
from typing import Callable

import numpy as np

from .boundary_arcs import BoundaryArc, _cluster, contains, rank_one_arcs
from .errors import (
    AxesCross,
    AxesNotDisjoint,
    DegenerateCrossRatio,
    PreconditionViolated,
    SharedEndpoint,
)
from .moebius_core import (
    ANGLE_TOL,
    BoundaryPoint,
    Classification,
    Geodesic,
    MoebiusMap,
    apply_boundary,
    apply_interior,
    axis_chart,
    hyperbolic_distance,
    inverse,
    require_hyperbolic,
)

# |C| or |C - 1| below this counts as a degenerate configuration; the
# thresholds and the assembly constant leave such cross ratios out.
DEGENERATE_TOL = 1e-9


def _wedge(p: BoundaryPoint, q: BoundaryPoint) -> float:
    return p.x * q.y - p.y * q.x


def cross_ratio(f: MoebiusMap, g: MoebiusMap) -> float:
    """Cross ratio of the fixed-point quadruple; math.inf when alpha meets beta."""
    cf, cg = require_hyperbolic(f), require_hyperbolic(g)
    return cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta)


def cross_ratio_of_points(
    alpha_f: BoundaryPoint, beta_f: BoundaryPoint, alpha_g: BoundaryPoint, beta_g: BoundaryPoint
) -> float:
    num = _wedge(alpha_f, alpha_g) * _wedge(beta_f, beta_g)
    den = _wedge(alpha_f, beta_g) * _wedge(beta_f, alpha_g)
    if den == 0.0:
        return math.inf
    value = num / den
    # Homogeneous coordinates are unit vectors, so num/den are O(1); treat a
    # ratio beyond any representable configuration as the projective infinity.
    if not math.isfinite(value):
        return math.inf
    return value


@dataclass(frozen=True)
class PairGeometry:
    """Cross ratio plus the decoded axis configuration.

    `kind` is one of "crossing", "disjoint", "shared_alpha", "shared_beta",
    "alpha_meets_beta", "parabolic_degenerate".  Angle and distance are
    available through :attr:`theta` and :attr:`distance` only for the kinds
    that define them.
    """

    cross_ratio: float
    kind: str
    _theta: float | None = None
    _distance: float | None = None
    nested_attractors: bool | None = None

    @property
    def theta(self) -> float:
        if self._theta is None:
            raise DegenerateCrossRatio(f"{self.kind} configuration has no crossing angle")
        return self._theta

    @property
    def distance(self) -> float:
        if self._distance is None:
            raise DegenerateCrossRatio(f"{self.kind} configuration has no axis distance")
        return self._distance


def configuration(f: MoebiusMap, g: MoebiusMap) -> PairGeometry:
    """Decode the axis configuration of a hyperbolic pair from its cross ratio."""
    cf, cg = require_hyperbolic(f), require_hyperbolic(g)
    return _decode(cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta), cf, cg)


def _decode(c: float, cf: Classification, cg: Classification) -> PairGeometry:
    """The configuration that the cross ratio c of two hyperbolic classifications encodes.

    Crossing axes: C = -tan^2(theta/2) with theta in (0, pi) measured at the
    crossing point on the attracting side.  Disjoint axes: C = tanh^2(d/2)
    below 1 and coth^2(d/2) above 1, d the distance between the axes.
    """
    if math.isinf(c):
        return PairGeometry(cross_ratio=c, kind="alpha_meets_beta")
    if abs(c) <= DEGENERATE_TOL:
        kind = "shared_alpha" if cf.alpha.approx(cg.alpha) else "shared_beta"
        return PairGeometry(cross_ratio=c, kind=kind)
    if abs(c - 1.0) <= DEGENERATE_TOL:
        return PairGeometry(cross_ratio=c, kind="parabolic_degenerate")
    if c < 0.0:
        theta = 2.0 * math.atan(math.sqrt(-c))
        return PairGeometry(cross_ratio=c, kind="crossing", _theta=theta)
    if c < 1.0:
        d = 2.0 * math.atanh(math.sqrt(c))
        return PairGeometry(cross_ratio=c, kind="disjoint", _distance=d, nested_attractors=False)
    d = 2.0 * math.atanh(1.0 / math.sqrt(c))
    return PairGeometry(cross_ratio=c, kind="disjoint", _distance=d, nested_attractors=True)


# Pairs from which `Family.of` keeps the pair table as arrays: the cross
# ratios from one gather over the fixed points, the kinds from one search of
# `_KIND_EDGES`, and a PairGeometry decoded only when asked for.  The one size
# switch: the cut ranking and the verifier follow the family's path.  `certify`
# plus the writer, array path over scalar path, on seeded
# `bench/families.admissible_family` draws: in one process, paths alternated,
# median over 8 families of the ratio of the fastest of 30 runs, 2-core VM.
# n = 8 sits at the crossover (two earlier runs read 1.02 and 1.03), so the
# switch is at n = 9, from which arrays were faster in all three runs.
#   n (pairs)   4 (6)  5 (10)  6 (15)  7 (21)  8 (28)  9 (36)  10 (45)  12 (66)  16 (120)  32 (496)
#   arrays      2.00   1.68    1.38    1.12    0.95    0.82    0.71     0.57     0.39      0.16
PAIR_ARRAY_MIN_PAIRS = 36

_XY = attrgetter("x", "y")

# Kind codes of the array table, in the order of `_decode`'s tests.
MEETS, SHARED, PARABOLIC, CROSSING, DISJOINT, NESTED = range(6)

# The kind code of a cross ratio c is `_KIND_OF_BIN` at the number of
# `_KIND_EDGES` at most c: the least ratios of the kinds after CROSSING, as the
# first test of `_decode` that holds decides.  Near 1, c - 1 is exact, and the
# float 1 - tol is the least ratio with |c - 1| <= tol, 1 + tol the least above.
_KIND_OF_BIN = np.array([CROSSING, SHARED, DISJOINT, PARABOLIC, NESTED, MEETS])
_KIND_EDGES = np.array([-DEGENERATE_TOL, math.nextafter(DEGENERATE_TOL, 1.0), 1.0 - DEGENERATE_TOL, 1.0 + DEGENERATE_TOL, math.inf])


def _kinds(c: np.ndarray) -> np.ndarray:
    """The kind codes of cross ratios, each finite or inf, as `_decode` decides them."""
    return _KIND_OF_BIN[_KIND_EDGES.searchsorted(c, side="right")]


@np.errstate(all="ignore")  # den == 0 and overflowing ratios become inf, as in the scalar code
def _cross_ratio_table(fixed_points: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Cross ratio and kind code of every pair i < j, in row-major order, from `Family.fixed_points`, and the i and j.

    The four wedges p.x * q.y - p.y * q.x of every pair come from one gather
    and their ratio as in :func:`cross_ratio_of_points`, so every ratio equals
    the scalar one bit for bit; a zero `den` gives inf or NaN, not finite.
    """
    gather, pair_index = _pair_gathers(fixed_points.shape[-1])
    px, py, qx, qy = fixed_points.ravel()[gather]
    w = px * qy - py * qx
    c = (w[0] * w[1]) / (w[2] * w[3])
    c[~np.isfinite(c)] = np.inf
    return c, _kinds(c), pair_index


@lru_cache(maxsize=16)  # about 70 n^2 bytes each
def _pair_gathers(n: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Flat indices into `Family.fixed_points` (rows ax, ay, bx, by) of p and q in the wedges p ^ q of each pair i < j, and i and j.

    The wedges are alpha_i ^ alpha_j and beta_i ^ beta_j (the numerator), alpha_i ^ beta_j and beta_i ^ alpha_j.
    """
    i, j = np.triu_indices(n, 1)
    rows = np.array([[0, 2, 0, 2], [1, 3, 1, 3], [0, 2, 2, 0], [1, 3, 3, 1]])[:, :, None]
    gather = rows * n + np.stack([i, i, j, j])[:, None, :]
    gather.flags.writeable = i.flags.writeable = j.flags.writeable = False  # shared by every family of n generators
    return gather, (i, j)


# Relative tolerance of :func:`screened_max`: numpy's log and math.log agree
# to a few ulps, far inside it.
PAIR_SCREEN_TOL = 1e-12


def screened_max(cs: np.ndarray, approx: np.ndarray, exact: Callable[[float], float]) -> float | None:
    """max(exact(c) for c in cs), with exact evaluated only near the top of `approx`.

    `approx` holds exact(cs) from numpy functions, within a few ulps of the
    scalar values; every entry within PAIR_SCREEN_TOL (relative) of its
    maximum, or not finite, is recomputed by `exact`, so the result is the
    scalar maximum bit for bit.  None when `cs` is empty.
    """
    if not cs.size:
        return None
    top = approx.max()
    near = ~(approx < top - PAIR_SCREEN_TOL * (1.0 + abs(top)))  # an inf or NaN top keeps them all
    return max(exact(c) for c in cs[near].tolist())


@dataclass(frozen=True, eq=False)
class Family:
    """Hyperbolic generators with everything the constructions read about them.

    - `cls[i]`: the classification of generator i (fixed points, translation
      length).
    - `cross_ratios`: the cross ratio of each pair i < j, in row-major
      order; a list, or from PAIR_ARRAY_MIN_PAIRS pairs on (n >= 9) an array, with
      the kind codes of the pairs in `kinds` and their generators i and j
      in `pair_index` (read only; both None on the list path).  That is the family's
      path: a list table is assembled, ranked and verified in scalar, an
      array table on arrays, with the ranking and the verifier screened.
    - :meth:`pair`: the geometry of generators i and j, decoded on first
      use; the cross ratio is symmetric in the pair, so it serves both
      orders.  `pairs` maps every (i, j), i < j, to its geometry.
    - `fixed_points`: x and y of the attracting points, then of the
      repelling points, shape (2, 2, n); built with the array pair table,
      or on first use.
    - `alpha_classes`, `beta_classes`: the generators whose attracting
      (repelling) points fall in each class of the one :func:`cluster` of
      all 2n fixed points within ANGLE_TOL, empty ones dropped; a class with
      two or more members is a shared fixed point.
    - `alpha_meets_beta`: the first (i, j) in row-major order whose attracting
      point i and repelling point j share a class, or None.
    - `rank_one_arcs`: the candidate single intervals, read by
      :func:`rank_one_arcs` off the same classes, in the angle order that
      the clustering sorted.

    Build values with :meth:`of`, the one place that classifies a family.
    """

    maps: tuple[MoebiusMap, ...]
    cls: tuple[Classification, ...]
    cross_ratios: list[float] | np.ndarray
    kinds: np.ndarray | None
    pair_index: tuple[np.ndarray, np.ndarray] | None
    alpha_classes: tuple[tuple[int, ...], ...]
    beta_classes: tuple[tuple[int, ...], ...]
    alpha_meets_beta: tuple[int, int] | None
    rank_one_arcs: tuple[BoundaryArc, ...]
    _decoded: dict[tuple[int, int], PairGeometry] = field(default_factory=dict, repr=False)

    @staticmethod
    def of(F) -> "Family":
        """The family of a sequence of maps; a Family is returned unchanged."""
        if isinstance(F, Family):
            return F
        maps = tuple(F)
        if not maps:
            raise ValueError("need at least one generator")
        cls = tuple(require_hyperbolic(f, f"generator {idx}") for idx, f in enumerate(maps))
        n = len(cls)
        # Point 2i is alpha_i and 2i + 1 is beta_i.
        points = [p for k in cls for p in (k.alpha, k.beta)]
        if n * (n - 1) // 2 < PAIR_ARRAY_MIN_PAIRS:
            decoded = {
                (i, j): _decode(cross_ratio_of_points(ci.alpha, ci.beta, cj.alpha, cj.beta), ci, cj)
                for i, ci in enumerate(cls)
                for j, cj in enumerate(cls[i + 1 :], i + 1)
            }
            cross_ratios, kinds, pair_index = [pg.cross_ratio for pg in decoded.values()], None, None
        else:
            decoded, fixed_points = {}, _coordinates(points)
            cross_ratios, kinds, pair_index = _cross_ratio_table(fixed_points)
        classes, by_angle = _cluster(points, ANGLE_TOL)
        alpha_classes, beta_classes, meets = _split(classes)
        arcs = rank_one_arcs(points, by_angle)
        family = Family(maps, cls, cross_ratios, kinds, pair_index, alpha_classes, beta_classes, meets, arcs, decoded)
        if kinds is not None:
            object.__setattr__(family, "fixed_points", fixed_points)  # cached: the array the pair table read
        return family

    def pair(self, i: int, j: int) -> PairGeometry:
        key = (i, j) if i < j else (j, i)
        pg = self._decoded.get(key)
        if pg is None:
            i, j = key
            if not 0 <= i < j < len(self.cls):
                raise KeyError(key)
            c = float(self.cross_ratios[i * (2 * len(self.cls) - i - 1) // 2 + j - i - 1])
            pg = self._decoded[key] = _decode(c, self.cls[i], self.cls[j])
        return pg

    @property
    def pairs(self) -> dict[tuple[int, int], PairGeometry]:
        """Every pair's geometry, (i, j) with i < j in row-major order."""
        if self.kinds is None:
            return self._decoded  # decoded in that order by :meth:`of`
        return self._all_pairs

    @cached_property
    def fixed_points(self) -> np.ndarray:
        return _coordinates([p for k in self.cls for p in (k.alpha, k.beta)])

    @cached_property
    def _all_pairs(self) -> dict[tuple[int, int], PairGeometry]:
        n = len(self.cls)
        return {(i, j): self.pair(i, j) for i in range(n) for j in range(i + 1, n)}

    def disjoint_pair(self, i: int, j: int) -> PairGeometry:
        """The geometry of (i, j); raises AxesNotDisjoint unless C > 1."""
        pg = self.pair(i, j)
        if pg.kind != "disjoint" or not pg.nested_attractors:
            raise AxesNotDisjoint(
                f"configuration is {pg.kind!r} with C = {pg.cross_ratio!r}, not above 1"
            )
        return pg

    def require_alpha_apart_from_beta(self) -> None:
        """Raise PreconditionViolated where an attracting point meets a repelling one."""
        if self.alpha_meets_beta is not None:
            i, j = self.alpha_meets_beta
            raise PreconditionViolated(f"attracting point of generator {i} meets repelling point of {j}")


def _coordinates(points: list[BoundaryPoint]) -> np.ndarray:
    """`Family.fixed_points` of the points alpha_0, beta_0, alpha_1, ..."""
    n = len(points) // 2
    xy = np.fromiter(chain.from_iterable(map(_XY, points)), dtype=float, count=4 * n)
    return xy.reshape(n, 2, 2).transpose(1, 2, 0)


def _split(classes: list[list[int]]) -> tuple[tuple, tuple, tuple[int, int] | None]:
    """`Family.alpha_classes`, `beta_classes` and `alpha_meets_beta` of the classes of the points 2i (alpha_i) and 2i + 1 (beta_i).

    Members ascend, so the row-major first meeting is the least pair of the
    first attracting and the first repelling member of a class.
    """
    alpha, beta, meets = [], [], None
    for members in classes:
        if len(members) == 1:  # nearly every class
            i = members[0]
            (beta if i % 2 else alpha).append((i // 2,))
            continue
        a = tuple(i // 2 for i in members if i % 2 == 0)
        b = tuple(i // 2 for i in members if i % 2)
        if a:
            alpha.append(a)
        if b:
            beta.append(b)
        if a and b:
            meets = min(meets or (a[0], b[0]), (a[0], b[0]))
    return tuple(alpha), tuple(beta), meets


def inverse_flip_identity_check(f: MoebiusMap, g: MoebiusMap) -> tuple[float, float]:
    """(C(f, g), C(f^-1, g)); the product of the two values is 1."""
    return cross_ratio(f, g), cross_ratio(inverse(f), g)


def distance_from_cross_ratio(c: float) -> float:
    """log((sqrt C + 1)/|sqrt C - 1|), the axis distance of a disjoint pair."""
    s = math.sqrt(c)
    return math.log((s + 1.0) / abs(s - 1.0))


# --- half-plane circle geometry -------------------------------------------


def geodesics_cross(g1: Geodesic, g2: Geodesic) -> bool:
    """Whether the lines cross in the open half-plane (endpoints interleave)."""
    arc = BoundaryArc(g1.start, g1.end)
    return contains(arc, g2.start) != contains(arc, g2.end)


def _shared_endpoint(g1: Geodesic, g2: Geodesic, tol: float) -> bool:
    return any(
        p.angular_distance(q) <= tol
        for p in (g1.start, g1.end)
        for q in (g2.start, g2.end)
    )


def common_perpendicular(
    l1: Geodesic, l2: Geodesic, tol: float = 1e-12
) -> tuple[Geodesic, complex, complex, float]:
    """Unique line orthogonal to both disjoint lines, its feet, and their distance.

    The perpendicular runs from the foot on `l1` to the foot on `l2`.  It is
    found in the chart of `l1` (`axis_chart`, `l1` on 0 -> inf), where `l2`
    joins u and v of one sign: the perpendicular is the half-circle of radius
    r = sqrt(uv) about 0, with feet i*r and (2uv/(u+v), r*|u-v|/|u+v|).
    """
    if _shared_endpoint(l1, l2, tol):
        raise SharedEndpoint("lines share a boundary endpoint")
    if geodesics_cross(l1, l2):
        raise AxesCross("lines cross; no common perpendicular exists")
    chart = axis_chart(l1)
    to_chart = inverse(chart)
    u = apply_boundary(to_chart, l2.start).value
    v = apply_boundary(to_chart, l2.end).value
    r = math.sqrt(u * v)
    near, far = 1j * r, complex(2.0 * u * v / (u + v), r * abs(u - v) / abs(u + v))
    end = math.copysign(r, u)
    perp = Geodesic(
        apply_boundary(chart, BoundaryPoint.from_real(-end)),
        apply_boundary(chart, BoundaryPoint.from_real(end)),
    )
    return perp, apply_interior(chart, near), apply_interior(chart, far), hyperbolic_distance(near, far)
