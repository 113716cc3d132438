"""Cross ratio of two hyperbolic maps and the geometry of their axes.

The cross ratio is evaluated in homogeneous coordinates (2x2 determinants of
endpoint pairs), so infinite fixed points need no branching.  Its value
decodes the axis configuration: crossing angle for negative values, distance
apart for positive ones, shared endpoints at 0 and infinity.  A `Family`
classifies each generator of a set once, computes each pair's cross ratio
once, when the pair table is first read, decodes a pair only when it is
read, at most once, and groups coinciding fixed points once.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import chain
from operator import attrgetter
from typing import Callable, Iterator

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
    _filled,
    _not_hyperbolic,
    apply_boundary,
    apply_interior,
    axis_chart,
    classify,
    hyperbolic_distance,
    inverse,
    require_hyperbolic,
)

# |C| or |C - 1| below this counts as a degenerate configuration, a SHARED
# or PARABOLIC pair.  By the bound rule below such pairs, like MEETS ones,
# enter no bound.
DEGENERATE_TOL = 1e-9


def cross_ratio(f: MoebiusMap, g: MoebiusMap) -> float:
    """Cross ratio of the fixed-point quadruple; math.inf when alpha meets beta."""
    cf, cg = require_hyperbolic(f, "f"), require_hyperbolic(g, "g")
    return cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta)


def cross_ratio_of_points(
    alpha_f: BoundaryPoint, beta_f: BoundaryPoint, alpha_g: BoundaryPoint, beta_g: BoundaryPoint
) -> float:
    # (alpha_f ^ alpha_g)(beta_f ^ beta_g) over (alpha_f ^ beta_g)(beta_f ^ alpha_g), with p ^ q = p.x q.y - p.y q.x.
    num = (alpha_f.x * alpha_g.y - alpha_f.y * alpha_g.x) * (beta_f.x * beta_g.y - beta_f.y * beta_g.x)
    den = (alpha_f.x * beta_g.y - alpha_f.y * beta_g.x) * (beta_f.x * alpha_g.y - beta_f.y * alpha_g.x)
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


# Kind codes of a pair, for the first of these that its cross ratio C meets:
# |C| = inf, |C| <= DEGENERATE_TOL, |C - 1| <= DEGENERATE_TOL, C < 0, C < 1, C > 1.
MEETS, SHARED, PARABOLIC, CROSSING, DISJOINT, NESTED = range(6)
# The `PairGeometry.kind` of each code; a SHARED pair is labelled by its endpoints.
_KIND_NAMES = ("alpha_meets_beta", None, "parabolic_degenerate", "crossing", "disjoint", "disjoint")

# The kind rule, the one place that decides a pair's kind: the code of a
# cross ratio c, any float but NaN, is `_KIND_OF_BIN` at the number of
# `_KIND_EDGES` at most c, each edge the least ratio of the next bin, so -inf
# is MEETS as inf is.  Near 1, c - 1 is exact, and the float 1 - tol is the
# least ratio with |c - 1| <= tol, 1 + tol the least above.  `_kind` bisects
# the same values as Python numbers.
_KIND_OF_BIN = np.array([MEETS, CROSSING, SHARED, DISJOINT, PARABOLIC, NESTED, MEETS])
_KIND_EDGES = np.array([math.nextafter(-math.inf, 0.0), -DEGENERATE_TOL, math.nextafter(DEGENERATE_TOL, 1.0), 1.0 - DEGENERATE_TOL, 1.0 + DEGENERATE_TOL, math.inf])
_BINS, _EDGES = _KIND_OF_BIN.tolist(), _KIND_EDGES.tolist()


def _kind(c: float) -> int:
    """The kind code of one cross ratio."""
    return _BINS[bisect_right(_EDGES, c)]


def _kinds(cs: list[float] | np.ndarray) -> list[int] | np.ndarray:
    """The kind codes of cross ratios, a list or an array, in the same form."""
    if isinstance(cs, np.ndarray):
        return _KIND_OF_BIN[_KIND_EDGES.searchsorted(cs, side="right")]
    return [_BINS[bisect_right(_EDGES, c)] for c in cs]  # `_kind` inline


# The bound rule, the one place that decides which pairs enter the bounds
# built from the pair table: row `code` of `_BOUNDS_OF_KIND` says whether a
# pair of that kind code enters the lower bound 0.2 min (C - 1)/(C + 3), the
# upper bound 4 max |log|C(C - 1)|| + 23 and the largest pair gate, and the
# largest axis distance.  NESTED pairs enter all three, DISJOINT pairs the
# last two and CROSSING pairs the upper bound; MEETS, SHARED and PARABOLIC
# pairs enter none, so no term takes the log of 0 or of inf.
_BOUNDS_OF_KIND = np.array([[False] * 3] * 3 + [[False, True, False], [False, True, True], [True, True, True]])
_BOUNDS = _BOUNDS_OF_KIND.tolist()
# Additive slack on translation lengths required by the pair constructions.
PAIR_GATE_SLACK = 1.5


def _bound_ratios(cs: list[float] | np.ndarray, codes: list[int] | np.ndarray, columns: tuple[int, int]) -> tuple:
    """The ratios of `cs`, a list or an array, with kind codes `codes`, that enter each bound in `columns` (0 the lower bound, 1 the upper bound and the largest pair gate, 2 the largest axis distance), in table order."""
    if isinstance(cs, np.ndarray):
        return tuple(cs[_BOUNDS_OF_KIND[:, k][codes]] for k in columns)
    return tuple([c for c, code in zip(cs, codes) if _BOUNDS[code][k]] for k in columns)


def _lower_term(c: float) -> float:
    """(C - 1)/(C + 3), a NESTED pair's term of the lower bound."""
    return (c - 1.0) / (c + 3.0)


def _upper_term(c: float) -> float:
    """|log|C(C - 1)||, a pair's term of the upper bound."""
    return abs(math.log(abs(c * (c - 1.0))))


def pair_gate(c: float) -> float:
    """|log|C|| + 3/2, the translation-length gate of a pair; log C + 3/2 when C > 1."""
    return abs(math.log(abs(c))) + PAIR_GATE_SLACK


def configuration(f: MoebiusMap, g: MoebiusMap) -> PairGeometry:
    """Decode the axis configuration of a hyperbolic pair from its cross ratio."""
    cf, cg = require_hyperbolic(f, "f"), require_hyperbolic(g, "g")
    c = cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta)
    return _decode(c, _kind(c), cf, cg)


def _decode(c: float, code: int, cf: Classification, cg: Classification) -> PairGeometry:
    """The configuration that the cross ratio c, of kind code `code`, of two hyperbolic classifications encodes.

    Crossing axes: C = -tan^2(theta/2) with theta in (0, pi) measured at the
    crossing point on the attracting side.  Disjoint axes: C = tanh^2(d/2)
    below 1 and coth^2(d/2) above 1, d the distance between the axes.
    """
    kind, theta, distance, nested = _KIND_NAMES[code], None, None, None
    if code == SHARED:
        kind = "shared_alpha" if cf.alpha.approx(cg.alpha) else "shared_beta"
    elif code == CROSSING:
        theta = 2.0 * math.atan(math.sqrt(-c))
    elif code in (DISJOINT, NESTED):
        nested = code == NESTED
        distance = 2.0 * math.atanh(1.0 / math.sqrt(c) if nested else math.sqrt(c))
    return _filled(PairGeometry, {"cross_ratio": c, "kind": kind, "_theta": theta, "_distance": distance, "nested_attractors": nested})


# Pairs from which `Family` keeps the cross ratios as an array, from one
# gather over the fixed points, not a list.  The one size switch: the cut
# ranking and the verifier follow the family's path.  `certify` plus the
# writer, arrays over lists, on seeded `bench/families` draws (median over
# 8 families of the fastest of 30, paths alternated, range over 3 runs,
# 2-core VM): the Schottky draws are faster on lists up to n = 12, and the
# rank-one draws, which no longer compute the pair table, do not favour
# lists at n = 10 in every run, so the switch stays at n = 10.
#   n (pairs)          8 (28)     9 (36)     10 (45)    11 (55)    12 (66)
#   admissible_family  1.57-1.65  1.37-1.45  1.26-1.34  1.10-1.27  1.03-1.05
#   rank_one_family    0.99-1.00  1.00-1.02  0.99-1.00  0.99-1.01  1.00-1.01
PAIR_ARRAY_MIN_PAIRS = 45

_XY = attrgetter("x", "y")


@np.errstate(all="ignore")  # den == 0 and overflowing ratios become inf, as in the scalar code
def _cross_ratio_table(fixed_points: np.ndarray) -> np.ndarray:
    """Cross ratio of every pair i < j, in row-major order, from `Family.fixed_points`.

    The four wedges p.x * q.y - p.y * q.x of every pair come from one gather
    and their ratio as in :func:`cross_ratio_of_points`, so every ratio equals
    the scalar one bit for bit; a zero `den` gives inf or NaN, not finite.
    """
    px, py, qx, qy = fixed_points.ravel()[_pair_gathers(fixed_points.shape[-1])[0]]
    w = px * qy - py * qx
    c = (w[0] * w[1]) / (w[2] * w[3])
    c[~np.isfinite(c)] = np.inf
    return c


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
    - `cross_ratios`: the pair table, the cross ratio of each pair i < j in
      row-major order, computed on first read (a family certified by one
      rank-one interval never reads it): a list, or from
      PAIR_ARRAY_MIN_PAIRS pairs on (n >= 10) an array, whose type is the
      family's path (a list table is assembled, ranked and verified in
      scalar, an array table on arrays, screened); `kinds`, in the same
      form, each ratio's kind code by `_KIND_EDGES`, the one kind rule,
      computed with the table and read by everything that bins it.
    - :meth:`pair_rows`, :meth:`cross_ratio`: the table's rows, each pair's
      (i, j), C and kind code, and one pair's C, in either order; neither
      decodes a pair.
    - :meth:`pair`: the geometry of generators i and j, in either order,
      decoded on first use from the pair's C and stored kind code, read
      through the one row index that :meth:`cross_ratio` reads, so no ratio
      is binned again; `pairs` maps every (i, j), i < j, to it.
    - `fixed_points`: x and y of the attracting points, then of the
      repelling points, shape (2, 2, n), on first use (the array pair
      table reads it).
    - `alpha_classes`, `beta_classes`: the generators whose attracting
      (repelling) points fall in each class of the one :func:`cluster` of
      all 2n fixed points within ANGLE_TOL, empty ones dropped; a class with
      two or more members is a shared fixed point.
    - `alpha_meets_beta`: the first (i, j) in row-major order whose attracting
      point i and repelling point j share a class, or None.
    - `rank_one_arcs`: the candidate single intervals, read by
      :func:`rank_one_arcs` off the same classes, in the angle order that
      the clustering sorted.

    Build values with :meth:`of`, the one place that classifies a family;
    it classifies each generator once, computes no cross ratio, decodes no
    pair, and raises NotHyperbolic naming the first `generator k` that is
    not hyperbolic.
    """

    maps: tuple[MoebiusMap, ...]
    cls: tuple[Classification, ...]
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
        cls = tuple(map(classify, maps))
        for idx, k in enumerate(cls):
            if not k.is_hyperbolic:
                raise _not_hyperbolic(k, f"generator {idx}")
        # Point 2i is alpha_i and 2i + 1 is beta_i.
        points = [p for k in cls for p in (k.alpha, k.beta)]
        classes, by_angle = _cluster(points, ANGLE_TOL)
        alpha_classes, beta_classes, meets = _split(classes)
        return _filled(Family, {
            "maps": maps, "cls": cls,
            "alpha_classes": alpha_classes, "beta_classes": beta_classes, "alpha_meets_beta": meets,
            "rank_one_arcs": rank_one_arcs(points, by_angle), "_decoded": {},
        })

    @cached_property
    def cross_ratios(self) -> list[float] | np.ndarray:
        cls = self.cls
        n = len(cls)
        if n * (n - 1) // 2 < PAIR_ARRAY_MIN_PAIRS:
            cs = [cross_ratio_of_points(ci.alpha, ci.beta, cj.alpha, cj.beta) for i, ci in enumerate(cls) for cj in cls[i + 1 :]]
        else:
            cs = _cross_ratio_table(self.fixed_points)
        self.__dict__["kinds"] = _kinds(cs)  # in the same pass, and never again
        return cs

    @cached_property
    def kinds(self) -> list[int] | np.ndarray:
        self.cross_ratios  # sets this attribute
        return self.__dict__["kinds"]

    def pair_rows(self) -> Iterator[tuple[tuple[int, int], float, int]]:
        """((i, j), C, kind code) of every pair i < j, in row-major order."""
        n, cs, codes = len(self.cls), self.cross_ratios, self.kinds
        if isinstance(cs, np.ndarray):
            cs, codes = cs.tolist(), codes.tolist()
        return zip(((i, j) for i in range(n) for j in range(i + 1, n)), cs, codes)

    def _row(self, i: int, j: int) -> int:
        """The row of the pair of generators i and j, in either order, in the pair table."""
        i, j, n = min(i, j), max(i, j), len(self.cls)
        if not 0 <= i < j < n:
            raise KeyError((i, j))
        return i * (2 * n - i - 1) // 2 + j - i - 1

    def cross_ratio(self, i: int, j: int) -> float:
        """The cross ratio of generators i and j, in either order."""
        return float(self.cross_ratios[self._row(i, j)])

    def pair(self, i: int, j: int) -> PairGeometry:
        key = (i, j) if i < j else (j, i)
        if key not in self._decoded:
            row = self._row(i, j)
            c, code = float(self.cross_ratios[row]), int(self.kinds[row])
            self._decoded[key] = _decode(c, code, self.cls[key[0]], self.cls[key[1]])
        return self._decoded[key]

    @cached_property
    def pairs(self) -> dict[tuple[int, int], PairGeometry]:
        """Every pair's geometry, (i, j) with i < j in row-major order."""
        return {key: self.pair(*key) for key, _, _ in self.pair_rows()}

    @cached_property
    def fixed_points(self) -> np.ndarray:
        return _coordinates([p for k in self.cls for p in (k.alpha, k.beta)])

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
        a = tuple([i // 2 for i in members if i % 2 == 0])
        b = tuple([i // 2 for i in members if i % 2])
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


def common_perpendicular(
    l1: Geodesic, l2: Geodesic, tol: float = 1e-12
) -> tuple[Geodesic, complex, complex, float]:
    """Unique line orthogonal to both disjoint lines, its feet, and their distance.

    The perpendicular runs from the foot on `l1` to the foot on `l2`.  It is
    found in the chart of `l1` (`axis_chart`, `l1` on 0 -> inf), where `l2`
    joins u and v of one sign: the perpendicular is the half-circle of radius
    r = sqrt(uv) about 0, with feet i*r and (2uv/(u+v), r*|u-v|/|u+v|).
    """
    if any(p.angular_distance(q) <= tol for p in (l1.start, l1.end) for q in (l2.start, l2.end)):
        raise SharedEndpoint("lines share a boundary endpoint")
    arc = BoundaryArc(l1.start, l1.end)
    if contains(arc, l2.start) != contains(arc, l2.end):  # the endpoints interleave
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
