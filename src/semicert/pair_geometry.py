"""Cross ratio of two hyperbolic maps and the geometry of their axes.

The cross ratio is evaluated in homogeneous coordinates (2x2 determinants of
endpoint pairs), so infinite fixed points need no branching.  Its value
decodes the axis configuration: crossing angle for negative values, distance
apart for positive ones, shared endpoints at 0 and infinity.  A `Family`
classifies each generator of a set once, decodes each pair once and groups
coinciding fixed points once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .boundary_arcs import BoundaryArc, cluster, contains, rank_one_arcs
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

# |C| or |C - 1| below this counts as a degenerate configuration.
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
    return _decode(require_hyperbolic(f), require_hyperbolic(g))


def _decode(cf: Classification, cg: Classification) -> PairGeometry:
    """Cross ratio of two hyperbolic classifications and the configuration it encodes.

    Crossing axes: C = -tan^2(theta/2) with theta in (0, pi) measured at the
    crossing point on the attracting side.  Disjoint axes: C = tanh^2(d/2)
    below 1 and coth^2(d/2) above 1, d the distance between the axes.
    """
    c = cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta)
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


@dataclass(frozen=True, eq=False)
class Family:
    """Hyperbolic generators with everything the constructions read about them.

    - `cls[i]`: the classification of generator i (fixed points, translation
      length).
    - `pairs[(i, j)]` for i < j: the geometry of generators i and j; the
      cross ratio is symmetric in the pair, so :meth:`pair` serves both
      orders.
    - `alpha_classes`, `beta_classes`: the generators whose attracting
      (repelling) points fall in each class of the one :func:`cluster` of
      all 2n fixed points within ANGLE_TOL, empty ones dropped; a class with
      two or more members is a shared fixed point.
    - `alpha_meets_beta`: the first (i, j) in row-major order whose attracting
      point i and repelling point j share a class, or None.
    - `rank_one_arcs`: the candidate single intervals, read by
      :func:`rank_one_arcs` off the same classes.

    Build values with :meth:`of`, the one place that classifies a family.
    """

    maps: tuple[MoebiusMap, ...]
    cls: tuple[Classification, ...]
    pairs: dict[tuple[int, int], PairGeometry]
    alpha_classes: tuple[tuple[int, ...], ...]
    beta_classes: tuple[tuple[int, ...], ...]
    alpha_meets_beta: tuple[int, int] | None
    rank_one_arcs: tuple[BoundaryArc, ...]
    # The interval assembly's axis table, built on its first use.  Not a
    # field, so it takes no part in construction or repr.
    axis_table = None

    @staticmethod
    def of(F) -> "Family":
        """The family of a sequence of maps; a Family is returned unchanged."""
        if isinstance(F, Family):
            return F
        maps = tuple(F)
        if not maps:
            raise ValueError("need at least one generator")
        cls = tuple(require_hyperbolic(f, f"generator {idx}") for idx, f in enumerate(maps))
        pairs = {
            (i, j): _decode(cls[i], cls[j])
            for i in range(len(cls))
            for j in range(i + 1, len(cls))
        }
        points = [p for k in cls for p in (k.alpha, k.beta)]
        classes = cluster(points, ANGLE_TOL)
        # Point 2i is alpha_i and 2i + 1 is beta_i; members ascend, so the
        # row-major first meeting is the least pair of class heads.
        split = [(tuple(i // 2 for i in c if i % 2 == 0), tuple(i // 2 for i in c if i % 2)) for c in classes]
        alpha_classes = tuple(a for a, _ in split if a)
        beta_classes = tuple(b for _, b in split if b)
        meets = min(((a[0], b[0]) for a, b in split if a and b), default=None)
        return Family(maps, cls, pairs, alpha_classes, beta_classes, meets, rank_one_arcs(points, classes))

    def pair(self, i: int, j: int) -> PairGeometry:
        return self.pairs[(i, j) if i < j else (j, i)]

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


def inverse_flip_identity_check(f: MoebiusMap, g: MoebiusMap) -> tuple[float, float]:
    """(C(f, g), C(f^-1, g)); the product of the two values is 1."""
    return cross_ratio(f, g), cross_ratio(inverse(f), g)


def axes_distance_from_cr(f: MoebiusMap, g: MoebiusMap) -> float:
    """Distance between disjoint axes, from cosh(rho) = (C + 1)/|C - 1|."""
    c = cross_ratio(f, g)
    if not math.isfinite(c) or c <= DEGENERATE_TOL or abs(c - 1.0) <= DEGENERATE_TOL:
        raise DegenerateCrossRatio(f"cross ratio {c!r} admits no distance")
    return distance_from_cross_ratio(c)


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
