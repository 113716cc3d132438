"""Mobius transformations of the upper half-plane and its boundary circle.

Boundary points are homogeneous pairs so that infinity is an ordinary value;
all boundary comparisons are angular in the disc model, reached through a
fixed Cayley transfer.  Interior points are plain complex numbers with
positive imaginary part.
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from itertools import chain, repeat
from operator import attrgetter
from typing import Callable

import numpy as np

from .errors import CoincidentEndpoints, InvalidMatrix, NonPositiveDeterminant, NotHyperbolic, SingularMatrix

TWO_PI = 2.0 * math.pi

# |trace| vs 2 tolerance separating parabolic from elliptic/hyperbolic.
TRACE_TOL = 1e-9
# max-entry tolerance for identifying +/-I.
IDENTITY_TOL = 1e-9
# angular tolerance for boundary-point identity checks.
ANGLE_TOL = 1e-9
# the determinant rule of `normalize`, relative to the largest squared entry
# when that exceeds UNIT_SCALE2: a determinant within DET_ROUND_TOL (64 units
# of rounding) of 1 is rounding, and one at most DET_REL_TOL drowns in it.
UNIT_SCALE2 = 1e12
DET_ROUND_TOL = 64 * 2.0**-53
DET_REL_TOL = 1e-9


class FrozenValue:
    """Base of the value types built in bulk: immutable slotted instances.

    A subclass names its fields in `_fields`, reads them with
    `_key = attrgetter(*_fields)` and sets them in `__init__` through the
    slots' member descriptors.  Equality (within one class), hashing, repr,
    copy and pickle follow `_fields`, as for a frozen dataclass; assigning or
    deleting any attribute raises FrozenInstanceError.
    """

    __slots__ = ()
    _fields: tuple[str, ...]
    _key: attrgetter

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._key(self)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


class BoundaryPoint(FrozenValue):
    """Point of R u {inf} as a homogeneous pair (x : y), meaning x/y.

    Canonical form: x^2 + y^2 = 1 and y > 0, or y == 0 and x > 0, so that
    infinity is exactly (1, 0).  Use :meth:`of` to build canonical values.

    A slotted class, not a frozen dataclass, because certification builds
    points in bulk and the dataclass `__init__` nearly doubled their cost.
    `angle` stays a property (the benchmark tracer counts reads by rebinding
    its `fget`); it caches into the `_angle` slot, which is not a field and
    takes no part in equality, hashing or repr.
    """

    __slots__ = ("x", "y", "_angle")
    _fields = ("x", "y")
    _key = attrgetter(*_fields)

    def __init__(self, x: float, y: float):
        _point_x(self, x)
        _point_y(self, y)
        _point_angle(self, None)

    @staticmethod
    def of(x: float, y: float) -> "BoundaryPoint":
        # `_canonical_point` and `__init__` inlined: through the first, verdict-mix's n = 5 inputs (its p50) read 3-6% slower.
        n = math.hypot(x, y)
        if n == 0.0 or not math.isfinite(n):
            raise ValueError(f"invalid homogeneous pair ({x!r}, {y!r})")
        x, y = x / n, y / n
        if y < 0.0 or (y == 0.0 and x < 0.0):
            x, y = -x, -y
        p = _new(BoundaryPoint)
        _point_x(p, x)
        _point_y(p, y)
        _point_angle(p, None)
        return p

    @staticmethod
    def from_real(v: float) -> "BoundaryPoint":
        if math.isnan(v):
            raise ValueError("boundary value is NaN")
        if math.isinf(v):
            return BoundaryPoint(1.0, 0.0)
        return BoundaryPoint.of(v, 1.0)

    @staticmethod
    def infinity() -> "BoundaryPoint":
        return BoundaryPoint(1.0, 0.0)

    @staticmethod
    def from_angle(theta: float) -> "BoundaryPoint":
        return _point_at(*_angle_point(theta))

    @property
    def angle(self) -> float:
        """Disc-model angle in [0, 2*pi); infinity sits at angle 0.

        Computed once per point.  A point so close to infinity that the
        modulo rounds up to 2*pi gets infinity's angle, 0.
        """
        theta = self._angle
        if theta is None:
            theta = (-2.0 * math.atan2(self.y, self.x)) % TWO_PI
            if theta == TWO_PI:
                theta = 0.0
            _point_angle(self, theta)
        return theta

    @property
    def value(self) -> float:
        """Half-plane coordinate; infinity maps to math.inf."""
        if abs(self.y) < 1e-300:
            return math.inf
        return self.x / self.y

    def angular_distance(self, other: "BoundaryPoint") -> float:
        d = abs(self.angle - other.angle) % TWO_PI
        return min(d, TWO_PI - d)

    def approx(self, other: "BoundaryPoint", tol: float = ANGLE_TOL) -> bool:
        return self.angular_distance(other) <= tol


_new = object.__new__
_point_x = BoundaryPoint.x.__set__
_point_y = BoundaryPoint.y.__set__
_point_angle = BoundaryPoint._angle.__set__
_set_attribute = object.__setattr__


def _canonical_point(x: float, y: float) -> tuple[float, float, float]:
    """The x, y and `angle` of `BoundaryPoint.of(x, y)`, bit for bit, without building the point; raises its ValueError."""
    n = math.hypot(x, y)
    if n == 0.0 or not math.isfinite(n):
        raise ValueError(f"invalid homogeneous pair ({x!r}, {y!r})")
    x, y = x / n, y / n
    if y < 0.0 or (y == 0.0 and x < 0.0):
        x, y = -x, -y
    theta = (-2.0 * math.atan2(y, x)) % TWO_PI
    return x, y, 0.0 if theta == TWO_PI else theta


def _angle_point(theta: float) -> tuple[float, float, float]:
    """The x, y and `angle` of `BoundaryPoint.from_angle(theta)`, the inverse of `angle`: theta = -2*atan2(y, x) mod 2*pi."""
    return _canonical_point(math.cos(0.5 * theta), -math.sin(0.5 * theta))


def _point_at(x: float, y: float, angle: float) -> BoundaryPoint:
    """The `BoundaryPoint` of a canonical pair whose angle is already computed, built once."""
    p = _new(BoundaryPoint)
    _point_x(p, x)
    _point_y(p, y)
    _point_angle(p, angle)
    return p


def _filled(cls: type, fields: dict):
    """An instance of the frozen dataclass `cls` whose attributes are `fields`, every field in order.

    Skips the keyword `__init__`, whose per-field `object.__setattr__`
    calls cost more than the arithmetic of `classify` or `_decode`.
    """
    obj = _new(cls)
    _set_attribute(obj, "__dict__", fields)
    return obj


# --- the array kernel -----------------------------------------------------------
#
# `BoundaryPoint.of`, `apply_boundary`, `from_angle`, `angle` and `value` on
# arrays, and `axis_chart` with its `inverse` (:func:`axis_charts`, below),
# equal to the scalar code bit for bit.  Elementwise + - * / % and sqrt
# round as the scalar operations do; the transcendental functions (hypot,
# atan2, log, exp, cos, sin, ...) go through `math` with :func:`exact_map`,
# since numpy's forms can differ from them in the last bit.  Each public
# function that can warn holds its own `np.errstate`; the array stages
# (`Family.of`'s table, the axis table, a cut schedule, the verifier, the
# writer) hold one each and call `_canonical` and `_apply_pairs` inside it.


def exact_map(func: Callable[..., float], *arrays: np.ndarray | float) -> np.ndarray:
    """`func` of `math` applied to each element of equally shaped arrays, as the scalar code applies it; a float stands for an array of it."""
    first = arrays[0]
    values = map(func, *[a.ravel().tolist() if isinstance(a, np.ndarray) else repeat(a) for a in arrays])
    return np.fromiter(values, np.float64, first.size).reshape(first.shape)


def _canonical(xy: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical x and y of the pairs (xy[0] : xy[1]), in place in `xy`, and their hypot.

    The flip, where y < 0, or y == 0 and x < 0, multiplies by -1.0, which negates exactly.
    """
    norm = exact_map(math.hypot, xy[0], xy[1])
    xy /= norm
    xy *= np.copysign(1.0, np.where(xy[1] != 0.0, xy[1], xy[0]))
    return xy[0], xy[1], norm


def _placed(x: np.ndarray, y: np.ndarray, norm: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, y and where a pair is placed (`BoundaryPoint.of` would not raise): its hypot `norm` is neither 0 nor inf."""
    return x, y, np.isfinite(norm) & (norm != 0.0)


def _apply_pairs(f: np.ndarray, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`apply_boundary` on arrays, as :func:`_placed`, for a caller holding its stage's `errstate`: `f` holds the entries a, b, c, d on its first axis."""
    return _placed(*_canonical(np.array([f[0] * x + f[1] * y, f[2] * x + f[3] * y])))


def angle_pairs(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Canonical x, y of `BoundaryPoint.from_angle` at each angle; every one is placed."""
    half = (0.5 * theta).ravel().tolist()
    xy = np.fromiter(chain(map(math.cos, half), map(math.sin, half)), np.float64, 2 * len(half)).reshape(2, *theta.shape)
    np.negative(xy[1], out=xy[1])
    x, y, _ = _canonical(xy)
    return x, y


def boundary_angles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`BoundaryPoint.angle` of every canonical pair (x[i] : y[i])."""
    theta = (-2.0 * exact_map(math.atan2, y, x)) % TWO_PI
    theta[theta == TWO_PI] = 0.0
    return theta


@np.errstate(all="ignore")  # infinity's x/y, and pairs that are not placed
def boundary_values(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """`BoundaryPoint.value` of every canonical pair (x[i] : y[i])."""
    return np.where(np.abs(y) < 1e-300, math.inf, x / y)


def points_of(x: np.ndarray, y: np.ndarray, angle: np.ndarray) -> list[BoundaryPoint]:
    """The `BoundaryPoint`s of canonical pairs whose angles the kernel computed, built once each."""
    return list(map(_point_at, x.tolist(), y.tolist(), angle.tolist()))


@dataclass(frozen=True)
class Geodesic:
    """Directed hyperbolic line given by its boundary endpoints.

    For the axis of a hyperbolic map the direction is repelling -> attracting.
    """

    start: BoundaryPoint
    end: BoundaryPoint

    def __post_init__(self):
        if self.start.approx(self.end, tol=0.0):
            raise CoincidentEndpoints("geodesic endpoints coincide")


class MoebiusMap(FrozenValue):
    """Orientation-preserving isometry of H, stored as a normalized matrix.

    Invariants: a*d - b*c == 1 and the canonical sign a + d > 0, or a + d == 0
    and the first nonzero of (a, b, c) positive.  Build values with
    :meth:`from_matrix`, which normalizes arbitrary positive-determinant input.
    """

    __slots__ = ("a", "b", "c", "d")
    _fields = ("a", "b", "c", "d")
    _key = attrgetter(*_fields)

    def __init__(self, a: float, b: float, c: float, d: float):
        _map_a(self, a)
        _map_b(self, b)
        _map_c(self, c)
        _map_d(self, d)

    @staticmethod
    def from_matrix(a: float, b: float, c: float, d: float) -> "MoebiusMap":
        return MoebiusMap(*_unit_entries(a, b, c, d))

    @staticmethod
    def identity() -> "MoebiusMap":
        return MoebiusMap(1.0, 0.0, 0.0, 1.0)

    @property
    def trace(self) -> float:
        return self.a + self.d


_map_a = MoebiusMap.a.__set__
_map_b = MoebiusMap.b.__set__
_map_c = MoebiusMap.c.__set__
_map_d = MoebiusMap.d.__set__


def _canonical_sign(a: float, b: float, c: float, d: float) -> MoebiusMap:
    return MoebiusMap(*_signed_entries(a, b, c, d))


def _signed_entries(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """The entries of the map with matrix (a, b, c, d) in canonical sign: a + d > 0, or a + d == 0 and the first nonzero of a, b, c positive."""
    t = a + d
    flip = t < 0.0
    if t == 0.0:
        for entry in (a, b, c):
            if entry != 0.0:
                flip = entry < 0.0
                break
    if flip:
        return -a, -b, -c, -d
    return a, b, c, d


def _unit_entries(a: float, b: float, c: float, d: float) -> tuple[float, float, float, float]:
    """The entries of `MoebiusMap.from_matrix(a, b, c, d)`; raises its NonPositiveDeterminant."""
    det = a * d - b * c
    if not math.isfinite(det) or det <= 0.0:
        raise NonPositiveDeterminant(f"determinant {det!r} must be positive")
    s = 1.0 / math.sqrt(det)
    return _signed_entries(a * s, b * s, c * s, d * s)


def _axis_chart_entries(start: BoundaryPoint, end: BoundaryPoint) -> tuple[float, float, float, float]:
    """The entries of the :func:`axis_chart` of the line from `start` to `end`.

    Raises CoincidentEndpoints where `Geodesic` or `axis_chart` raises: the
    ends have one angle, or their cross product is 0.
    """
    cross = end.x * start.y - end.y * start.x
    if cross == 0.0 or start.angle == end.angle:
        raise CoincidentEndpoints("geodesic endpoints coincide")
    s = 1.0 if cross > 0.0 else -1.0
    return _unit_entries(s * end.x, start.x, s * end.y, start.y)


def normalize(raw) -> MoebiusMap:
    """Canonical representative of a raw 2x2 matrix (see :func:`matrix_entries`).

    The one reader of raw matrices.  The determinant is computed exactly; s2
    is the largest squared entry.  When s2 exceeds UNIT_SCALE2 and the
    determinant is within DET_ROUND_TOL * s2 of 1, the matrix is a
    determinant-one matrix up to the rounding of its entries (Figure 2 at
    tau = 41) and is kept as given.  Any other positive determinant is
    divided out: the float one, or the exact one where the float one drowned
    in rounding (s2 above UNIT_SCALE2 and determinant at most DET_REL_TOL *
    s2) or is not positive and finite.  A negative determinant raises
    NonPositiveDeterminant; a zero one raises SingularMatrix, both an
    InvalidMatrix and a NonPositiveDeterminant.
    """
    a, b, c, d = entries = matrix_entries(raw)
    if not all(math.isfinite(v) for v in entries):
        raise InvalidMatrix("matrix has non-finite entries")
    det = Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)
    scale2 = Fraction(max(map(abs, entries))) ** 2
    large = scale2 > UNIT_SCALE2
    if large and abs(det - 1) <= Fraction(DET_ROUND_TOL) * scale2:
        f = _canonical_sign(a, b, c, d)
    elif det == 0:
        raise SingularMatrix("matrix is singular")
    elif det < 0:
        raise NonPositiveDeterminant("matrix has negative determinant")
    elif 0.0 < a * d - b * c < math.inf and not (large and det <= Fraction(DET_REL_TOL) * scale2):
        f = MoebiusMap.from_matrix(a, b, c, d)
    else:
        try:
            s = 1.0 / math.sqrt(det)
        except (OverflowError, ZeroDivisionError):
            raise InvalidMatrix("matrix determinant beyond float range") from None
        f = _canonical_sign(a * s, b * s, c * s, d * s)
    if not _in_float_range(f):
        raise InvalidMatrix("matrix entries too large to classify in floats")
    return f


def _in_float_range(f: MoebiusMap) -> bool:
    # Every sum `classify` forms (d - a plus the discriminant root at most) stays finite.
    return math.isfinite(2.0 * (abs(f.a) + abs(f.b) + abs(f.c) + abs(f.d)))


def matrix_entries(raw) -> list[float]:
    """Entries a, b, c, d of a flat [a, b, c, d] or nested [[a, b], [c, d]] matrix."""
    items = _items(raw)
    if items is not None and len(items) == 2:
        rows = [_items(row) for row in items]
        if all(row is not None and len(row) == 2 for row in rows):
            items = rows[0] + rows[1]
    if items is None or len(items) != 4 or not all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items
    ):
        raise InvalidMatrix(f"expected [a, b, c, d] or [[a, b], [c, d]] of numbers, got {reprlib.repr(raw)}")
    try:
        return [float(v) for v in items]
    except OverflowError:
        raise InvalidMatrix("matrix entry too large for a float") from None


def _items(raw) -> list | None:
    if isinstance(raw, (str, bytes)):
        return None
    try:
        return list(raw)
    except TypeError:
        return None


def compose(f: MoebiusMap, g: MoebiusMap) -> MoebiusMap:
    """Matrix product f*g, i.e. the map applying g first."""
    # Inline, not `_product`: folded, a call read 681 -> 845 ns and the n = 5 witness inputs (verdict-mix's p50) ~3% slower.
    return _canonical_sign(
        f.a * g.a + f.b * g.c,
        f.a * g.b + f.b * g.d,
        f.c * g.a + f.d * g.c,
        f.c * g.b + f.d * g.d,
    )


def inverse(f: MoebiusMap) -> MoebiusMap:
    return _canonical_sign(f.d, -f.b, -f.c, f.a)


def conjugate(f: MoebiusMap, m: MoebiusMap) -> MoebiusMap:
    """m o f o m^-1."""
    return compose(compose(m, f), inverse(m))


def power(f: MoebiusMap, k: int) -> MoebiusMap:
    if k < 0:
        return power(inverse(f), -k)
    out = MoebiusMap.identity()
    base = f
    while k:
        if k & 1:
            out = compose(out, base)
        base = compose(base, base)
        k >>= 1
    return out


def apply_boundary(f: MoebiusMap, p: BoundaryPoint) -> BoundaryPoint:
    return BoundaryPoint.of(f.a * p.x + f.b * p.y, f.c * p.x + f.d * p.y)


def apply_interior(f: MoebiusMap, z: complex) -> complex:
    return (f.a * z + f.b) / (f.c * z + f.d)


@dataclass(frozen=True)
class Classification:
    """Conjugacy data of a map: kind plus the fields that kind carries."""

    kind: str  # "identity" | "elliptic" | "parabolic" | "hyperbolic"
    rotation_angle: float | None = None
    fixed: BoundaryPoint | None = None
    alpha: BoundaryPoint | None = None
    beta: BoundaryPoint | None = None
    tau: float | None = None

    @property
    def is_hyperbolic(self) -> bool:
        return self.kind == "hyperbolic"


def classify(f: MoebiusMap) -> Classification:
    """Decide identity/elliptic/parabolic/hyperbolic from the normalized trace.

    Hyperbolic fixed points are the projective roots of c z^2 + (d-a) z - b;
    the attracting one is picked by the angular derivative (image norm of the
    unit homogeneous vector), which stays well conditioned for c near 0.
    One body for every kind, called once per generator of every family.
    """
    a, b, c, d = f.a, f.b, f.c, f.d
    if abs(a - 1.0) <= IDENTITY_TOL and abs(b) <= IDENTITY_TOL and abs(c) <= IDENTITY_TOL and abs(d - 1.0) <= IDENTITY_TOL:
        return _filled(Classification, {"kind": "identity", "rotation_angle": None, "fixed": None, "alpha": None, "beta": None, "tau": None})
    t = a + d  # the trace, >= 0 in canonical form
    if abs(t - 2.0) <= TRACE_TOL:
        x, y = a - d, 2.0 * c
        fixed = BoundaryPoint.infinity() if math.hypot(x, y) < 1e-14 else BoundaryPoint.of(x, y)
        return _filled(Classification, {"kind": "parabolic", "rotation_angle": None, "fixed": fixed, "alpha": None, "beta": None, "tau": None})
    if t < 2.0:
        angle = math.acos(max(-1.0, min(1.0, t / 2.0)))
        return _filled(Classification, {"kind": "elliptic", "rotation_angle": angle, "fixed": None, "alpha": None, "beta": None, "tau": None})
    # Roots of c z^2 + B z - b with B = d - a; the discriminant is t^2 - 4 > 0.
    B = d - a
    t2 = t * t
    # Once t^2 overflows, 4/t^2 is far below float epsilon and the root is t.
    sq = math.sqrt(t2 - 4.0) if t2 < math.inf else t
    if c == 0.0:
        p1, p2 = BoundaryPoint.infinity(), BoundaryPoint.of(b, B)
    else:
        # At B == 0 the sign of c keeps each point's formula the same for inverse(f).
        # |q| >= sq/2 >= 3e-5 (t > 2 + TRACE_TOL), so q is never 0.
        q = -0.5 * (B + math.copysign(sq, B if B != 0.0 else c))
        # q/c is the large root, -b/q the small one; no cancellation either way.
        p1, p2 = BoundaryPoint.of(q, c), BoundaryPoint.of(-b, q)
    # The image norms of the unit fixed vectors are e^(tau/2) and e^(-tau/2)
    # (the angular derivative is 1/norm^2); comparing them against each other
    # (not against 1) keeps the assignment right even when huge entries
    # pollute the smaller norm with rounding noise.
    x, y, u, v = p1.x, p1.y, p2.x, p2.y
    alpha, beta = (p1, p2) if math.hypot(a * x + b * y, c * x + d * y) > math.hypot(a * u + b * v, c * u + d * v) else (p2, p1)
    tau = 2.0 * math.acosh(t / 2.0)
    return _filled(Classification, {"kind": "hyperbolic", "rotation_angle": None, "fixed": None, "alpha": alpha, "beta": beta, "tau": tau})


def require_hyperbolic(f: MoebiusMap, label: str = "map") -> Classification:
    """Classification of f; raises NotHyperbolic naming `label` otherwise."""
    cls = classify(f)
    if not cls.is_hyperbolic:
        raise _not_hyperbolic(cls, label)
    return cls


def _not_hyperbolic(cls: Classification, label: str) -> NotHyperbolic:
    """The error for a map named `label` that is classified as `cls`, not hyperbolic."""
    return NotHyperbolic(f"{label} is {cls.kind}, not hyperbolic")


def hyperbolic_distance(z: complex, w: complex) -> float:
    if z.imag <= 0.0 or w.imag <= 0.0:
        raise ValueError("points must lie in the open upper half-plane")
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


def axis(f: MoebiusMap) -> Geodesic:
    cls = require_hyperbolic(f)
    return Geodesic(cls.beta, cls.alpha)


def from_axis_and_length(beta: BoundaryPoint, alpha: BoundaryPoint, tau: float) -> MoebiusMap:
    """Hyperbolic map with the given repelling/attracting points and length.

    Right inverse of (axis, translation length): conjugates the dilation
    diag(e^{tau/2}, e^{-tau/2}) by the map sending (0, inf) to (beta, alpha).
    A length whose map is too large to classify in floats (from about
    tau = 1418 on) raises ValueError.
    """
    if tau <= 0.0:
        raise ValueError("translation length must be positive")
    if alpha.approx(beta, tol=0.0):
        raise CoincidentEndpoints("axis endpoints coincide")
    chart = axis_chart(Geodesic(beta, alpha))
    too_large = ValueError(f"translation length {tau!r} is too large to classify in floats")
    try:
        e = math.exp(tau / 2.0)
    except OverflowError:
        raise too_large from None
    f = conjugate(MoebiusMap.from_matrix(e, 0.0, 0.0, 1.0 / e), chart)
    if not _in_float_range(f):
        raise too_large
    return f


def axis_chart(geo: Geodesic) -> MoebiusMap:
    """Map sending the directed line (0 -> inf) onto `geo`."""
    return MoebiusMap(*_axis_chart_entries(geo.start, geo.end))


@np.errstate(all="ignore")  # lines whose ends coincide, where `axis_chart` raises
def axis_charts(start: np.ndarray, end: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`axis_chart` of each line from (start[0][i] : start[1][i]) to (end[0][i] : end[1][i]), and its :func:`inverse`.

    Returns the entries a, b, c, d of the charts, then of their inverses, on
    the first axis, equal to the scalar ones bit for bit.  They are
    meaningless where the ends coincide and `axis_chart` raises (its cross
    product is 0), which the caller excludes.  Elsewhere `from_matrix`
    cannot raise: its determinant is |cross|.  The inverses are taken before the canonical
    sign, which is one pass over both: m and -m have the same canonical
    sign, so that of the inverse does not depend on the chart's.
    """
    (sx, sy), (ex, ey) = start, end
    cross = ex * sy - ey * sx
    s = np.where(cross > 0.0, 1.0, -1.0)
    a, b, c, d = s * ex, sx, s * ey, sy
    maps = np.array([[a, d], [b, -b], [c, -c], [d, a]]) * (1.0 / np.sqrt(a * d - b * c))
    _canonical_signs(maps)
    return maps[:, 0], maps[:, 1]


def _canonical_signs(entries: np.ndarray) -> None:
    """:func:`_canonical_sign` in place, on the entries a, b, c, d of maps on the first axis (charts and the oracle's sweep).

    A map whose deciding entry is NaN comes out NaN; both callers discard it.
    """
    trace = entries[0] + entries[3]
    if trace.min(initial=1.0) > 0.0:  # no map flips
        return
    sign = np.sign(trace)
    for col in entries[:3]:  # where the trace is 0, the first nonzero of a, b, c decides
        if sign.all():  # no zero left (a NaN counts as decided)
            break
        sign = np.where(sign == 0.0, np.sign(col), sign)
    else:
        sign[sign == 0.0] = 1.0
    entries *= sign


def _triple_entries(src, dst) -> tuple[float, float, float, float]:
    """The entries of the map sending one ordered boundary triple to another, each point given as its (x, y).

    The triples must have the same cyclic orientation, since only
    orientation-preserving maps are representable; ValueError otherwise,
    and CoincidentEndpoints for a triple with coincident points.
    """
    s, t = _chart_to_zero_one_inf(*src), _chart_to_zero_one_inf(*dst)
    try:
        return _unit_entries(*_product((t[3], -t[1], -t[2], t[0]), s))
    except NonPositiveDeterminant as exc:
        raise ValueError("boundary triples have opposite cyclic orientations") from exc


def _product(f, g) -> tuple[float, float, float, float]:
    """The entries of the matrix product f*g of the entries a, b, c, d of two maps, before any sign or scale (:func:`compose`'s arithmetic)."""
    return f[0] * g[0] + f[1] * g[2], f[0] * g[1] + f[1] * g[3], f[2] * g[0] + f[3] * g[2], f[2] * g[1] + f[3] * g[3]


def _chart_to_zero_one_inf(p: tuple[float, float], q: tuple[float, float], r: tuple[float, float]):
    # z -> (z ^ p)(q ^ r) / ((z ^ r)(q ^ p)) with ^ the homogeneous wedge.
    (px, py), (qx, qy), (rx, ry) = p, q, r
    qr = qx * ry - qy * rx
    qp = qx * py - qy * px
    if qr == 0.0 or qp == 0.0:
        raise CoincidentEndpoints("triple contains coincident points")
    return (qr * py, -qr * px, qp * ry, -qp * rx)


def cayley_to_disc(p):
    """Fixed transfer z -> (z - i)/(z + i); boundary points land on the circle."""
    if isinstance(p, BoundaryPoint):
        return complex(math.cos(p.angle), math.sin(p.angle))
    z = complex(p)
    return (z - 1j) / (z + 1j)
