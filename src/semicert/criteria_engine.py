"""Threshold decision procedures and the certificates they produce.

Everything here is one-sided: a certificate is only emitted when a sufficient
condition verifiably holds, and anything between the bounds is reported as
inconclusive rather than guessed.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np

from .boundary_arcs import (
    DEFAULT_MARGIN,
    ArcUnion,
    BoundaryArc,
    contains,
    repeller_free_arc,
    schottky_margin,
)
from .errors import (
    AxesDoNotCross,
    InvalidMatrix,
    NonPositiveDeterminant,
    ParseError,
    PreconditionViolated,
    SearchExhausted,
    SingularMatrix,
    ThresholdNotMet,
    VerificationFailed,
)
from .interval_builder import GlobalIntervalSystem, assemble_global
from .moebius_core import BoundaryPoint, MoebiusMap, boundary_values, compose, normalize, power
from .pair_geometry import CROSSING, NESTED, _BOUNDS, Family, _bound_ratios, _kinds, _lower_term, _upper_term, pair_gate, screened_max

# Discreteness bound for crossing pairs: cos(3*pi/7), about 0.2225.
JORGENSEN_BOUND = math.cos(3.0 * math.pi / 7.0)
# Crossing-pair translation-length gate for the limit-interval argument.
CROSSING_TAU_LIMIT = 0.2


def h_function(x: float, y: float, d: float) -> float:
    """cosh(d) sinh(x) sinh(y) - cosh(x) cosh(y).

    Half the composed trace of two hyperbolic maps with axes a distance d
    apart (in the cross-ratio-above-1 configuration) evaluated at half the
    translation lengths; negative values near -1 signal elliptic products.
    """
    if d < 0.0 or x < 0.0 or y < 0.0:
        raise ValueError("arguments must be nonnegative")
    return math.cosh(d) * math.sinh(x) * math.sinh(y) - math.cosh(x) * math.cosh(y)


@dataclass(frozen=True)
class HRegion:
    """The distinguished diagonal levels of h at axis distance d.

    a, b, b_prime solve h(t, t, d) = -7/9, -1/2, +1; products landing with
    both half-length multiples in (a, b) are elliptic with trace magnitude
    strictly between 1 and 2.
    """

    d: float

    def __post_init__(self):
        if self.d <= 0.0:
            raise ValueError("axis distance must be positive")

    @property
    def a(self) -> float:
        return math.asinh(1.0 / (3.0 * math.sinh(0.5 * self.d)))

    @property
    def b(self) -> float:
        return math.asinh(1.0 / (2.0 * math.sinh(0.5 * self.d)))

    @property
    def b_prime(self) -> float:
        return math.asinh(1.0 / math.sinh(0.5 * self.d))


def pair_trace_identity_check(f: MoebiusMap, g: MoebiusMap) -> tuple[float, float]:
    """(|tr(f o g)|/2 from matrices, |h(tau_f/2, tau_g/2, d)|); they agree."""
    family = Family.of([f, g])
    d = family.disjoint_pair(0, 1).distance
    cf, cg = family.cls
    lhs = 0.5 * abs(compose(f, g).trace)
    rhs = abs(h_function(0.5 * cf.tau, 0.5 * cg.tau, d))
    return lhs, rhs


# --- thresholds --------------------------------------------------------------


@dataclass(frozen=True)
class Thresholds:
    """Lower and upper translation-length bounds for a generator family.

    lower = 0.2 min (C - 1)/(C + 3), with 1 for the min without a term, and
    upper = 4 max |log|C(C - 1)|| + 23, with 0 for the max, over the pairs
    that `pair_geometry._BOUNDS_OF_KIND` enters in each.
    """

    lower: float
    upper: float

    @staticmethod
    def from_cross_ratios(values: Sequence[float] | np.ndarray) -> "Thresholds":
        """Thresholds of the given cross ratios, a list or an array (as the pair table of a large Family holds)."""
        cs = values if isinstance(values, np.ndarray) else [float(c) for c in values]
        return _thresholds(cs, _kinds(cs))

    @staticmethod
    def from_generators(F) -> "Thresholds":
        """Thresholds of a family (anything :meth:`Family.of` accepts), from its kind codes."""
        family = Family.of(F)
        return _thresholds(family.cross_ratios, family.kinds)


def _thresholds(cs: list[float] | np.ndarray, codes: list[int] | np.ndarray) -> Thresholds:
    """The thresholds of a table and its kind codes; on an array the lower bound is the scalar one bit for bit (only -, + and /), the upper a :func:`screened_max`."""
    low, up = _bound_ratios(cs, codes, (0, 1))
    if isinstance(cs, np.ndarray):
        lower = float(_lower_term(low).min(initial=1.0))
        with np.errstate(all="ignore"):  # a product c (c - 1) that overflows is recomputed in scalar
            upper = screened_max(up, np.abs(np.log(np.abs(up * (up - 1.0)))), _upper_term) or 0.0
    else:
        lower, upper = min([1.0, *map(_lower_term, low)]), max([0.0, *map(_upper_term, up)])
    return Thresholds(0.2 * lower, 4.0 * upper + 23.0)


# --- certificates -------------------------------------------------------------


@dataclass(frozen=True)
class NotSemidiscrete:
    """Witness that the generated semigroup is not semidiscrete."""

    criterion: dict
    witness_word: tuple[tuple[int, int], ...] | None = None  # (generator, exponent)
    trace: float | None = None
    kind: str = field(default="not_semidiscrete", init=False)


@dataclass(frozen=True)
class SemidiscreteInverseFree:
    """Verified interval system: the semigroup is semidiscrete and inverse-free."""

    system: GlobalIntervalSystem
    thresholds: Thresholds | None = None
    kind: str = field(default="semidiscrete_inverse_free", init=False)


@dataclass(frozen=True)
class RankOneSchottky:
    """Single verified interval mapped strictly inside itself by every generator."""

    interval: BoundaryArc
    margin: float
    kind: str = field(default="rank_one_schottky", init=False)


@dataclass(frozen=True)
class Inconclusive:
    """Neither sufficient condition fired; the report says how far off each is."""

    report: dict
    kind: str = field(default="inconclusive", init=False)


Certificate = NotSemidiscrete | SemidiscreteInverseFree | RankOneSchottky | Inconclusive


# --- two-generator tests ------------------------------------------------------


def elliptic_witness_disjoint(F, i: int = 0, j: int = 1) -> tuple[int, int, float]:
    """Smallest (m + n) with f^m o g^n elliptic for f, g = F[i], F[j], via the h levels.

    Scans exponent pairs in increasing m + n until h at the half-length
    multiples lands in (-1, -1/2); the returned trace comes from the actual
    matrix product and satisfies 1 < |tr| < 2.
    """
    family = Family.of(F)
    d = family.disjoint_pair(i, j).distance
    f, g = family.maps[i], family.maps[j]
    tau_f, tau_g = family.cls[i].tau, family.cls[j].tau
    region = HRegion(d)
    bound = max(64, math.ceil(4.0 * region.b / min(tau_f, tau_g)))
    for total in range(2, 2 * bound + 1):
        for m in range(max(1, total - bound), min(bound, total - 1) + 1):
            n = total - m
            value = h_function(0.5 * m * tau_f, 0.5 * n * tau_g, d)
            if -1.0 < value < -0.5:
                trace = compose(power(f, m), power(g, n)).trace
                if abs(abs(trace) - 2.0 * abs(value)) > 1e-8 * (1.0 + abs(trace)):
                    raise VerificationFailed(
                        "matrix trace disagrees with the h prediction"
                    )
                return m, n, trace
    raise SearchExhausted(
        f"no elliptic power combination up to exponent {bound}; "
        "the pair is outside the small-translation regime"
    )


def two_gen_disjoint_test(f: MoebiusMap, g: MoebiusMap) -> Certificate:
    """Decision for a pair with cross ratio above 1: witness, intervals, or neither."""
    family = Family.of([f, g])
    c = family.disjoint_pair(0, 1).cross_ratio
    if (witness := _disjoint_witness(family, 0, 1, c)) is not None:
        return witness
    tau_f, tau_g = (k.tau for k in family.cls)
    t_high = pair_gate(c)
    if tau_f > t_high and tau_g > t_high:
        system = assemble_global(family)
        return SemidiscreteInverseFree(system=system, thresholds=Thresholds.from_generators(family))
    return Inconclusive(
        report={
            "reason": "translation lengths between the pair bounds",
            "cross_ratio": c,
            "lower": _pair_bound(c),
            "upper": t_high,
            "taus": [tau_f, tau_g],
        }
    )


def _pair_bound(c: float) -> float:
    """Lower gate 0.2 (C - 1)/(C + 3) of a NESTED pair, 0.2 (C - 1) before the division, as the witnesses record it."""
    return 0.2 * (c - 1.0) / (c + 3.0)


def _disjoint_witness(family: Family, i: int, j: int, c: float) -> NotSemidiscrete | None:
    """Elliptic word of the pair (i, j), of cross ratio c > 1, if both translation lengths are below its gate."""
    t_low = _pair_bound(c)
    if family.cls[i].tau >= t_low or family.cls[j].tau >= t_low:
        return None
    m, n, trace = elliptic_witness_disjoint(family, i, j)
    return NotSemidiscrete(
        criterion={
            "rule": "disjoint_pair_elliptic_power",
            "pair": [i, j],
            "cross_ratio": c,
            "pair_bound": t_low,
        },
        witness_word=((i, m), (j, n)),
        trace=trace,
    )


def cos_phi(tau: float, theta: float) -> float:
    """Cosine of the angle between the image of one crossing endpoint and the axis."""
    return (math.sinh(tau) + math.cosh(tau) * math.cos(theta)) / (
        math.cosh(tau) + math.sinh(tau) * math.cos(theta)
    )


def crossing_limit_interval(F, i: int = 0, j: int = 1) -> BoundaryArc:
    """The attractor-to-attractor arc filled by forward orbits of the crossing pair i, j.

    Requires both translation lengths below 1/5; the covering condition is
    certified through the angle inequality cos(phi) < cos(theta/2) for both
    generators.
    """
    family = Family.of(F)
    cfg = family.pair(i, j)
    if cfg.kind != "crossing":
        raise AxesDoNotCross(f"cross ratio {cfg.cross_ratio!r} is not negative")
    cf, cg = family.cls[i], family.cls[j]
    for tau in (cf.tau, cg.tau):
        if tau >= CROSSING_TAU_LIMIT:
            raise ThresholdNotMet(
                f"translation length {tau:.6f} not below {CROSSING_TAU_LIMIT}"
            )
    theta = cfg.theta
    bound = math.cos(0.5 * theta)
    if cos_phi(cf.tau, theta) >= bound or cos_phi(cg.tau, theta) >= bound:
        raise VerificationFailed("angle condition failed below the stated gate")
    return repeller_free_arc(cf, cg)


def triple_crossing_test(F, i: int = 0, j: int = 1, k: int = 2) -> Certificate:
    """Nondiscreteness from the crossing pair i, j and the repeller of generator k in its limit arc."""
    family = Family.of(F)
    arc = crossing_limit_interval(family, i, j)
    if not contains(arc, family.cls[k].beta):
        raise PreconditionViolated("repelling point of the third generator lies outside the limit interval")
    return _crossing_witness(family, i, j, k, arc)


def _crossing_witness(family: Family, i: int, j: int, k: int, arc: BoundaryArc) -> NotSemidiscrete:
    """The certificate of the crossing pair i, j whose limit arc `arc` holds the repeller of k, if the discreteness product is small."""
    cf, cg, theta = family.cls[i], family.cls[j], family.pair(i, j).theta
    product = math.sinh(0.5 * cf.tau) * math.sinh(0.5 * cg.tau) * math.sin(theta)
    if product >= JORGENSEN_BOUND:
        raise PreconditionViolated("discreteness product is not below cos(3*pi/7)")
    return NotSemidiscrete(
        criterion={
            "rule": "crossing_pair_with_interleaved_repeller",
            "pair": [i, j],
            "interleaved": k,
            "angle": theta,
            "limit_interval": arc_to_dict(arc),
            "discreteness_product": product,
            "discreteness_bound": JORGENSEN_BOUND,
        }
    )


# --- the main decision procedure ---------------------------------------------


@dataclass
class _Decision:
    """One `certify` call as its rules read it: the family, the thresholds once set, and the notes left."""

    family: Family
    thresholds: Thresholds | None = None
    notes: list[str] = field(default_factory=list)


def _rank_one(d: _Decision) -> Certificate | None:
    found = find_rank_one_interval(d.family)
    return found and RankOneSchottky(interval=found[0], margin=found[1])


def _precondition(d: _Decision) -> None:
    # After the rank-one rule: a rank-one interval may end where an attracting point meets a repelling one.
    d.family.require_alpha_apart_from_beta()
    d.thresholds = Thresholds.from_generators(d.family)


def _assembly(d: _Decision) -> Certificate | None:
    if all(k.tau > d.thresholds.upper for k in d.family.cls):
        try:
            return SemidiscreteInverseFree(system=assemble_global(d.family), thresholds=d.thresholds)
        except (PreconditionViolated, VerificationFailed) as exc:
            d.notes.append(f"interval assembly failed: {exc}")
    return None


def _witnesses(d: _Decision) -> Certificate | None:
    return _witness_scan(d.family)


# The rules of `certify`, in order.  Each calls what it runs by its module
# name, so a wrapper bound there (`bench/tracing.py`) sees the call.
_RULES = (_rank_one, _precondition, _assembly, _witnesses)


def certify(F: Sequence[MoebiusMap]) -> Certificate:
    """Decide semidiscreteness where the criteria apply: the first certificate of `_RULES`, else an inconclusive report.

    An assembled union must keep a clearance of at least DEFAULT_MARGIN, and a rank-one interval one of at least 0.
    """
    d = _Decision(Family.of(F))
    for rule in _RULES:
        if (cert := rule(d)) is not None:
            return cert
    return Inconclusive(report=_report(d.family, d.thresholds, d.notes))


def _witness_scan(family: Family) -> Certificate | None:
    """The first disjoint-pair witness, else the first crossing-pair one, in row-major order; None without one."""
    cls, rows = family.cls, list(family.pair_rows())
    for (i, j), c, code in rows:
        if code == NESTED and (witness := _disjoint_witness(family, i, j, c)) is not None:
            return witness
    for (i, j), _, code in rows:
        if code != CROSSING or cls[i].tau >= CROSSING_TAU_LIMIT or cls[j].tau >= CROSSING_TAU_LIMIT:
            continue
        arc = crossing_limit_interval(family, i, j)
        for k, ck in enumerate(cls):
            if k != i and k != j and contains(arc, ck.beta):
                return _crossing_witness(family, i, j, k, arc)
    return None


def _report(family: Family, thresholds: Thresholds, notes: list[str]) -> dict:
    lower, upper = thresholds.lower, thresholds.upper
    return {
        "reason": "no sufficient condition fired",
        "lower": lower,
        "upper": upper,
        "generators": [
            {"index": idx, "tau": k.tau, "below_lower": k.tau < lower, "above_upper": k.tau > upper}
            for idx, k in enumerate(family.cls)
        ],
        "pairs": [
            {"i": i, "j": j, "cross_ratio": c, "in_lower": _BOUNDS[code][0], "in_upper": _BOUNDS[code][1]}
            for (i, j), c, code in family.pair_rows()
        ],
        "notes": notes,
    }


# --- rank-one detection --------------------------------------------------------


def find_rank_one_interval(F) -> tuple[BoundaryArc, float] | None:
    """One interval every generator maps strictly inside itself: the first verified `rank_one_arcs`."""
    family = Family.of(F)
    for arc in family.rank_one_arcs:
        achieved = schottky_margin(family.maps, ArcUnion([arc]), family.cls)
        if achieved >= 0.0:
            return arc, achieved
    return None


# --- cocycle bridge -------------------------------------------------------------


def uniform_hyperbolicity(matrices: Sequence[Sequence[float]]) -> ArcUnion | None:
    """Multicone certificate for a matrix tuple, when the sufficient test applies.

    Reads raw 2x2 matrices with :func:`normalize`; a singular or malformed
    one raises InvalidMatrix.  Returns a union every matrix maps into itself
    with clearance DEFAULT_MARGIN or more, or None when this test is silent,
    which includes a matrix of negative determinant; None is never a disproof.
    """
    maps = []
    for raw in matrices:
        try:
            maps.append(normalize(raw))
        except SingularMatrix:
            raise
        except NonPositiveDeterminant:
            maps.append(None)
    return multicone(maps)


def multicone(maps: Sequence[MoebiusMap | None]) -> ArcUnion | None:
    """The `uniform_hyperbolicity` union for maps already read, or None.

    None stands for a matrix of negative determinant, which is outside this test; a
    rank-one interval counts only with a clearance of at least DEFAULT_MARGIN.
    """
    if not maps:
        raise InvalidMatrix("empty tuple")
    if None in maps:
        return None
    try:
        cert = certify(maps)
    except PreconditionViolated:
        return None
    if isinstance(cert, SemidiscreteInverseFree):
        return cert.system.union
    if isinstance(cert, RankOneSchottky) and cert.margin >= DEFAULT_MARGIN:
        return ArcUnion([cert.interval])
    return None


# --- serialization ---------------------------------------------------------------
# The JSON forms of points, arcs and certificates, and the one reader of them.
ANGLE_AGREEMENT = 1e-12  # radians; the angle and value that `point_to_dict` writes agree to about 1e-15
SCHEMA_VERSION = 1


def _json_number(v: float) -> float | str:
    return "inf" if math.isinf(v) else v  # private, so the benchmark tracer adds no timed call per point


def point_to_dict(p: BoundaryPoint) -> dict:
    return _point_dicts([p.angle], [p.value])[0]


def _point_dicts(angles: list[float], values: list[float]) -> list[dict]:
    """The one JSON form of points, from their angles and values, read off objects or arrays, with `_json_number` inlined."""
    return [{"angle": a, "value": "inf" if math.isinf(v) else v} for a, v in zip(angles, values)]


def arc_to_dict(arc: BoundaryArc) -> dict:
    return {"start": point_to_dict(arc.start), "end": point_to_dict(arc.end)}


def union_to_dict(union: ArcUnion) -> list[dict]:
    return [arc_to_dict(a) for a in union]


def _arc_dicts(start: np.ndarray, end: np.ndarray) -> list[dict]:
    """:func:`arc_to_dict` of the arcs from start[:, k] to end[:, k] of the kernel's arrays (x, y and angle rows).

    The angles are the points' own, and `boundary_values` is
    `BoundaryPoint.value` bit for bit, so the dicts are those of the arcs.
    """
    x, y, angle = np.concatenate([start, end], axis=1)
    points = _point_dicts(angle.tolist(), boundary_values(x, y).tolist())
    m = len(points) // 2
    return [{"start": p, "end": q} for p, q in zip(points[:m], points[m:])]


def _system_to_dict(system: GlobalIntervalSystem) -> tuple[list[dict], list[dict]]:
    """The `union` and `pairs` entries of a system's certificate, written without building a pair arc.

    Read off its cut and union arrays in one pass over their points, or else
    off the floats of its cuts and of its union's arcs, with
    `BoundaryPoint.value`'s arithmetic.
    """
    if system.cuts is None:
        ends = system._cut_ends
        points = [*chain.from_iterable(ends), *((p.x, p.y, p.angle) for a in system.union for p in (a.start, a.end))]
        dicts = _point_dicts([p[2] for p in points], [math.inf if abs(y) < 1e-300 else x / y for x, y, _ in points])
        arcs = [{"start": p, "end": q} for p, q in zip(dicts[::2], dicts[1::2])]
        n = len(ends)
        return arcs[2 * n :], [{"owner": i, "a": arcs[2 * i], "b": arcs[2 * i + 1]} for i in range(n)]
    n = system.cuts[0].shape[-1]
    # The a arcs, then the b arcs, then the union's, in one pass (the float writer read 100-110 us per n = 32 system, not 68-77).
    ends = (np.concatenate([np.reshape(cut, (3, -1)), union], axis=1) for cut, union in zip(system.cuts, system.union.arrays()))
    arcs = _arc_dicts(*ends)
    return arcs[2 * n :], [{"owner": i, "a": arcs[i], "b": arcs[n + i]} for i in range(n)]


def certificate_to_dict(cert: Certificate, version: str = "") -> dict:
    out: dict = {"schema": SCHEMA_VERSION, "kind": cert.kind}
    if version:
        out["tool_version"] = version
    if isinstance(cert, NotSemidiscrete):
        out["criterion"] = cert.criterion
        if cert.witness_word is not None:
            out["witness_word"] = [list(t) for t in cert.witness_word]
        if cert.trace is not None:
            out["trace"] = cert.trace
    elif isinstance(cert, SemidiscreteInverseFree):
        out["union"], pairs = _system_to_dict(cert.system)
        out["margin"] = cert.system.margin
        out["assembly_constant"] = cert.system.constant_m
        out["pairs"] = pairs
        out["notes"] = list(cert.system.notes)
        if cert.thresholds is not None:
            out["lower"] = cert.thresholds.lower
            out["upper"] = cert.thresholds.upper
    elif isinstance(cert, RankOneSchottky):
        out["interval"] = arc_to_dict(cert.interval)
        out["margin"] = cert.margin
    elif isinstance(cert, Inconclusive):
        out["report"] = cert.report
    return out


def finite_number(v, where: str, expected: str = "a finite number") -> float:
    """`v` as a float if it is a finite real number other than a bool; ParseError otherwise."""
    # abs(v) <= max rejects NaN, the infinities and ints too large for a float; reprlib shortens the echo.
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    raise ParseError(f"{where}: expected {expected}, got {reprlib.repr(v)}")


def point_from_value(v, where: str, model: str = "half-plane") -> BoundaryPoint:
    """The point a JSON value names: a number or "inf" in the half-plane, an angle in the disc."""
    if model == "disc":
        return BoundaryPoint.from_angle(finite_number(v, where, "a finite angle in radians"))
    return BoundaryPoint.from_real(math.inf if v == "inf" else finite_number(v, where, 'a finite number or "inf"'))


def point_from_dict(obj, where: str) -> BoundaryPoint:
    """A point as `point_to_dict` writes it: the point of its `value`, if its `angle` is within ANGLE_AGREEMENT."""
    p = point_from_value(_member(obj, "value", where), f"{where}.value")
    angle = finite_number(_member(obj, "angle", where), f"{where}.angle", "a finite angle in radians")
    if abs(math.remainder(angle - p.angle, 2.0 * math.pi)) > ANGLE_AGREEMENT:
        raise ParseError(f"{where}.angle: {angle!r} is not the angle of its value, {p.angle!r}")
    return p


def certificate_arcs(data: dict, path: str) -> list[tuple[str, BoundaryPoint, BoundaryPoint]] | None:
    """(field, start, end) of each arc of a certificate's `union` or `interval`, or None; builds no arc."""
    arcs, name = data.get("union"), "union[{}]"
    if arcs is None and "interval" in data:
        arcs, name = [data["interval"]], "interval"
    if arcs is None:
        return None
    if not isinstance(arcs, list):
        raise ParseError(f"{path}: union: expected a list of arcs, got {reprlib.repr(arcs)}")
    out = []
    for k, arc in enumerate(arcs):
        where = f"{path}: {name.format(k)}"
        # Both ends are looked up before either point, so a missing end is named first.
        start, end = [_member(arc, end, where) for end in ("start", "end")]
        out.append((name.format(k), point_from_dict(start, f"{where}.start"), point_from_dict(end, f"{where}.end")))
    return out


def _member(obj, key: str, where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {reprlib.repr(obj)}")
    if key not in obj:
        raise ParseError(f"{where}.{key}: missing")
    return obj[key]
