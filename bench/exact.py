"""Exact re-check of emitted certificates, independent of the library's arc code.

A certificate is checked from its JSON payload and the generator matrices
alone.  Boundary points are homogeneous vectors (x, y), read exactly from
the payload floats with fractions.Fraction and scaled to integers; a
positive common scale changes neither the projective point nor any sign
used below.  Matrices are handled the same way, so every containment and
trace test is decided in exact integer arithmetic.

Cyclic order on the circle at infinity uses one sign: for distinct points
a, b, c the product w(a, b) w(b, c) w(c, a) of 2x2 determinants is
invariant under rescaling each vector and under SL(2, R), and it is
positive exactly when a, b, c are met in that order counterclockwise in the
disc model (angle -2 atan2(y, x), the library's convention).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cmp_to_key

import numpy as np

# What a definitive certificate kind asserts about the semigroup.
IMPLIED_TRUTH = {
    "semidiscrete_inverse_free": "semidiscrete",
    "rank_one_schottky": "semidiscrete",
    "not_semidiscrete": "not_semidiscrete",
}
CROSSING_TAU_GATE = 0.2
JORGENSEN = math.cos(3.0 * math.pi / 7.0)


def ints(*values: float) -> tuple[int, ...]:
    """Exact integer multiple (by one positive factor) of a tuple of floats."""
    fr = [Fraction(v) for v in values]
    den = math.lcm(*(f.denominator for f in fr))
    return tuple(f.numerator * (den // f.denominator) for f in fr)


def matrix(f) -> tuple[int, int, int, int]:
    return ints(f.a, f.b, f.c, f.d)


def point_from_payload(p: dict) -> tuple[int, int]:
    value = p["value"]
    if value == "inf":
        return (1, 0)
    return ints(float(value), 1.0)


def image(m, p):
    a, b, c, d = m
    x, y = p
    return (a * x + b * y, c * x + d * y)


def wedge(p, q) -> int:
    return p[0] * q[1] - p[1] * q[0]


def ccw(a, b, c) -> bool:
    """Strict counterclockwise order of three points (False if any coincide)."""
    return wedge(a, b) * wedge(b, c) * wedge(c, a) > 0


def closure_inside(m, arc, outer) -> bool:
    """The closure of the image of `arc` under m lies in the open arc `outer`.

    Arcs are (start, end) pairs swept counterclockwise.  The image of an arc
    runs from the image of its start to the image of its end, reversed when
    the exact determinant is negative: stored floats of a map with huge
    entries need not have a positive determinant, and the check is about the
    matrix as stored.
    """
    a, b, c, d = m
    det = a * d - b * c
    if det == 0:
        return False
    fs, fe = image(m, arc[0]), image(m, arc[1])
    if det < 0:
        fs, fe = fe, fs
    return ccw(outer[0], fs, outer[1]) and ccw(fs, fe, outer[1])


def _canonical(p):
    x, y = p
    return (-x, -y) if y < 0 or (y == 0 and x < 0) else (x, y)


def _angle_cmp(p, q) -> int:
    """Order by disc angle in [0, 2*pi) of canonical vectors; infinity is angle 0."""

    def before(u, v):
        if u[1] == 0:
            return v[1] != 0
        return v[1] != 0 and wedge(u, v) < 0

    return -1 if before(p, q) else (1 if before(q, p) else 0)


def disjoint_closures(arcs) -> bool:
    """Open arcs with pairwise disjoint closures (every endpoint distinct)."""
    marks = sorted(
        ((_canonical(p), idx, side) for idx, arc in enumerate(arcs) for side, p in enumerate(arc)),
        key=cmp_to_key(lambda u, v: _angle_cmp(u[0], v[0])),
    )
    if any(_angle_cmp(u[0], v[0]) == 0 for u, v in zip(marks, marks[1:] + marks[:1])):
        return False
    first = next(k for k, mark in enumerate(marks) if mark[2] == 0)
    marks = marks[first:] + marks[:first]
    return all(
        marks[t][2] == 0 and marks[t + 1][2] == 1 and marks[t][1] == marks[t + 1][1]
        for t in range(0, len(marks), 2)
    )


def check_invariant_union(maps, arcs) -> list[str]:
    """Every generator maps every arc, with closure, inside some arc of the union."""
    problems = []
    if not arcs:
        return ["empty union"]
    if not disjoint_closures(arcs):
        problems.append("union arcs do not have pairwise disjoint closures")
    for gi, f in enumerate(maps):
        m = matrix(f)
        hint = 0
        for ai, arc in enumerate(arcs):
            for k in range(len(arcs)):
                outer = (hint + k) % len(arcs)
                if closure_inside(m, arc, arcs[outer]):
                    hint = outer
                    break
            else:
                problems.append(f"generator {gi} maps arc {ai} outside the union")
    return problems


def _power(m, k: int):
    out, base = (1, 0, 0, 1), m
    while k:
        if k & 1:
            out = _mul(out, base)
        base = _mul(base, base)
        k >>= 1
    return out


def _mul(p, q):
    return (
        p[0] * q[0] + p[1] * q[2],
        p[0] * q[1] + p[1] * q[3],
        p[2] * q[0] + p[3] * q[2],
        p[2] * q[1] + p[3] * q[3],
    )


def word_matrix(maps, word) -> tuple[int, int, int, int]:
    """Exact product f_i1^e1 * f_i2^e2 * ... (leftmost factor applied last)."""
    out = (1, 0, 0, 1)
    for gen, exp in word:
        out = _mul(out, _power(matrix(maps[gen]), exp))
    return out


def is_elliptic(m) -> bool:
    """tr^2 < 4 det, i.e. |trace| < 2 after scaling to determinant one."""
    a, b, c, d = m
    det = a * d - b * c
    return det > 0 and (a + d) ** 2 < 4 * det


def is_hyperbolic(m) -> bool:
    a, b, c, d = m
    return (a + d) ** 2 > 4 * (a * d - b * c)


def check_witness(maps, payload: dict) -> list[str]:
    word = payload.get("witness_word")
    if not word or any(not (0 <= g < len(maps)) or e < 1 for g, e in word):
        return [f"malformed witness word {word!r}"]
    m = word_matrix(maps, word)
    if not is_elliptic(m):
        return [f"witness word {word!r} is not elliptic"]
    a, _, _, d = m
    exact = math.copysign(math.sqrt(float(Fraction((a + d) ** 2, a * d - m[1] * m[2]))), a + d)
    if abs(exact - payload["trace"]) > 1e-6 * (1.0 + abs(exact)):
        return [f"reported trace {payload['trace']!r} differs from exact {exact!r}"]
    return []


def fixed_points(f) -> tuple[np.ndarray, np.ndarray, float]:
    """(attracting, repelling, tau) from an eigen-decomposition of the matrix."""
    vals, vecs = np.linalg.eig(np.array([[f.a, f.b], [f.c, f.d]], dtype=float))
    big, small = (0, 1) if abs(vals[0]) > abs(vals[1]) else (1, 0)
    tau = 2.0 * math.log(abs(vals[big]) / math.sqrt(abs(vals[0] * vals[1])))
    return vecs[:, big].real, vecs[:, small].real, tau


def _fixed_form(m):
    """Coefficients (A, B, C) of c x^2 + (d - a) x y - b y^2, whose roots are the fixed points."""
    a, b, c, d = m
    return c, d - a, -b


def axes_cross(f, g) -> bool:
    """Fixed-point pairs interleave iff the resultant of the two forms is negative."""
    a1, b1, c1 = _fixed_form(matrix(f))
    a2, b2, c2 = _fixed_form(matrix(g))
    res = (a1 * c2 - a2 * c1) ** 2 - (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)
    return res < 0


def _disc_angle(v) -> float:
    return (-2.0 * math.atan2(v[1], v[0])) % (2.0 * math.pi)


def check_crossing(maps, crit: dict) -> list[str]:
    i, j = crit["pair"]
    k = crit["interleaved"]
    if len({i, j, k}) != 3 or not all(0 <= x < len(maps) for x in (i, j, k)):
        return [f"malformed generator indices {(i, j, k)!r}"]
    f, g, h = maps[i], maps[j], maps[k]
    if not (is_hyperbolic(matrix(f)) and is_hyperbolic(matrix(g))):
        return ["pair members are not hyperbolic"]
    if not axes_cross(f, g):
        return ["pair axes do not cross"]
    a_f, b_f, tau_f = fixed_points(f)
    a_g, b_g, tau_g = fixed_points(g)
    _, b_h, _ = fixed_points(h)
    if max(tau_f, tau_g) >= CROSSING_TAU_GATE:
        return [f"pair translation lengths {tau_f:.4f}, {tau_g:.4f} not below {CROSSING_TAU_GATE}"]
    vecs = {"af": a_f, "bf": b_f, "ag": a_g, "bg": b_g, "bh": b_h}
    pts = {name: ints(*v) for name, v in vecs.items()}
    if ccw(pts["af"], pts["bf"], pts["ag"]) or ccw(pts["af"], pts["bg"], pts["ag"]):
        start, end = "ag", "af"
    else:
        start, end = "af", "ag"
    if ccw(pts[start], pts["bf"], pts[end]) or ccw(pts[start], pts["bg"], pts[end]):
        return ["no attractor-to-attractor arc is free of repellers"]
    if not ccw(pts[start], pts["bh"], pts[end]):
        return ["interleaved repeller lies outside the limit arc"]
    limit = crit["limit_interval"]
    for got, want in ((limit["start"]["angle"], start), (limit["end"]["angle"], end)):
        gap = abs(got - _disc_angle(vecs[want])) % (2.0 * math.pi)
        if min(gap, 2.0 * math.pi - gap) > 1e-6:
            return ["reported limit interval does not match the attractors"]
    cr = (wedge(a_f, a_g) * wedge(b_f, b_g)) / (wedge(a_f, b_g) * wedge(b_f, a_g))
    theta = 2.0 * math.atan(math.sqrt(-cr))
    product = math.sinh(0.5 * tau_f) * math.sinh(0.5 * tau_g) * math.sin(theta)
    if abs(theta - crit["angle"]) > 1e-6 or abs(product - crit["discreteness_product"]) > 1e-6:
        return ["reported angle or discreteness product does not match"]
    if product >= JORGENSEN:
        return [f"discreteness product {product:.4f} not below cos(3 pi/7)"]
    return []


def check_certificate(maps, payload: dict, truth: str | None) -> list[str]:
    """Problems found with one certificate payload; empty when it checks out.

    An inconclusive payload has nothing to re-check and never fails here.
    """
    kind = payload["kind"]
    implied = IMPLIED_TRUTH.get(kind)
    if kind != "inconclusive" and implied is None:
        return [f"unknown certificate kind {kind!r}"]
    if implied is not None and truth is not None and implied != truth:
        return [f"kind {kind} contradicts the constructed truth {truth}"]
    if kind == "semidiscrete_inverse_free":
        arcs = [(point_from_payload(a["start"]), point_from_payload(a["end"])) for a in payload["union"]]
        return check_invariant_union(maps, arcs)
    if kind == "rank_one_schottky":
        arc = payload["interval"]
        return check_invariant_union(maps, [(point_from_payload(arc["start"]), point_from_payload(arc["end"]))])
    if kind == "not_semidiscrete":
        rule = payload["criterion"].get("rule")
        if rule == "disjoint_pair_elliptic_power":
            return check_witness(maps, payload)
        if rule == "crossing_pair_with_interleaved_repeller":
            return check_crossing(maps, payload["criterion"])
        return [f"unknown criterion {rule!r}"]
    return []
