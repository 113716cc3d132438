"""One cyclic-order layer: circle order is decided in `boundary_arcs` only."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import semicert
from semicert import boundary_arcs
from semicert import ArcUnion, BoundaryPoint, assemble_global, classify, verify_schottky
from semicert.boundary_arcs import (
    DEFAULT_MARGIN,
    BoundaryArc,
    cluster,
    rank_one_arcs,
    repeller_free_arc,
    schottky_margin,
)
from semicert.errors import AxesDoNotCross, VerificationFailed
from semicert.moebius_core import ANGLE_TOL, points_of

from helpers import (
    ADVERSARIAL_UNIONS,
    arc_angles,
    arc_image,
    arc_around,
    arcs_approx,
    crossing_pair,
    disjoint_pair,
    figure_two,
    greedy_cluster,
    reference_enclosing,
    strictly_inside,
)

ORDER_MODULES = {"boundary_arcs.py", "moebius_core.py"}


def circle_arithmetic(tree: ast.AST) -> list[str]:
    """Uses of ccw_gap or TWO_PI, and `x % (... math.pi ...)` expressions."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in ("ccw_gap", "TWO_PI"):
            found.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in ("ccw_gap", "TWO_PI"):
            found.append(node.attr)
        elif isinstance(node, ast.alias) and node.name in ("ccw_gap", "TWO_PI"):
            found.append(f"import {node.name}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if any(isinstance(n, ast.Attribute) and n.attr == "pi" for n in ast.walk(node.right)):
                found.append("% pi")
    return found


def test_circle_arithmetic_lives_in_boundary_arcs():
    package = Path(semicert.__file__).parent
    offenders = {}
    for path in sorted(package.glob("*.py")):
        if path.name in ORDER_MODULES:
            continue
        uses = circle_arithmetic(ast.parse(path.read_text(encoding="utf-8")))
        if uses:
            offenders[path.name] = uses
    assert offenders == {}
    assert circle_arithmetic(ast.parse((package / "boundary_arcs.py").read_text(encoding="utf-8")))


def classification_calls(tree: ast.AST) -> list[str]:
    """Calls of classify or require_hyperbolic, by bare name or as an attribute."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("classify", "require_hyperbolic"):
                found.append(f"{name} at line {node.lineno}")
    return found


def test_certify_path_reads_classifications_from_the_family():
    package = Path(semicert.__file__).parent
    offenders = {
        name: classification_calls(ast.parse((package / name).read_text(encoding="utf-8")))
        for name in ("interval_builder.py", "criteria_engine.py")
    }
    assert offenders == {"interval_builder.py": [], "criteria_engine.py": []}
    assert classification_calls(ast.parse((package / "pair_geometry.py").read_text(encoding="utf-8")))


def the_families():
    rng = np.random.default_rng(62)
    families = {f"figure-two-{tau}": figure_two(tau) for tau in (5.0, 10.0, 20.0)}
    families["disjoint"] = list(disjoint_pair(rng, math.log(2.0), 5.0, 5.0))
    return families


@pytest.mark.parametrize("name", sorted(the_families()))
def test_strictly_inside_agrees_with_the_verifier(name):
    # Translation lengths stay moderate so that every image arc is wider
    # than float angular resolution and `arc_image` can represent it.
    F = the_families()[name]
    union = assemble_global(F).union
    achieved = schottky_margin(F, union)
    unions = [union]
    if len(union) > 1:
        unions.append(ArcUnion(union.arcs[1:]))  # a broken union: the verifier rejects it
    for U in unions:
        margins = (0.0, DEFAULT_MARGIN, achieved, math.nextafter(achieved, math.inf))
        for m in margins:
            images = all(strictly_inside(ArcUnion([arc_image(f, a)]), U, m) for f in F for a in U)
            assert verify_schottky(F, U, m) == images, (name, len(U), m)
    assert verify_schottky(F, union, achieved)
    assert not verify_schottky(F, union, math.nextafter(achieved, math.inf))


def test_verifier_checks_each_image_against_one_component(monkeypatch):
    F = figure_two(41.0)
    union = assemble_global(F).union
    calls = []
    clearances = boundary_arcs._clearances

    def counted(*args):
        calls.append(args)
        return clearances(*args)

    monkeypatch.setattr(boundary_arcs, "_clearances", counted)
    assert schottky_margin(F, union) > 0.0
    assert len(calls) == len(F) * len(union) == 15


def scan_enclosing(angles, union):
    """The verifier's former lookup: the first component, in order, that properly contains the arc."""
    for outer in union:
        found = boundary_arcs._clearances(*angles, outer.start.angle, outer.end.angle, outer.span)
        if found is not None and found[0] + found[1] > 0.0:
            return found
    return None


def probe_angles(union):
    """Component endpoints and their float and 1e-9 neighbours, interior and gap points, 0 and 2*pi-."""
    marks = {0.0, math.nextafter(2.0 * math.pi, 0.0)}
    for arc, nxt in zip(union.arcs, union.arcs[1:] + union.arcs[:1]):
        s, e = arc.start.angle, arc.end.angle
        marks |= {arc.midpoint.angle, BoundaryArc(arc.end, nxt.start).midpoint.angle}
        for t in (s, e):
            marks |= {t, math.nextafter(t, -1.0), math.nextafter(t, 7.0), t - 1e-9, t + 1e-9}
    return sorted(t % (2.0 * math.pi) for t in marks)


def ccw_midpoint(p, q):
    return (p + 0.5 * ((q - p) % (2.0 * math.pi))) % (2.0 * math.pi)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_UNIONS))
def test_bisection_agrees_with_the_linear_scan(name):
    union = ADVERSARIAL_UNIONS[name]
    marks = probe_angles(union)
    outcomes = set()
    for p in marks:
        for q in marks:
            angles = (p, q, ccw_midpoint(p, q))
            found = reference_enclosing(angles, union)
            assert found == scan_enclosing(angles, union), (name, angles)
            outcomes.add(found is None)
    assert outcomes == {True, False}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_UNIONS))
def test_named_cases_agree_with_the_linear_scan(name):
    union = ADVERSARIAL_UNIONS[name]
    for arc, nxt in zip(union.arcs, union.arcs[1:] + union.arcs[:1]):
        s, e, m = arc.start.angle, arc.end.angle, arc.midpoint.angle
        cases = {
            "whole-component": ((s, e, m), None),  # lead + tail == 0: not properly inside
            "in-a-gap": (arc_angles(BoundaryArc(arc.end, nxt.start)), None),
            "starts-at-a-start": ((s, m, ccw_midpoint(s, m)), "found"),
        }
        if len(union) == 1:
            del cases["in-a-gap"]  # the gap of a single arc is its whole complement
        for case, (angles, expected) in cases.items():
            found = reference_enclosing(angles, union)
            assert found == scan_enclosing(angles, union), (name, case)
            assert (found is not None) == (expected == "found"), (name, case)


def test_cluster_joins_the_first_class_within_tol():
    points = [BoundaryPoint.from_angle(t) for t in (1.0, 1.0 + 6e-10, 1.0 + 12e-10, 3.0, 1.0 - 5e-10)]
    assert cluster(points, 1e-9) == [[0, 1, 4], [2], [3]]


def at_angles(*angles):
    """Points whose angles are exactly `angles`; their x and y are placeholders.

    A canonical pair's angle near 0 is a multiple of 2**-50, so no two
    placed points lie exactly ANGLE_TOL apart.
    """
    return points_of(np.ones(len(angles)), np.zeros(len(angles)), np.array(angles))


def around(*angles):
    return [BoundaryPoint.from_angle(t) for t in angles]


def one_pair_inside_tol():
    points = around(*((np.arange(64) + 0.5) * (2.0 * math.pi / 64)))
    points[40] = BoundaryPoint.from_angle(points[7].angle + 0.5 * ANGLE_TOL)
    return points, [[i] for i in range(7)] + [[7, 40]] + [[i] for i in range(8, 64) if i != 40]


CLUSTER_CASES = {
    "exactly-tol-apart": lambda: (at_angles(0.0, ANGLE_TOL), [[0, 1]]),
    "just-beyond-tol": lambda: (at_angles(0.0, math.nextafter(ANGLE_TOL, 1.0)), [[0], [1]]),
    "chain-across-zero": lambda: (around(2.0 * math.pi - 4e-10, 3e-10, 8e-10), [[0, 1], [2]]),
    "chain-across-zero-reordered": lambda: (around(3e-10, 8e-10, 2.0 * math.pi - 4e-10), [[0, 1, 2]]),
    "64-points-one-pair-inside-tol": one_pair_inside_tol,
    "all-within-tol": lambda: (around(*(3.0 + 1e-10 * np.arange(10))), [list(range(10))]),
    "all-within-tol-across-zero": lambda: (around(2.0 * math.pi - 3e-10, 1e-10, 4e-10, 2.0 * math.pi - 1e-10), [[0, 1, 2, 3]]),
    "single-point": lambda: (around(2.0), [[0]]),
    "no-points": lambda: ([], []),
}


@pytest.mark.parametrize("name", sorted(CLUSTER_CASES))
def test_cluster_named_cases(name):
    points, expected = CLUSTER_CASES[name]()
    assert greedy_cluster(points, ANGLE_TOL) == expected
    assert cluster(points, ANGLE_TOL) == expected


@pytest.mark.parametrize("angles", [(1.0, 2.5), (2.0 * math.pi - 3e-10, 5e-10), (0.1, 2.0 * math.pi - 0.2)], ids=["inside", "across-zero", "wide-across-zero"])
def test_cluster_includes_a_pair_exactly_tol_apart(angles):
    points = around(*angles)
    tol = points[0].angular_distance(points[1])
    assert cluster(points, tol) == greedy_cluster(points, tol) == [[0, 1]]
    below = math.nextafter(tol, 0.0)
    assert cluster(points, below) == greedy_cluster(points, below) == [[0], [1]]


@pytest.mark.parametrize(
    "alphas, betas, expected",
    [
        # One attracting run: gap midpoint to gap midpoint (the first gap wraps).
        ((1.0, 1.5), (3.0, 4.0), [(2.5 + math.pi, 2.25)]),
        # Two attracting runs: no single arc.
        ((1.0, 3.5), (2.0, 5.0), []),
        # The run between two shared points ends at both.
        ((1.0, 1.5, 2.0), (2.0, 1.0, 4.0), [(1.0, 2.0)]),
        # A shared point next to the run ends it; the other end is a gap midpoint.
        ((1.0, 1.5), (3.0, 1.0 + 4e-10), [(1.0, 2.25)]),
        # Two shared points and no attracting-only class: both arcs between them.
        ((1.0, 2.0), (2.0, 1.0), [(1.0, 2.0), (2.0, 1.0)]),
        # One shared point and no attracting-only class: it ends both arcs.
        ((1.0, 1.0), (1.0, 3.0), [(1.0, 2.0), (2.0 + math.pi, 1.0)]),
        # Three shared points cannot all be ends.
        ((1.0, 2.0, 3.0), (2.0, 3.0, 1.0), []),
    ],
    ids=["run", "two-runs", "shared-both-ends", "shared-one-end", "two-shared", "one-shared", "three-shared"],
)
def test_rank_one_arcs_read_the_classes_in_angle_order(alphas, betas, expected):
    points = [BoundaryPoint.from_angle(t) for pair in zip(alphas, betas) for t in pair]
    arcs = rank_one_arcs(points, boundary_arcs._cluster(points, 1e-9)[1])
    found = [(a.start.angle, a.end.angle) for a in arcs]
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_the_clustering_sorts_its_classes_by_angle_once():
    # `Family.of` hands `rank_one_arcs` the classes in the order that the
    # clustering's one sort gives: cluster's classes sorted by their first
    # points' angles, ties by index.
    rng = np.random.default_rng(160)
    for trial in range(400):
        n = int(rng.integers(1, 7))
        angles = rng.uniform(0.0, 2.0 * math.pi, 2 * n)
        if trial % 3 == 0:  # a shared point, within the tolerance or exactly
            i, j = rng.integers(0, n, 2)
            angles[2 * i + 1] = angles[2 * j] + rng.choice([0.0, 5e-10])
        if trial % 5 == 0:  # two points on one angle
            angles[0] = angles[-2]
        points = [BoundaryPoint.from_angle(float(t)) for t in angles]
        classes, by_angle = boundary_arcs._cluster(points, ANGLE_TOL)
        assert classes == cluster(points, ANGLE_TOL)
        assert by_angle == sorted(classes, key=lambda c: points[c[0]].angle)


def test_repeller_free_arc_tries_i_to_j_first():
    rng = np.random.default_rng(3)
    f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15)
    cf, cg = classify(f), classify(g)
    arc = repeller_free_arc(cf, cg)
    assert not contains_any(arc, cf.beta, cg.beta)
    assert repeller_free_arc(cg, cf) == arc
    # Both attractor-to-attractor arcs hold a repeller when the axes do not cross.
    f, g = disjoint_pair(rng, 1.0, 2.0, 2.0)
    with pytest.raises(AxesDoNotCross, match="fixed points do not interleave"):
        repeller_free_arc(classify(f), classify(g))


def contains_any(arc, *points):
    return any(semicert.contains(arc, p) for p in points)


def test_arcs_around_a_point():
    point = BoundaryPoint.from_angle(1.0)
    wide, narrow = BoundaryArc.from_angles(0.5, 2.0), BoundaryArc.from_angles(0.8, 1.5)
    assert arcs_approx(arc_around(point, [wide, narrow]), BoundaryArc.from_angles(0.8, 1.5), 1e-12)
    assert arcs_approx(arc_around(point, [wide, narrow], hull=True), BoundaryArc.from_angles(0.5, 2.0), 1e-12)
    elsewhere = BoundaryArc.from_angles(3.0, 4.0)
    with pytest.raises(VerificationFailed, match="intersection around fixed point is empty"):
        arc_around(BoundaryPoint.from_angle(3.0), [elsewhere, wide])
    with pytest.raises(VerificationFailed, match="covers the whole circle"):
        arc_around(point, [BoundaryArc.from_angles(0.5, 6.0), BoundaryArc.from_angles(2.0, 1.9)], hull=True)
