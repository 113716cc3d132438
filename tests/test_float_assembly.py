"""The list path's assembly on floats equals its object form bit for bit.

A family with the pair table as a list is assembled with no point or arc
built until the union's components: axis positions, cuts, intersections
and hulls are computed on floats, and the system keeps its cuts as floats.
`tests/helpers.py` keeps the object forms as they were written
(`reference_axis_position`, `reference_cut`, `reference_intersect_around`,
`reference_hull_around`, `reference_assemble_once` and
`reference_system_to_dict`); every float here is compared with them by
`float.hex`, and every error by its type and message.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from semicert import BoundaryPoint, Geodesic, MoebiusMap, assemble_global, certify, inverse
from semicert import boundary_arcs, interval_builder, moebius_core
from semicert.boundary_arcs import ArcUnion, BoundaryArc, _around
from semicert.cli import _load_generators
from semicert.criteria_engine import _system_to_dict, certificate_to_dict
from semicert.errors import CertifyError
from semicert.interval_builder import (
    _assemble_once,
    _AxisTable,
    _axis_position,
    _cut,
    _cut_floor,
    _cut_position,
    build_crossing_pair_intervals,
    build_disjoint_pair_intervals,
)
from semicert.moebius_core import axis_chart
from semicert.pair_geometry import Family

from helpers import (
    LIST_N,
    conjugated_figure_two,
    figure_two,
    one_axis_family,
    random_admissible_family,
    reference_assemble_once,
    reference_axis_position,
    reference_cut,
    reference_hull_around,
    reference_intersect_around,
    reference_system_to_dict,
    retry_ladder_family,
    shared_attractor_family,
    shared_repeller_family,
)
from test_pair_table import figure_two_grid

DATA = Path(__file__).resolve().parent / "data"
# The crafted heights of the array cut test: in range, deep, beyond exp's range, infinite and NaN.
HEIGHTS = (0.0, 3.0, -3.0, 18.0, 40.0, -40.0, 700.0, 800.0, -800.0, math.inf, -math.inf, math.nan)
SCHEDULES = (0.0, 2.0, 4.0, 7.0, 10.0)


def outcome(run):
    """run()'s result, or the type and message of what it raised."""
    try:
        return run()
    except (CertifyError, ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def arc_hex(arc):
    return [v.hex() for p in (arc.start, arc.end) for v in (p.x, p.y, p.angle)]


def ends_hex(ends):
    """`arc_hex` of an arc whose ends the float code gives as x, y and angle."""
    return [v.hex() for p in ends for v in p]


def entries(f):
    return (f.a, f.b, f.c, f.d)


@pytest.fixture(scope="module")
def families():
    """Families on the list path: seeded admissible draws with n = 2 to 8, Figure 2 near its gates, shared fixed points, the retry ladder."""
    rng = np.random.default_rng(371)
    maps = [random_admissible_family(rng, n, min_gap=0.01) for n in range(2, LIST_N + 1) for _ in range(4)]
    maps += [figure_two(tau) for tau in figure_two_grid()]
    maps += [conjugated_figure_two(), shared_attractor_family(), shared_repeller_family(), one_axis_family(), retry_ladder_family()]
    found = [Family.of(F) for F in maps]
    assert all(isinstance(family.cross_ratios, list) for family in found)
    return found


def test_charts_and_axis_positions_equal_the_object_forms(families):
    errors = set()
    for family in families:
        table = _AxisTable(family)
        for owner, k in enumerate(family.cls):
            chart = axis_chart(Geodesic(k.beta, k.alpha))
            assert table.charts[owner] == (entries(chart), entries(inverse(chart)))
            to_axis = table.charts[owner][1]
            for partner in family.cls:  # the owner itself and partners sharing a point cannot be placed
                expected = outcome(lambda: reference_axis_position(MoebiusMap(*to_axis), partner).hex())
                assert outcome(lambda: _axis_position(to_axis, partner).hex()) == expected
                errors.add(expected.split(":")[0] if ":" in expected else None)
    # A map that sends every point to (0 : 0).
    partner = families[0].cls[0]
    expected = outcome(lambda: reference_axis_position(MoebiusMap(0.0, 0.0, 0.0, 0.0), partner))
    assert outcome(lambda: _axis_position((0.0, 0.0, 0.0, 0.0), partner)) == expected
    assert expected.startswith("ValueError: invalid homogeneous pair")
    assert errors == {None, "ValueError"}


def test_cuts_equal_the_object_cuts(families):
    found_errors = set()
    for family in families[::3]:
        table = _AxisTable(family)
        innermost = [h for pair in table.innermost(0.0) if pair is not None for h in pair]
        for owner, k in enumerate(family.cls):
            chart = table.charts[owner][0]
            for around in (k.alpha, k.beta):
                for height in (*HEIGHTS, *innermost):
                    expected = outcome(lambda: arc_hex(reference_cut(MoebiusMap(*chart), height, around)))
                    assert outcome(lambda: ends_hex(_cut(chart, height, around.angle))) == expected
                    if isinstance(expected, str):
                        found_errors.add(expected)
    # A point on the cut's boundary, and maps whose images cannot be placed.
    chart = _AxisTable(families[0]).charts[0][0]
    start = _cut(chart, 1.0, families[0].cls[0].alpha.angle)[0]
    crafted = [
        (chart, 1.0, moebius_core._point_at(*start)),
        ((0.0, 0.0, 0.0, 0.0), 1.0, BoundaryPoint.from_angle(1.0)),
        ((1e308, 1e308, 1e308, 1e308), 1.0, BoundaryPoint.from_angle(1.0)),
    ]
    for chart, height, around in crafted:
        expected = outcome(lambda: arc_hex(reference_cut(MoebiusMap(*chart), height, around)))
        assert outcome(lambda: ends_hex(_cut(chart, height, around.angle))) == expected
        found_errors.add(expected)
    prefix = "VerificationFailed: cut arcs fell below float angular resolution: "
    kinds = {e.replace(prefix, "").split(" (")[0] for e in found_errors}
    assert kinds == {
        "OverflowError: math range error",
        "boundary value is NaN",
        "arc endpoints coincide",
        "reference point lies on the arc boundary",
        "invalid homogeneous pair",
    }


def around_corpus():
    """(point, arcs) around angle 1: seeded arcs, some missing the point, and crafted empty, whole-circle and coinciding cases."""
    rng = np.random.default_rng(372)
    cases = []
    for trial in range(400):
        n = int(rng.integers(1, 6))
        lo, hi = 1.0 - rng.uniform(-0.2, 3.0, n), 1.0 + rng.uniform(-0.2, 3.0, n)
        if trial % 7 == 0:
            lo[-1] = 1.0  # an arc that starts on the point
        cases.append((1.0, list(zip(lo.tolist(), hi.tolist()))))
    # An arc that covers all but a sliver behind the point: the ends of the intersection coincide.
    cases.append((2.5, [(2.500000000000002, 2.5000000000000013)]))
    cases.append((1.0, [(0.5, 6.0), (2.0, 1.9)]))  # the hull covers the whole circle
    cases.append((3.0, [(3.0, 4.0), (0.5, 2.0)]))  # the intersection is empty
    cases.append((0.0, [(6.0, 0.5), (5.0, 1.0)]))  # across angle 0
    return cases


def test_intersections_and_hulls_equal_the_object_forms():
    errors = set()
    for point, angles in around_corpus():
        arcs = []
        for lo, hi in angles:
            try:
                arcs.append(BoundaryArc.from_angles(lo, hi))
            except ValueError:
                pass
        if not arcs:
            continue
        at = BoundaryPoint.from_angle(point)
        floats = [(a.start.angle, a.end.angle) for a in arcs]
        for hull, reference in ((False, reference_intersect_around), (True, reference_hull_around)):
            expected = outcome(lambda: arc_hex(reference(at, arcs)))
            assert outcome(lambda: ends_hex(_around(at.angle, floats, hull))) == expected
            errors.add(expected if isinstance(expected, str) else None)
    assert errors == {
        None,
        "ValueError: arc endpoints coincide",
        "VerificationFailed: intersection around fixed point is empty",
        "VerificationFailed: hull around fixed point covers the whole circle",
    }


def system_view(system, writer):
    """The written `union` and `pairs` (before any pair arc is built), then the bits of the pairs, union, margin and notes."""
    written = json.dumps(writer(system))
    return {
        "written": written,
        "pairs": [arc_hex(arc) for pair in system.pairs for arc in (pair.a, pair.b)],
        "owners": [pair.owner for pair in system.pairs],
        "union": [arc_hex(arc) for arc in system.union],
        "margin": system.margin.hex(),
        "constant": system.constant_m.hex(),
        "notes": system.notes,
    }


def test_list_assembly_equals_the_object_assembly(families):
    kinds = set()
    for family in families:
        table = _AxisTable(family)
        for extra in SCHEDULES:
            found = outcome(lambda: system_view(_assemble_once(family, table, 1e-7, extra), _system_to_dict))
            expected = outcome(lambda: system_view(reference_assemble_once(family, table, 1e-7, extra), reference_system_to_dict))
            assert found == expected
            kinds.add(expected.split(":")[0] if isinstance(expected, str) else "system")
    assert kinds == {"system", "VerificationFailed", "OverlappingArcs", "PreconditionViolated"}


def test_crafted_schedules_raise_the_object_errors(families, monkeypatch):
    family = next(f for f in families if len(f.cls) == LIST_N and not f.alpha_classes[0][1:])
    heights = _AxisTable(family).innermost(0.0)
    edits = [
        {3: None},
        {5: (heights[5][0], 60.0), 7: None},
        {2: (800.0, heights[2][1])},
        {4: (math.nan, heights[4][1]), 6: (40.0, heights[6][1])},
        {1: (heights[1][0] - 3.0, heights[1][1] + 3.0)},
        {0: (math.inf, heights[0][1])},
        {0: (heights[0][0], -math.inf)},
        {3: (-40.0, 40.0)},
    ]
    errors = set()
    for edit in edits:
        crafted = [edit.get(i, h) for i, h in enumerate(heights)]
        monkeypatch.setattr(_AxisTable, "innermost", lambda self, extra: crafted)
        table = _AxisTable(family)
        found = outcome(lambda: system_view(_assemble_once(family, table, 1e-7, 0.0), _system_to_dict))
        expected = outcome(lambda: system_view(reference_assemble_once(family, table, 1e-7, 0.0), reference_system_to_dict))
        assert found == expected, edit
        assert isinstance(expected, str), edit
        errors.add(expected.split(":")[0])
    assert errors >= {"PreconditionViolated", "OverflowError", "VerificationFailed"}


def reference_pair(family, i, j, extra):
    """The bits of the arcs of pair (i, j), owner i's then owner j's, cut as objects."""
    floor = _cut_floor(family, i, j)
    arcs = []
    for owner, partner in ((i, j), (j, i)):
        k = family.cls[owner]
        chart = axis_chart(Geodesic(k.beta, k.alpha))
        t, s = reference_axis_position(inverse(chart), family.cls[partner]), _cut_position(k.tau, floor, extra)
        arcs.append([arc_hex(reference_cut(chart, t + s, k.alpha)), arc_hex(reference_cut(chart, t - s, k.beta))])
    return arcs


def test_pair_builders_cut_the_object_arcs(families):
    built = 0
    for family in families[::5]:
        for (i, j), pg in family.pairs.items():
            if pg.kind == "crossing":
                builder = build_crossing_pair_intervals
            elif pg.kind == "disjoint" and pg.nested_attractors:
                builder = build_disjoint_pair_intervals
            else:
                continue
            for extra in (0.0, 2.0):
                expected = outcome(lambda: reference_pair(family, i, j, extra))
                found = outcome(lambda: [[arc_hex(p.a), arc_hex(p.b)] for p in builder(family, i, j, cut_offset=extra)])
                assert found == expected, (i, j, extra)
                built += not isinstance(found, str)
    assert built > 20


def test_list_assembly_builds_no_point_or_arc_before_the_union(monkeypatch):
    family = Family.of(_load_generators(str(DATA / "admissible6.json")))
    assert isinstance(family.cross_ratios, list) and family.rank_one_arcs == ()
    events = []

    def record(name, original):
        def wrapper(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(BoundaryPoint, "__init__", record("point", BoundaryPoint.__init__))
    monkeypatch.setattr(BoundaryPoint, "of", staticmethod(record("point", BoundaryPoint.of)))
    monkeypatch.setattr(boundary_arcs, "_point_at", record("point", boundary_arcs._point_at))
    monkeypatch.setattr(moebius_core, "_point_at", record("point", moebius_core._point_at))
    monkeypatch.setattr(BoundaryArc, "__init__", record("arc", BoundaryArc.__init__))
    monkeypatch.setattr(interval_builder, "_arc_at", record("component", interval_builder._arc_at))
    system = assemble_global(family)
    first = events.index("component")
    assert events[:first] == []
    assert events.count("component") == len(system.union) == len(family.alpha_classes)
    # Writing the certificate builds no pair arc; reading `pairs` afterwards builds them from the floats.
    cert = certify(family)
    events.clear()
    json.dumps(certificate_to_dict(cert))
    assert "arc" not in events and "point" not in events
    assert len(cert.system.pairs) == len(family.cls) and events.count("arc") == 2 * len(family.cls)


@pytest.mark.parametrize("name", ["admissible6", "figure_two_41", "admissible12", "rank_one12"])
def test_checked_in_certificates_are_written_byte_for_byte(name):
    # Each golden file is `certify` plus `certificate_to_dict`, as sorted-key
    # JSON, written by the object assembly before it moved onto floats.
    maps = _load_generators(str(DATA / f"{name}.json"))
    assert json.dumps(certificate_to_dict(certify(maps)), sort_keys=True) + "\n" == (DATA / "certificates" / f"{name}.json").read_text()


@pytest.mark.parametrize("name", ["figure_two_41", "admissible12"])
def test_union_certificates_compare_and_hash_by_value(name):
    # figure_two_41 assembles on the list path, admissible12 on arrays (`ArcUnion.of_arrays`).
    maps = _load_generators(str(DATA / f"{name}.json"))
    first, second = certify(maps), certify(maps)
    assert first.kind == "semidiscrete_inverse_free" and first.system.union is not second.system.union
    assert first == second and hash(first) == hash(second)


def test_an_array_union_equals_the_object_union_of_the_same_arcs():
    start, end = certify(_load_generators(str(DATA / "admissible12.json"))).system.union.arrays()
    arrays = ArcUnion.of_arrays(start, end)
    ends = zip(start[0].tolist(), start[1].tolist(), end[0].tolist(), end[1].tolist())
    objects = ArcUnion(BoundaryArc(BoundaryPoint(sx, sy), BoundaryPoint(ex, ey)) for sx, sy, ex, ey in ends)
    assert objects.arrays() is None and arrays._arcs is None  # no arc built on the array side yet
    assert arrays == objects and objects == arrays and hash(arrays) == hash(objects)
    assert ArcUnion(objects.arcs[1:]) != arrays and arrays != objects.arcs


def test_checked_in_admissible6_takes_the_list_path_without_shared_points():
    # `bench/families.admissible_family(np.random.default_rng(6), 6)`; CI
    # certifies the same file with the installed console script.
    family = Family.of(_load_generators(str(DATA / "admissible6.json")))
    assert isinstance(family.cross_ratios, list)
    assert all(len(c) == 1 for c in family.alpha_classes + family.beta_classes)
