"""The small-family stages after `classify` run on floats, equal to their object forms bit for bit.

The axis charts, the shared-fixed-point groups and the image of an arc are
computed from floats with no `Geodesic`, `MoebiusMap` or `BoundaryPoint`
built; `tests/helpers.py` keeps the object forms as they were written
(`reference_chart_entries`, `reference_shared_group`, `arc_image`), and
every float here is compared with them by `float.hex`, and every error by
its type and message.  One axis table cuts the groups once per
`assemble_global` call, ranks its list entries from rows computed once, and
reads the assembly constant off the one pass over the pair table; a
family certified by one rank-one interval never computes its pair table.
"""

import math
import pickle
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from semicert import BoundaryPoint, Geodesic, MoebiusMap, assemble_global, certify, conjugate, from_axis_and_length, normalize
from semicert import interval_builder
from semicert.boundary_arcs import BoundaryArc, _arc_floats, _image_ends
from semicert.cli import _load_generators
from semicert.errors import CertifyError, VerificationFailed
from semicert.interval_builder import SHARED_ALPHA_GATE, SharedFixedPointGroup, _AxisTable, _chart_entries, _shared_group, eq_constant
from semicert.moebius_core import Classification
from semicert.pair_geometry import Family, _kinds, distance_from_cross_ratio, pair_gate

from helpers import (
    LIST_N,
    admitted_entries,
    arc_image,
    conjugated_figure_two,
    figure_two,
    forced_shared_family,
    group_arcs,
    one_axis_family,
    random_admissible_family,
    random_moebius,
    reference_chart_entries,
    reference_shared_group,
    retry_ladder_family,
    section_one_pair,
    shared_attractor_family,
    shared_repeller_family,
)

DATA = Path(__file__).resolve().parent / "data"


def outcome(run):
    """The bits of run()'s floats, or the type and message of what it raised."""
    try:
        return [v.hex() for v in np.ravel(run()).tolist()]
    except (CertifyError, ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def ends_of(arc):
    return [(p.x, p.y, p.angle) for p in (arc.start, arc.end)]


def group_floats(group):
    """Kind, members and the x, y and angle of the ends of `near`, then of `far`, of a group built either way."""
    ends = [v for arc in group_arcs(group) for p in (arc.start, arc.end) for v in (p.x, p.y, p.angle)]
    return (group.kind, group.members, ends)


def group_outcome(build):
    try:
        kind, members, ends = group_floats(build())
        return kind, members, [v.hex() for v in ends]
    except (CertifyError, ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def three_member_family():
    """Three generators sharing an attracting point (conjugated from z -> 6z, 6z - 5, 7.5z - 3), with two more."""
    m = random_moebius(np.random.default_rng(61))
    shared = [normalize([[6.0, 0.0], [0.0, 1.0]]), normalize([[6.0, -5.0], [0.0, 1.0]]), normalize([[7.5, -3.0], [0.0, 1.0]])]
    a = BoundaryPoint.from_angle
    return [conjugate(f, m) for f in shared] + [from_axis_and_length(a(1.7), a(4.2), 60.0), from_axis_and_length(a(5.8), a(3.6), 60.0)]


def near_shared_gate(delta):
    """Two generators sharing an attracting point with translation length log 5 + delta, and one crossing them."""
    a = BoundaryPoint.from_angle
    tau = SHARED_ALPHA_GATE + delta
    return [from_axis_and_length(a(2.2), a(0.7), tau), from_axis_and_length(a(2.9), a(0.7), tau), from_axis_and_length(a(1.7), a(4.2), 60.0)]


def shared_families():
    rng = np.random.default_rng(381)
    maps = [figure_two(41.0), conjugated_figure_two(), shared_attractor_family(), shared_repeller_family(), one_axis_family()]
    maps += [three_member_family(), [normalize([[6.0, 0.0], [0.0, 1.0]]), normalize([[6.0, -5.0], [0.0, 1.0]])]]
    maps += [near_shared_gate(d) for d in (-2e-12, -1e-12, 0.0, 1e-12, 2e-12, 3e-12)]
    maps += [forced_shared_family(rng, offset) for offset in (0.0, 1e-12, 1e-10) for _ in range(40)]
    return [Family.of(F) for F in maps]


def test_charts_equal_the_object_charts():
    rng = np.random.default_rng(380)
    families = [Family.of(random_admissible_family(rng, n, min_gap=0.01)) for n in range(2, 13)] + shared_families()
    for family in families:
        for k in family.cls:
            assert outcome(lambda: _chart_entries(k)) == outcome(lambda: reference_chart_entries(k))
    # Ends of one angle, and ends whose cross product is 0 (the same point).
    p, q = BoundaryPoint.from_angle(1.0), BoundaryPoint.from_angle(math.nextafter(1.0, 2.0))
    crafted = [(p, p), (q, p), (BoundaryPoint(p.x, p.y), p)]
    for alpha, beta in crafted:
        k = Classification(kind="hyperbolic", alpha=alpha, beta=beta, tau=3.0)
        expected = outcome(lambda: reference_chart_entries(k))
        assert outcome(lambda: _chart_entries(k)) == expected
        assert expected == "CoincidentEndpoints: geodesic endpoints coincide" or alpha.angle != beta.angle


def test_shared_groups_equal_the_object_groups():
    seen = set()
    for family in shared_families():
        for kind, classes in (("alpha", family.alpha_classes), ("beta", family.beta_classes)):
            for members in classes:
                if len(members) > 1:
                    expected = group_outcome(lambda: reference_shared_group(family, kind, members))
                    assert group_outcome(lambda: _shared_group(family, kind, members)) == expected
                    seen.add(expected.split(":")[0] if isinstance(expected, str) else (kind, min(len(members), 3)))
    assert seen == {("alpha", 2), ("beta", 2), ("alpha", 3), "ThresholdNotMet"}


def test_a_group_pickles_hashes_and_compares_by_its_ends():
    system = assemble_global(conjugated_figure_two())
    group = system.groups[0]
    fresh = SharedFixedPointGroup(group.kind, group.members, group.ends)
    near, far = group_arcs(group)
    assert fresh == group and hash(fresh) == hash(group)
    copy = pickle.loads(pickle.dumps(group))
    assert copy == group and hash(copy) == hash(group) and group_arcs(copy) == (near, group_arcs(fresh)[1])
    swapped = SharedFixedPointGroup(group.kind, group.members, group.ends[::-1])
    assert swapped != group and group_arcs(swapped)[0] == far
    # A system holding groups hashes, and two assemblies of one family are equal.
    again = assemble_global(conjugated_figure_two())
    assert len(system.groups) == 4 and again == system and hash(again) == hash(system)


def crafted_groups():
    """Classifications sharing an attracting point, with other fixed points from 1e-17 to 1 rad away, some coinciding."""
    rng = np.random.default_rng(382)
    at = BoundaryPoint.from_angle
    for trial in range(1500):
        shared = rng.uniform(0.0, 2.0 * math.pi)
        k = int(rng.integers(2, 4))
        others = (shared + rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-17.0, 0.0, k)).tolist()
        if trial % 5 == 0:
            others[0] = shared
        if trial % 7 == 0:
            others[1] = others[0]
        yield SimpleNamespace(cls=[Classification(kind="hyperbolic", alpha=at(shared), beta=at(o), tau=10.0) for o in others])


def test_pulled_back_arcs_below_float_resolution_raise_the_object_errors():
    seen = set()
    for family in crafted_groups():
        members = tuple(range(len(family.cls)))
        expected = group_outcome(lambda: reference_shared_group(family, "alpha", members))
        assert group_outcome(lambda: _shared_group(family, "alpha", members)) == expected
        seen.add(expected.split(" (")[0] if isinstance(expected, str) else "group")
    assert seen == {
        "group",
        "ValueError: arc endpoints coincide",
        "VerificationFailed: image arc is below float angular resolution",
        "NonPositiveDeterminant: determinant inf must be positive",
        "CoincidentEndpoints: triple contains coincident points",
        "ValueError: boundary triples have opposite cyclic orientations",
    }


def test_image_ends_equal_the_object_image():
    rng = np.random.default_rng(383)
    maps = [random_moebius(rng) for _ in range(60)]
    maps += [MoebiusMap(0.0, 0.0, 0.0, 0.0), MoebiusMap(1e308, 1e308, 1e308, 1e308), MoebiusMap(1e8, 0.0, 0.0, 1e-8)]
    arcs = [BoundaryArc.from_angles(*rng.uniform(0.0, 2.0 * math.pi, 2)) for _ in range(20)]
    arcs += [BoundaryArc.from_angles(1.0, 1.0 + 1e-15), BoundaryArc.from_reals(2.5, -1.5), BoundaryArc.from_reals(-0.5, 1.5)]
    seen = set()
    for f in maps:
        for arc in arcs:
            expected = outcome(lambda: ends_of(arc_image(f, arc)))
            assert outcome(lambda: _image_ends((f.a, f.b, f.c, f.d), _arc_floats(arc)[0])) == expected
            seen.add(expected.split(" (")[0] if isinstance(expected, str) else "arc")
    assert seen == {
        "arc",
        "VerificationFailed: image point cannot be placed: invalid homogeneous pair",
        "VerificationFailed: image arc is below float angular resolution",
    }


def test_groups_are_cut_once_per_assembly(monkeypatch):
    calls = []
    build = interval_builder.build_shared_alpha_intervals
    monkeypatch.setattr(interval_builder, "build_shared_alpha_intervals", lambda F: calls.append(F) or build(F))
    system = assemble_global(conjugated_figure_two())
    assert len(calls) == 1 and [(g.kind, g.members) for g in system.groups] == [(g.kind, g.members) for g in build(calls[0])]
    # Groups read after the assembly build their arcs from the floats it kept, as `build_shared_alpha_intervals` does.
    assert [group_floats(g) for g in system.groups] == [group_floats(g) for g in build(calls[0])]
    calls.clear()
    assemble_global(retry_ladder_family())  # no shared point: the groups are empty, cut once
    assert len(calls) == 1


def test_a_retried_schedule_raises_the_cached_group_error(monkeypatch):
    calls, schedules = [], []
    once = interval_builder._assemble_once

    def failing(family, kind, members):
        calls.append((kind, members))
        raise VerificationFailed("image arc is below float angular resolution")

    monkeypatch.setattr(interval_builder, "_shared_group", failing)
    monkeypatch.setattr(interval_builder, "_assemble_once", lambda *args: schedules.append(args[-1]) or once(*args))
    with pytest.raises(VerificationFailed) as raised:
        assemble_global(conjugated_figure_two())
    # Every schedule reaches the groups and raises the same error; the groups are cut once.
    assert schedules == [0.0, 2.0, 4.0, 7.0, 10.0] and calls == [("alpha", (0, 1))]
    assert str(raised.value) == "no cut schedule produced a verifiable union: image arc is below float angular resolution"
    family = Family.of(conjugated_figure_two())
    table = _AxisTable(family)
    errors = []
    for extra in (0.0, 2.0):
        with pytest.raises(VerificationFailed) as raised:
            once(family, table, extra)
        errors.append(raised.value)
    assert errors[0] is errors[1]


def test_list_ranking_places_each_entry_once(monkeypatch):
    rng = np.random.default_rng(384)
    family = Family.of(random_admissible_family(rng, LIST_N, min_gap=0.01))
    assert isinstance(family.cross_ratios, list)
    placed = []
    position = _AxisTable.position
    monkeypatch.setattr(_AxisTable, "position", lambda self, o, p: placed.append((o, p)) or position(self, o, p))
    table = _AxisTable(family)
    first = table.innermost(0.0)
    for extra in (2.0, 4.0, 7.0, 10.0):
        table.innermost(extra)
    assert placed == admitted_entries(table)
    assert first == _AxisTable(family).innermost(0.0)


def test_the_assembly_constant_reads_the_crossing_and_disjoint_pairs():
    # The gates of the crossing and disjoint pairs and the axis distances of
    # the disjoint ones, picked by their decoded kinds, give the constant of
    # both table forms bit for bit.
    rng = np.random.default_rng(385)
    maps = [random_admissible_family(rng, n, min_gap=0.01) for n in range(2, LIST_N + 1) for _ in range(3)]
    maps += [[from_axis_and_length(BoundaryPoint.from_real(-1.0), BoundaryPoint.from_real(1.0), 3.0)]]
    maps += [figure_two(tau) for tau in (0.1, 1.5, 41.0)]
    maps += [one_axis_family(), shared_attractor_family(), conjugated_figure_two()]
    values = set()
    for F in maps:
        family = Family.of(F)
        assert isinstance(family.cross_ratios, list)
        pairs = [(pg.cross_ratio, pg.kind) for pg in family.pairs.values()]
        gates = [pair_gate(c) for c, kind in pairs if kind in ("crossing", "disjoint")]
        distances = [distance_from_cross_ratio(c) for c, kind in pairs if kind == "disjoint"]
        expected = 2.0 * max(gates) + max([0.0, *distances]) if gates else 0.0
        for table in (family.cross_ratios, np.array(family.cross_ratios)):
            assert eq_constant(table, _kinds(table)).hex() == expected.hex()
        values.add(expected == 0.0)
    assert values == {True, False}


def test_a_rank_one_certificate_leaves_the_pair_table_uncomputed():
    for F in (list(section_one_pair()), _load_generators(str(DATA / "rank_one12.json"))):
        family = Family.of(F)
        assert certify(family).kind == "rank_one_schottky"
        assert "cross_ratios" not in vars(family)
    family = Family.of(_load_generators(str(DATA / "admissible6.json")))
    assert certify(family).kind == "semidiscrete_inverse_free" and "cross_ratios" in vars(family)


def test_assembly_builds_no_map_or_line(monkeypatch):
    family = Family.of(_load_generators(str(DATA / "figure_two_41.json")))
    assert isinstance(family.cross_ratios, list) and any(len(c) > 1 for c in family.alpha_classes)
    built = []
    for cls in (MoebiusMap, Geodesic):
        init = cls.__init__
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=init, _cls=cls: built.append(_cls.__name__) or _init(self, *args))
    system = assemble_global(family)
    assert built == [] and len(system.groups) == 4
    MoebiusMap(1.0, 0.0, 0.0, 1.0)
    Geodesic(family.cls[0].beta, family.cls[0].alpha)
    assert built == ["MoebiusMap", "Geodesic"]  # the wrappers record
