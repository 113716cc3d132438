"""The pair table as arrays and the screens of the assembly change no certificate.

A large `Family` keeps its cross ratios as an array, and every `Family`
decodes a pair only when asked; the axis table, `Thresholds` and
`eq_constant` read the array.  Every screen leaves to the scalar code each
decision it cannot separate from a threshold, so forcing the scalar path
everywhere must give byte-identical certificates.
"""

import gc
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from semicert import BoundaryPoint, assemble_global, certify, from_axis_and_length
from semicert import interval_builder, pair_geometry
from semicert import boundary_arcs
from semicert.boundary_arcs import ArcUnion, BoundaryArc, complement
from semicert.criteria_engine import SemidiscreteInverseFree, Thresholds, certificate_to_dict
from semicert.cli import _load_generators
from semicert.errors import CertifyError
from semicert.interval_builder import AXIS_SCREEN_TOL, SymmetricIntervalPair, _AxisTable, eq_constant, mapping_margin, pair_gate
from semicert.pair_geometry import Family, _kinds, cross_ratio_of_points

from helpers import (
    LIST_N,
    arc_around,
    arc_image,
    bench_module,
    figure_two,
    in_both_forms,
    point_arrays,
    random_admissible_family,
    shared_attractor_family,
    shared_repeller_family,
)
from test_reference_classify import geometry_bits

DATA = Path(__file__).resolve().parent / "data"


def bench_inputs(builder: str, *args):
    """Inputs of a benchmark workload, from `bench/families.py` (read only)."""
    return [list(f.maps) for f in getattr(bench_module("families"), builder)(*args)]


def with_crossover(monkeypatch, crossover, run):
    """run() with PAIR_ARRAY_MIN_PAIRS, the one size switch, set to `crossover` (None keeps the default)."""
    with monkeypatch.context() as patch:
        if crossover is not None:
            patch.setattr(pair_geometry, "PAIR_ARRAY_MIN_PAIRS", crossover)
        return run()


def certificates(families):
    return [json.dumps(certificate_to_dict(certify(F)), sort_keys=True) for F in families]


def assembly(F):
    """The assembled system's JSON, or the error it raised."""
    try:
        system = assemble_global(F)
    except CertifyError as exc:
        return f"{type(exc).__name__}: {exc}"
    return json.dumps(certificate_to_dict(SemidiscreteInverseFree(system)), sort_keys=True)


# --- agreement -----------------------------------------------------------------


def test_assembly_large_certificates_are_byte_identical(monkeypatch):
    families = bench_inputs("assembly_large", 1, 48, 32)
    schedules = []
    once = interval_builder._assemble_once

    def counting(family, table, margin, extra):
        schedules.append(extra)
        return once(family, table, margin, extra)

    monkeypatch.setattr(interval_builder, "_assemble_once", counting)
    default = with_crossover(monkeypatch, None, lambda: certificates(families))
    assert len(schedules) == 53 and schedules.count(2.0) == 5  # five families need a second schedule
    scalar = with_crossover(monkeypatch, math.inf, lambda: certificates(families))
    assert default == scalar
    assert all(json.loads(text)["kind"] == "semidiscrete_inverse_free" for text in default)


def test_axis_table_outlives_its_family(monkeypatch):
    # A table keeps the family that its lazy cut floors read, so one built
    # on a Family that nothing else holds ranks every cut schedule as the
    # table of assemble_global does.
    F = bench_inputs("assembly_large", 1, 1, 32)[0]  # the workload's first family
    table = _AxisTable(Family.of(F))
    gc.collect()
    tables = []
    once = interval_builder._assemble_once
    monkeypatch.setattr(
        interval_builder, "_assemble_once", lambda family, t, *args: tables.append(t) or once(family, t, *args)
    )
    assemble_global(F)
    assert tables and all(t is tables[0] for t in tables)
    for extra in (0.0, 2.0, 4.0, 7.0, 10.0):
        assert table.innermost(extra) == tables[0].innermost(extra)


def test_verdict_mix_certificates_are_byte_identical(monkeypatch):
    families = bench_inputs("verdict_mix", 1, 20)
    arrays, default, scalar = (
        with_crossover(monkeypatch, crossover, lambda: certificates(families)) for crossover in (0, None, math.inf)
    )
    assert arrays == default == scalar
    assert len({json.loads(text)["kind"] for text in default}) == 4


def figure_two_grid():
    """tau on both sides of the pair gates 3/2 and log 9 + 3/2, the shared gate log 5 and the upper threshold."""
    upper = Thresholds.from_generators(figure_two(1.0)).upper
    gates = (1.5, math.log(5.0), math.log(9.0) + 1.5, upper)
    return [g + d for g in gates for d in (-1e-6, -1e-10, 0.0, 1e-10, 1e-6)] + [41.0, 45.0, 60.0]


@pytest.mark.parametrize("tau", figure_two_grid())
def test_figure_two_near_the_gates(monkeypatch, tau):
    F = figure_two(tau)
    arrays, scalar = (
        with_crossover(monkeypatch, crossover, lambda: (certificates([F]), assembly(F))) for crossover in (0, math.inf)
    )
    assert arrays == scalar


def below_gate_families():
    """Admissible fixed points with tau log-uniform in [2, 30]: some pairs fall below their gates."""
    rng = np.random.default_rng(161)
    out = []
    for trial in range(300):
        n = int(rng.integers(3, 9)) if trial % 50 else 16
        family = Family.of(random_admissible_family(rng, n, min_gap=0.01))
        taus = np.exp(rng.uniform(math.log(2.0), math.log(30.0), size=n)).tolist()
        out.append([from_axis_and_length(k.beta, k.alpha, tau) for k, tau in zip(family.cls, taus)])
    return out


def test_skip_notes_are_byte_identical(monkeypatch):
    families = below_gate_families()
    arrays, scalar = (
        with_crossover(monkeypatch, crossover, lambda: [assembly(F) for F in families]) for crossover in (0, math.inf)
    )
    assert arrays == scalar
    notes = [json.loads(text)["notes"] for text in scalar if text.startswith("{")]
    assert sum(map(bool, notes)) >= 5


def test_broadcast_cross_ratios_equal_the_scalar_ones():
    for F in bench_inputs("assembly_large", 1, 48, 32):
        family = Family.of(F)
        assert isinstance(family.cross_ratios, np.ndarray)
        cls = family.cls
        scalar = [
            cross_ratio_of_points(cls[i].alpha, cls[i].beta, cls[j].alpha, cls[j].beta)
            for i in range(len(cls))
            for j in range(i + 1, len(cls))
        ]
        assert [c.hex() for c in family.cross_ratios.tolist()] == [c.hex() for c in scalar]


def edge_families():
    """Pairs with a cross ratio within a few ulps of each kind edge, on both sides, and one with C = inf.

    With f on 0 -> inf and g from v to its attracting point 1, C = v.
    """
    r, tol = BoundaryPoint.from_real, pair_geometry.DEGENERATE_TOL
    f = from_axis_and_length(r(0.0), BoundaryPoint.infinity(), 2.0)
    out = [
        [f, from_axis_and_length(r(edge * (1.0 + k * 2.0**-40)), r(1.0), 2.0)]
        for edge in (-tol, tol, 1.0 - tol, 1.0 + tol)
        for k in range(-3, 4)
    ]
    return out + [[f, from_axis_and_length(r(3.0), r(0.0), 2.0)]]  # g attracts to f's repeller


def test_both_forms_decode_every_pair_alike():
    rng = np.random.default_rng(163)
    families = [random_admissible_family(rng, n) for n in range(2, LIST_N + 1)]
    families += [figure_two(41.0), shared_attractor_family(), shared_repeller_family(), *edge_families()]
    kinds = Counter()
    for F in families:
        scalar, arrays = in_both_forms(F)
        rows = [[(key, c.hex(), code) for key, c, code in family.pair_rows()] for family in (scalar, arrays)]
        assert rows[0] == rows[1]
        keys = [(i, j) for i in range(len(F)) for j in range(i + 1, len(F))]
        assert list(scalar.pairs) == list(arrays.pairs) == keys
        assert [geometry_bits(pg) for pg in scalar.pairs.values()] == [geometry_bits(pg) for pg in arrays.pairs.values()]
        kinds.update(pg.kind for pg in scalar.pairs.values())
    assert set(kinds) == {"crossing", "disjoint", "shared_alpha", "shared_beta", "alpha_meets_beta", "parabolic_degenerate"}


# --- one switch: the family's path ---------------------------------------------------


def array_path_calls(monkeypatch):
    """Counts of the array path's own steps: the array assembly, the screened ranking and the screened verifier."""
    counts = {}
    for owner, name in (
        (interval_builder, "_assemble_arrays"),
        (_AxisTable, "_candidates"),
        (boundary_arcs, "_screened_margin"),
    ):
        original = getattr(owner, name)
        counts[name] = 0

        def counted(*args, _original=original, _name=name):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, counted)
    return counts


@pytest.mark.parametrize("n", sorted({2, 8, LIST_N, LIST_N + 1, 32}))
def test_a_family_takes_one_path_end_to_end(monkeypatch, n):
    # Family.of chooses the path once: a list table assembles, ranks and
    # verifies in scalar, an array table assembles on arrays, screens the
    # ranking of every schedule and screens its assembled union.
    F = bench_module("families").admissible_family(np.random.default_rng([n, 41]), n)
    counts = array_path_calls(monkeypatch)
    cert = certify(F)
    assert isinstance(cert, SemidiscreteInverseFree)
    if n <= LIST_N:
        assert isinstance(Family.of(F).cross_ratios, list)
        assert counts == {"_assemble_arrays": 0, "_candidates": 0, "_screened_margin": 0}
    else:
        assert cert.system.union.arrays() is not None
        schedules = counts["_assemble_arrays"]
        assert schedules >= 1 and counts["_candidates"] == schedules
        assert 1 <= counts["_screened_margin"] <= schedules


@pytest.mark.parametrize("n", sorted({2, 8, LIST_N, LIST_N + 1, 32}))
def test_a_rank_one_union_is_decided_in_scalar(monkeypatch, n):
    F = bench_module("families").rank_one_family(np.random.default_rng([n, 42]), n)
    counts = array_path_calls(monkeypatch)
    assert certify(F).kind == "rank_one_schottky"
    assert counts == {"_assemble_arrays": 0, "_candidates": 0, "_screened_margin": 0}


# --- decisions near a threshold reach the scalar check ----------------------------


def right_angle_partner(height, tau):
    """A map whose axis crosses the axis 0 -> inf at a right angle, at height `height`."""
    return from_axis_and_length(BoundaryPoint.from_real(-height), BoundaryPoint.from_real(height), tau)


def test_tau_at_a_pair_gate_is_decided_in_scalar(monkeypatch):
    monkeypatch.setattr(pair_geometry, "PAIR_ARRAY_MIN_PAIRS", 0)
    beta, alpha = BoundaryPoint.from_real(0.0), BoundaryPoint.infinity()
    partners = [right_angle_partner(2.0, 20.0), right_angle_partner(0.5, 20.0)]
    probe = Family.of([from_axis_and_length(beta, alpha, 5.0)] + partners)
    gate = pair_gate(probe.pair(0, 1).cross_ratio)
    family = Family.of([from_axis_and_length(beta, alpha, gate)] + partners)
    assert abs(family.cls[0].tau - pair_gate(family.pair(0, 1).cross_ratio)) <= 1e-12
    decided = []
    cut_floor = interval_builder._cut_floor
    monkeypatch.setattr(
        interval_builder, "_cut_floor", lambda fam, i, j: decided.append((i, j)) or cut_floor(fam, i, j)
    )
    table = _AxisTable(Family.of(family.maps))
    assert (0, 1) in decided and (0, 2) in decided
    monkeypatch.setattr(pair_geometry, "PAIR_ARRAY_MIN_PAIRS", math.inf)
    reference = _AxisTable(Family.of(family.maps))
    entries = [(o, p) for i, j in reference.floors for o, p in ((i, j), (j, i))]
    assert (list(zip(*table._entry_arrays.tolist())), table.notes) == (entries, reference.notes)


def test_tied_maxima_reach_the_scalar_terms(monkeypatch):
    from semicert import criteria_engine

    seen = []
    for module, name in ((criteria_engine, "_upper_term"), (interval_builder, "pair_gate"), (interval_builder, "distance_from_cross_ratio")):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda c, _f=original, _n=name: seen.append((_n, c)) or _f(c))
    # c (c - 1) is 6 at c = 3 and c = -2; |log|c|| and the axis distance tie at c = 4 and 1/4.
    values = [3.0, -2.0, 0.5, 4.0, 0.25, -1.0]
    assert Thresholds.from_cross_ratios(np.array(values)) == Thresholds.from_cross_ratios(values)
    assert {c for n, c in seen if n == "_upper_term"} >= {3.0, -2.0}
    seen.clear()
    assert eq_constant(np.array(values), _kinds(np.array(values))).hex() == eq_constant(values, _kinds(values)).hex()
    assert {c for n, c in seen if n == "pair_gate"} >= {4.0, 0.25}
    assert {c for n, c in seen if n == "distance_from_cross_ratio"} >= {4.0, 0.25}


def kind_edge_values():
    """Each `_KIND_EDGES` edge and its float neighbours, the DEGENERATE_TOL points, and finite ratios whose C (C - 1) overflows."""
    tol = pair_geometry.DEGENERATE_TOL
    edges = pair_geometry._KIND_EDGES.tolist()
    values = {v for e in edges for v in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))}
    return sorted(values | {-tol, tol, 1.0 - tol, 1.0, 1.0 + tol, 1e155, -1e155})


def bound_bits(cs):
    th = Thresholds.from_cross_ratios(cs)
    return th.lower.hex(), th.upper.hex(), eq_constant(cs, _kinds(cs)).hex()


def test_both_forms_agree_at_the_kind_edges():
    values = kind_edge_values()
    parabolic = [c for c in values if pair_geometry._kind(c) == pair_geometry.PARABOLIC]
    assert 1.0 in parabolic and len(parabolic) == 4
    rng = np.random.default_rng(167)
    tables = [[c] for c in values] + [values] + [rng.choice(values, 6).tolist() for _ in range(40)]
    tables += [[3.0, -2.0, 0.5, c] for c in values]
    for table in tables:
        found = bound_bits(table)
        assert bound_bits(np.array(table)) == found
        # A PARABOLIC pair enters no bound.
        for c in parabolic:
            assert bound_bits(table + [c]) == bound_bits(np.array(table + [c])) == found


def test_the_stored_codes_are_those_of_the_kind_rule():
    tol = pair_geometry.DEGENERATE_TOL
    values = [-math.inf, math.inf, -0.0, 0.0, -tol, tol, 1.0 - tol, 1.0, 1.0 + tol, *kind_edge_values()]
    expected = [pair_geometry._kind(c) for c in values]
    assert pair_geometry._kinds(values) == expected
    assert pair_geometry._kinds(np.array(values)).tolist() == expected
    # Shared endpoints (C = 0 and inf), a ratio of exactly 1, and no degenerate pair, on both table types.
    inputs = [figure_two(41.0), _load_generators(str(DATA / "cross_ratio_one.json")), random_admissible_family(np.random.default_rng(5), 6)]
    for maps in inputs:
        for family in in_both_forms(maps):
            ratios, codes = family.cross_ratios, family.kinds
            assert type(codes) is type(ratios) and len(codes) == len(ratios)
            assert list(codes) == [pair_geometry._kind(c) for c in list(ratios)]
        fresh = Family.of(maps)
        assert fresh.kinds == list(codes) and "cross_ratios" in vars(fresh)  # read first, `kinds` computes the table


def count_binning(monkeypatch):
    """The calls of `pair_geometry.bisect_right`, one per ratio binned on a list, and of `_kinds`, one per table, appended as they run."""
    calls = []
    for name in ("bisect_right", "_kinds"):
        original = getattr(pair_geometry, name)
        monkeypatch.setattr(pair_geometry, name, lambda *args, _f=original, _n=name: calls.append(_n) or _f(*args))
    return calls


def test_each_ratio_is_binned_once_per_certify(monkeypatch):
    # The thresholds, the witness scan and the report of `figure_two(1.0)`, 10
    # ratios on a list, and the thresholds, the axis table and the assembly
    # constant of an n = 32 family, 496 ratios on an array, read the codes
    # that `Family` computes with the table.
    [large] = bench_inputs("assembly_large", 1, 1, 32)
    calls = count_binning(monkeypatch)
    assert certify(figure_two(1.0)).kind == "inconclusive"
    assert Counter(calls) == {"bisect_right": 10, "_kinds": 1}
    calls.clear()
    assert certify(large).kind == "semidiscrete_inverse_free"
    assert Counter(calls) == {"_kinds": 1}


def test_cut_at_half_tau_is_rescored_in_scalar():
    # Right-angle crossings have cut floor atanh(cos(pi/4)); at tau = twice
    # that, _cut_position jumps between its two branches, so the screen
    # cannot trust the array floor there.
    floor = math.atanh(math.cos(0.25 * math.pi))
    owner = from_axis_and_length(BoundaryPoint.from_real(0.0), BoundaryPoint.infinity(), 2.0 * floor)
    scalar, family = in_both_forms([owner] + [right_angle_partner(h, 20.0) for h in (math.exp(-3.0), 1.0, math.exp(3.0))])
    assert abs(0.5 * family.cls[0].tau - floor) <= AXIS_SCREEN_TOL
    table = _AxisTable(family)
    trusted = table._screen_entries()[-1]
    mine = np.flatnonzero(table._entry_arrays[0] == 0).tolist()
    assert len(mine) == 3 and not trusted[mine].any()
    for extra in (0.0, 2.0):
        assert set(mine) <= set(table._candidates(extra).tolist())
        assert table.innermost(extra) == _AxisTable(scalar).innermost(extra)


def test_mapping_margin_passes_a_clearance_below_the_screen_tolerance():
    # The owner maps the complement of b into a with one clearance of 5e-13
    # rad, below SCREEN_TOL: the scalar check measures it as contained.
    f = from_axis_and_length(BoundaryPoint.from_angle(1.0), BoundaryPoint.from_angle(4.0), 6.0)
    b = BoundaryArc.from_angles(0.9, 1.1)
    image = arc_image(f, complement(b))
    a = BoundaryArc.from_angles(image.start.angle - 5e-13, image.end.angle + 1e-3)
    assert 0.0 < mapping_margin(f, SymmetricIntervalPair(a, b, 0)) < 1e-12


# --- decoding on demand -----------------------------------------------------------


def counted_decodes(monkeypatch) -> list:
    """The classifications of each pair that `_decode` decodes from now on, appended as it runs."""
    decoded = []
    decode = pair_geometry._decode
    monkeypatch.setattr(pair_geometry, "_decode", lambda c, cf, cg: decoded.append((id(cf), id(cg))) or decode(c, cf, cg))
    return decoded


def test_certify_decodes_only_the_pairs_it_reads(monkeypatch):
    F = bench_inputs("assembly_large", 1, 1, 32)[0]
    decoded = counted_decodes(monkeypatch)
    assert certify(F).kind == "semidiscrete_inverse_free"
    # None of the 496 pairs: the ranking reads exact cut floors off the
    # arrays, and no pair of this family is decided or skipped in scalar.
    assert decoded == []
    family = Family.of(F)
    assert len(family.pairs) == 496 and list(family.pairs) == sorted(family.pairs)
    assert len(decoded) == len(set(decoded)) == 496


def test_certify_decodes_only_the_pairs_it_reads_on_the_list_path(monkeypatch):
    # The first family of each verdict-mix class.  Only the crossing rule's
    # angle and the witness search's axis distance decode a pair: the
    # rank-one search, the thresholds, the assembly, the skipped witness
    # rules and the report read cross ratios and kind codes.
    first = {}
    for f in bench_module("families").verdict_mix(1, 1)[1:]:
        first.setdefault(f.cls, list(f.maps))
    expected = {
        "rank_one": "rank_one_schottky",
        "between": "inconclusive",
        "schottky": "semidiscrete_inverse_free",
        "witness": "not_semidiscrete",
        "crossing": "not_semidiscrete",
    }
    assert set(first) == set(expected)
    decoded = counted_decodes(monkeypatch)
    for cls, F in first.items():
        family = Family.of(F)
        assert isinstance(family.cross_ratios, list) and decoded == [], cls
        cert = certify(family)
        assert cert.kind == expected[cls], cls
        # A witness decodes its own pair, once; no other verdict decodes one.
        i, j = cert.criterion["pair"] if cert.kind == "not_semidiscrete" else (None, None)
        assert decoded == ([] if i is None else [(id(family.cls[i]), id(family.cls[j]))]), cls
        decoded.clear()
    family = Family.of(bench_inputs("assembly_large", 1, 1, 32)[0])
    assert isinstance(family.cross_ratios, np.ndarray) and decoded == []



# --- the array assembly ---------------------------------------------------------------


def outcome(run):
    """run()'s result, or the type and message of what it raised."""
    try:
        return run()
    except (CertifyError, ValueError, OverflowError) as exc:
        return f"{type(exc).__name__}: {exc}"


def arc_hex(arc):
    return [v.hex() for p in (arc.start, arc.end) for v in (p.x, p.y, p.angle)]


def cut_hex(ends):
    """`arc_hex` of the arc whose ends a float cut gives as x, y and angle."""
    return [v.hex() for p in ends for v in p]


def test_array_circle_steps_equal_the_scalar_ones():
    rng = np.random.default_rng(181)
    for trial in range(300):
        n = int(rng.integers(1, 6))
        # Arcs around angle 1, some of them missing it, many overlapping each other.
        lo, hi = 1.0 - rng.uniform(-0.2, 3.0, n), 1.0 + rng.uniform(-0.2, 3.0, n)
        if trial % 10 == 0:
            hi[0] = lo[0]  # equal ends
        if trial % 7 == 0:
            lo[-1] = 1.0  # an arc that starts on the point: the intersection is empty
        ends = [(BoundaryPoint.from_angle(a), BoundaryPoint.from_angle(b)) for a, b in zip(lo.tolist(), hi.tolist())]
        start, end = (point_arrays([e[k] for e in ends]) for k in (0, 1))
        point = BoundaryPoint.from_angle(1.0)
        arcs = [BoundaryArc(*e) for e in ends if e[0].angle != e[1].angle]
        if len(arcs) == n:
            owner, points = np.zeros(n, dtype=int), np.array([point.angle])
            steps = ((False, boundary_arcs.intersections_around), (True, boundary_arcs.hulls_around))
            for hull, arrays in steps:
                expected = outcome(lambda: arc_hex(arc_around(point, arcs, hull)))
                found = outcome(lambda: arc_hex(boundary_arcs.arcs_of(*arrays(points, owner, start[2], end[2]))[0]))
                assert found == expected
        expected = outcome(lambda: [arc_hex(a) for a in ArcUnion([BoundaryArc(*e) for e in ends])])
        assert outcome(lambda: [arc_hex(a) for a in ArcUnion.of_arrays(start, end)]) == expected
        forward, between = boundary_arcs.arcs_between(start[2], end[2], np.full(n, point.angle))
        for k, e in enumerate(ends):
            try:
                expected = boundary_arcs._runs_forward(e[0].angle, e[1].angle, point.angle)
            except ValueError:
                expected = None
            assert (bool(forward[k]) if between[k] else None) == expected


def test_array_cuts_equal_the_scalar_cuts(monkeypatch):
    monkeypatch.setattr(pair_geometry, "PAIR_ARRAY_MIN_PAIRS", 0)
    family = Family.of(figure_two(41.0) + bench_inputs("assembly_large", 1, 1, 32)[0][:3])
    table = _AxisTable(family)
    n = len(family.cls)
    heights = np.array([0.0, 3.0, -3.0, 18.0, 40.0, -40.0, 700.0, 800.0, -800.0, math.inf, -math.inf, math.nan])
    owners = np.repeat(np.arange(n), len(heights))
    heights = np.tile(heights, n)
    start, end, ok = table.cuts(owners, np.array([heights, heights]), table.fixed_angles[:, owners])
    for row, side in enumerate(("alpha", "beta")):
        cut = ok[row]
        arcs = iter(boundary_arcs.arcs_of(*(tuple(v[row][cut] for v in ends) for ends in (start, end))))
        found = [arc_hex(next(arcs)) if k else "failed" for k in cut.tolist()]
        points = [getattr(k, side) for k in family.cls]
        expected = [outcome(lambda: cut_hex(table.cut(i, h, points[i].angle))) for i, h in zip(owners.tolist(), heights.tolist())]
        assert found == [e if isinstance(e, list) else "failed" for e in expected]
        assert {e.split(":")[0] for e in expected if isinstance(e, str)} == {"VerificationFailed", "OverflowError"}


def test_a_failing_array_schedule_raises_the_scalar_error(monkeypatch):
    F = bench_inputs("assembly_large", 1, 1, 32)[0]
    heights = _AxisTable(Family.of(F)).innermost(0.0)
    edits = [
        {3: None},
        {5: (heights[5][0], 60.0), 7: None},
        {2: (800.0, heights[2][1]), 9: (heights[9][0], math.nan)},
        {4: (math.nan, heights[4][1]), 6: (40.0, heights[6][1])},
        {1: (heights[1][0] - 3.0, heights[1][1] + 3.0)},
    ]
    for edit in edits:
        crafted = [edit.get(i, h) for i, h in enumerate(heights)]
        monkeypatch.setattr(_AxisTable, "innermost", lambda self, extra: crafted)
        arrays, scalar = (
            with_crossover(monkeypatch, crossover, lambda: outcome(lambda: assemble_global(F).margin))
            for crossover in (0, math.inf)
        )
        assert arrays == scalar
        assert isinstance(scalar, str), edit
