"""The one-pass family: each generator classified once, each pair decoded at most once, when read."""

import importlib
import math
import pkgutil
from collections import Counter

import numpy as np
import pytest

import semicert
from semicert import (
    BoundaryPoint,
    NotSemidiscrete,
    SemidiscreteInverseFree,
    certify,
    cross_ratio,
    from_axis_and_length,
    normalize,
)
from semicert.boundary_arcs import cluster
from semicert.criteria_engine import crossing_limit_interval
from semicert.errors import AxesDoNotCross, AxesNotDisjoint, CertifyError, NotHyperbolic, PreconditionViolated, ThresholdNotMet
from semicert.moebius_core import ANGLE_TOL, TWO_PI
from semicert.pair_geometry import Family

from helpers import LIST_N, bench_module, crossing_pair, figure_two, greedy_cluster, random_admissible_family, section_one_pair

MODULES = [semicert] + [
    importlib.import_module(f"semicert.{info.name}") for info in pkgutil.iter_modules(semicert.__path__)
]
COUNTED = ("classify", "cross_ratio_of_points")


def count_calls(monkeypatch, names=COUNTED) -> Counter:
    """Wrap every binding of the named functions in every semicert module."""
    counts: Counter = Counter()
    for module in MODULES:
        for name in names:
            original = module.__dict__.get(name)
            if original is None:
                continue

            def wrapper(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
    return counts


def crossing_with_repeller():
    rng = np.random.default_rng(90)
    f, g = crossing_pair(rng, math.pi / 2.0, 0.15, 0.15, conjugate_by=normalize([[1, 0], [0, 1]]))
    arc = crossing_limit_interval([f, g])
    beta = arc.start.angle + 0.5 * arc.span
    h = from_axis_and_length(BoundaryPoint.from_angle(beta), BoundaryPoint.from_angle(beta + 0.9 * math.pi), 1.0)
    return [f, g, h]


@pytest.mark.parametrize(
    "build, kind",
    [
        (lambda: random_admissible_family(np.random.default_rng(91), 12), SemidiscreteInverseFree),
        (lambda: figure_two(0.1), NotSemidiscrete),
        (crossing_with_repeller, NotSemidiscrete),
        (lambda: figure_two(41.0), SemidiscreteInverseFree),
    ],
    ids=["schottky-12", "figure-two-witness", "crossing-with-repeller", "figure-two-shared-points"],
)
def test_certify_classifies_each_generator_once(monkeypatch, build, kind):
    F = build()
    n = len(F)
    counts = count_calls(monkeypatch)
    cert = certify(F)
    assert isinstance(cert, kind)
    assert counts["classify"] == n
    # Each pair once in scalar, or none: a family with an array pair table computes them as arrays.
    assert counts["cross_ratio_of_points"] == (n * (n - 1) // 2 if n <= LIST_N else 0)


@pytest.mark.parametrize(
    "build",
    [lambda: figure_two(41.0), lambda: random_admissible_family(np.random.default_rng(92), 12)],
    ids=["figure-two-shared-points", "schottky-12"],
)
def test_certify_clusters_the_fixed_points_once(monkeypatch, build):
    # The attracting classes, the repelling classes, their first meeting and
    # the rank-one arcs all read one clustering; no partition re-check, and
    # no pointwise comparison beyond the shared-endpoint label of a pair.
    F = build()
    counts = count_calls(monkeypatch, ("_cluster", "can_partition_rank_one"))
    approx = BoundaryPoint.approx

    def counted_approx(*args, **kwargs):
        counts["approx"] += 1
        return approx(*args, **kwargs)

    monkeypatch.setattr(BoundaryPoint, "approx", counted_approx)
    assert isinstance(certify(F), SemidiscreteInverseFree)
    assert counts["_cluster"] == 1
    assert counts["can_partition_rank_one"] == 0
    # Family.of decodes no pair; reading `pairs` decodes each once, and labels a shared endpoint with one comparison.
    counts.clear()
    family = Family.of(F)
    assert counts["approx"] == 0
    pairs = family.pairs
    assert counts["approx"] == sum(pg.kind.startswith("shared_") for pg in pairs.values())


def test_certify_builds_no_chart_object_on_the_array_path(monkeypatch):
    # The axis table of a family with the pair table as arrays computes its
    # charts and their inverses on arrays; the fixed points are clustered once.
    F = list(bench_module("families").assembly_large(1, 1, 32)[0].maps)
    counts = count_calls(monkeypatch, ("axis_chart", "inverse", "_cluster"))
    assert isinstance(certify(F), SemidiscreteInverseFree)
    assert (counts["axis_chart"], counts["inverse"], counts["_cluster"]) == (0, 0, 1)


@pytest.mark.parametrize("n", [LIST_N, LIST_N + 1], ids=["list-table", "array-table"])
def test_fixed_points_are_the_classified_coordinates(n):
    family = Family.of(random_admissible_family(np.random.default_rng(93), n))
    assert isinstance(family.cross_ratios, list) == (n == LIST_N)
    expected = [[[getattr(getattr(k, side), axis) for k in family.cls] for axis in "xy"] for side in ("alpha", "beta")]
    assert family.fixed_points.tolist() == expected


def test_family_classes_follow_the_greedy_clustering():
    # Near-tolerance chains: a run of the 2n fixed points stepped by
    # 0.55-0.95 x ANGLE_TOL, where the greedy first-head rule decides
    # which points share a class; some runs cross angle 0.
    rng = np.random.default_rng(5)
    chains = families = 0
    for _ in range(400):
        n = int(rng.integers(2, 6))
        angles = rng.uniform(0.0, TWO_PI, size=2 * n)
        run = rng.permutation(2 * n)[: int(rng.integers(2, 2 * n + 1))]
        start = rng.uniform(0.0, TWO_PI) if rng.uniform() < 0.7 else -rng.uniform(0.0, 2.0) * ANGLE_TOL
        angles[run] = (start + np.cumsum(rng.uniform(0.55, 0.95, size=len(run)) * ANGLE_TOL)) % TWO_PI
        points = [BoundaryPoint.from_angle(a) for a in angles]
        classes = greedy_cluster(points, ANGLE_TOL)
        assert cluster(points, ANGLE_TOL) == classes
        class_of = {i: k for k, c in enumerate(classes) for i in c}
        chains += len({class_of[i] for i in run.tolist()}) > 1  # the greedy rule splits the run
        try:
            family = Family.of([from_axis_and_length(b, a, 3.0) for a, b in zip(points[::2], points[1::2])])
        except CertifyError:
            continue
        fixed = [p for k in family.cls for p in (k.alpha, k.beta)]
        classes = greedy_cluster(fixed, ANGLE_TOL)
        assert cluster(fixed, ANGLE_TOL) == classes
        assert family.alpha_classes == tuple(tuple(i // 2 for i in c if i % 2 == 0) for c in classes if any(i % 2 == 0 for i in c))
        assert family.beta_classes == tuple(tuple(i // 2 for i in c if i % 2) for c in classes if any(i % 2 for i in c))
        meetings = [(i // 2, j // 2) for c in classes for i in c for j in c if i % 2 == 0 and j % 2]
        assert family.alpha_meets_beta == min(meetings, default=None)
        families += 1
    assert chains > 0 and families > 100


def test_render_classifies_each_generator_once(monkeypatch):
    from semicert.render import render_figure

    F = figure_two(1.0)
    counts = count_calls(monkeypatch)
    assert render_figure(F).count("<polygon") == len(F)
    assert counts["classify"] == len(F)


def test_of_returns_a_family_unchanged():
    family = Family.of(figure_two(1.0))
    assert Family.of(family) is family
    assert len(family.cls) == 5 and len(family.pairs) == 10


def test_pair_table_matches_cross_ratio_in_both_orders():
    F = figure_two(1.0)
    family = Family.of(F)
    for i in range(5):
        for j in range(5):
            if i != j:
                assert family.pair(i, j).cross_ratio == cross_ratio(F[i], F[j])


def test_fixed_point_classes_and_the_first_meeting_are_recorded():
    family = Family.of(figure_two(41.0))
    assert family.alpha_classes == ((0, 1), (2, 3), (4,))
    assert family.beta_classes == ((0, 3), (1, 2), (4,))
    assert family.alpha_meets_beta is None
    assert family.rank_one_arcs == ()  # attracting classes in two runs
    family.require_alpha_apart_from_beta()
    # 2z attracts to infinity, where z/2 + 1 and z/2 - 1 both repel; the first meeting is kept.
    family = Family.of([*section_one_pair(), normalize([[1.0, -2.0], [0.0, 2.0]])])
    assert family.alpha_meets_beta == (0, 1)
    with pytest.raises(PreconditionViolated, match="^attracting point of generator 0 meets repelling point of 1$"):
        family.require_alpha_apart_from_beta()


def test_guard_names_the_generator():
    parabolic = normalize([[1.0, 1.0], [0.0, 1.0]])
    with pytest.raises(NotHyperbolic, match="generator 1 is parabolic"):
        Family.of([normalize([[2.0, 0.0], [0.0, 1.0]]), parabolic])
    for kind in (NotHyperbolic, AxesNotDisjoint, ThresholdNotMet, AxesDoNotCross):
        assert issubclass(kind, PreconditionViolated)
    with pytest.raises(ValueError):
        Family.of([])


NOT_HYPERBOLIC = {
    "identity": normalize([[1.0, 0.0], [0.0, 1.0]]),
    "elliptic": normalize([[0.0, -1.0], [1.0, 0.0]]),
    "parabolic": normalize([[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("kind", sorted(NOT_HYPERBOLIC))
@pytest.mark.parametrize("place", ["first", "middle", "last"])
@pytest.mark.parametrize(
    "build",
    [lambda: figure_two(1.0), lambda: random_admissible_family(np.random.default_rng(94), 12)],
    ids=["list-table", "array-table"],
)
def test_guard_names_the_generator_and_classifies_each_once(monkeypatch, build, place, kind):
    F = build()
    k = {"first": 0, "middle": len(F) // 2, "last": len(F) - 1}[place]
    F[k] = NOT_HYPERBOLIC[kind]
    counts = count_calls(monkeypatch)
    for call in (Family.of, certify):
        with pytest.raises(NotHyperbolic, match=f"^generator {k} is {kind}, not hyperbolic$"):
            call(F)
        assert counts["classify"] == len(F)
        assert counts["cross_ratio_of_points"] == 0
        counts.clear()


def test_shared_fixed_point_does_not_stop_the_crossing_scan():
    # The corner pairs of Figure 2 share a fixed point, and their cross ratio
    # rounds to about -1e-14.  The witness scan reads the decoded kind, so it
    # skips them and finds the crossing pair (2, 4) with repeller 0 inside.
    cert = certify(figure_two(0.15))
    assert isinstance(cert, NotSemidiscrete)
    assert cert.criterion["rule"] == "crossing_pair_with_interleaved_repeller"
    assert (cert.criterion["pair"], cert.criterion["interleaved"]) == ([2, 4], 0)
