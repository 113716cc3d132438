"""The benchmark still finds every function it measures and reads what they return.

`bench/tracing.py` wraps library functions by name; a rename in the library
would silently zero a per-layer metric.  `bench/workloads.py` summarizes
each oracle round from the library's return values.  These tests only read
`bench/`.
"""

import importlib
import json
from pathlib import Path

import pytest

from semicert import criteria_engine

from helpers import figure_two, section_one_pair

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing")


def resolve(tracing, dotted: str):
    """(owner, attribute) for 'module.func' or 'module.Class.method'."""
    module, _, rest = dotted.partition(".")
    owner = importlib.import_module(f"semicert.{module}")
    *classes, attr = rest.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def stage_sites(tracing):
    """(module, name) for every stage, at each traced module that binds it."""
    modules = [importlib.import_module(f"semicert.{layer}") for layer in tracing.LAYERS]
    sites = []
    for name in sorted(tracing.STAGES):
        homes = [module for module in modules if name in vars(module)]
        assert homes, f"stage {name} is defined in no traced module"
        sites += [(module, name) for module in homes]
    return sites


def test_tracer_wraps_every_measured_function(tracing):
    from semicert.moebius_core import BoundaryPoint
    from semicert.search_oracle import _Bfs

    targets = [resolve(tracing, name) for name in sorted(tracing.SPAN_FUNCTIONS)]
    targets += stage_sites(tracing)
    targets += [(BoundaryPoint, "angle"), (_Bfs, "__init__")]
    originals = [owner.__dict__[attr] for owner, attr in targets]

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = [owner.__dict__[attr] for owner, attr in targets]
        criteria_engine.certify(figure_two(41.0))  # looked up as the benchmark does
    finally:
        tracer.uninstall()

    for (owner, attr), before, during in zip(targets, originals, wrapped):
        assert during is not before, f"{owner.__name__}.{attr} was not wrapped"
        assert owner.__dict__[attr] is before, f"{owner.__name__}.{attr} was not restored"
    assert tracer.total_calls("moebius_core.classify") >= 5
    assert tracer.total_calls("moebius_core.angle") > 0  # reads are counted, cached or not
    assert tracer.total_calls("criteria_engine.certify") == 1
    assert tracer.total_calls("interval_builder._assemble_once") >= 1
    # The assembly reaches the shared-fixed-point groups through their traced
    # name.  It cuts each generator's arcs itself, at its innermost heights,
    # so under certify the public pair builders are wrapped but never called.
    assert tracer.total_calls("interval_builder.build_shared_alpha_intervals") > 0
    for builder in ("interval_builder.build_disjoint_pair_intervals", "interval_builder.build_crossing_pair_intervals"):
        assert tracer.total_calls(builder) == 0, builder


def test_tracer_sees_the_rank_one_verification(tracing):
    # `criteria_engine.rank_one.candidates_verified` and `hit_ratio` read the
    # verifier calls at the criteria_engine binding and the search's hits.
    tracer = tracing.Tracer()
    tracer.install()
    try:
        criteria_engine.certify(list(section_one_pair()))  # looked up as the benchmark does
    finally:
        tracer.uninstall()
    assert tracer.total_calls("boundary_arcs.schottky_margin", "criteria_engine") >= 1
    assert tracer.non_null["criteria_engine.find_rank_one_interval"] == 1


def test_tracer_counts_one_bfs_sweep_per_oracle_call(tracing):
    # `search_oracle.bfs_sweeps` counts `_Bfs` constructions; each call runs one sweep.
    from semicert import search_oracle

    tracer = tracing.Tracer()
    tracer.install()
    try:
        maps = figure_two(0.1)
        search_oracle.enumerate_words(maps, 4)  # looked up as the benchmark does
        search_oracle.find_elliptic(maps, 4)
        search_oracle.inverse_free_probe(maps, 3)
    finally:
        tracer.uninstall()
    assert tracer.total_calls("search_oracle._Bfs") == 3


def test_oracle_summary_iterates_python_float_points(monkeypatch):
    # The benchmark's untimed summary iterates the chaos result and hashes the
    # repr of every (x, y): numpy scalars would change that repr, and a
    # record array iterates ten times slower than these points.
    from semicert import BoundaryPoint

    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    inputs = workloads.make_inputs("oracle", 1, "tiny")
    raw = workloads.oracle_request(inputs, [], lambda: None)
    text = workloads.oracle_text(inputs, raw)
    assert workloads.check_oracle(inputs, text) == []
    assert json.loads(text)["chaos"]["samples"] == inputs.chaos_samples
    points = list(raw[1])
    assert len(points) == inputs.chaos_samples
    assert all(type(p) is BoundaryPoint and type(p.x) is float and type(p.y) is float for p in points)
