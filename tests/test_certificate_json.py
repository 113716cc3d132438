"""The certificate JSON: written from arrays as from objects, and read back through `criteria_engine.certificate_arcs`.

Every certificate `certify` emits on the seed-1 inputs of the `verdict-mix`
and `assembly-large` workloads is written with `certificate_to_dict`, sent
through JSON text and read back.  The reader takes each point's `value` as
the point, so a rebuilt angle may differ from the written one by an ulp; the
round trip is checked as what a reader sees: no refusal, each point is the
point of its value, and the figure drawn from the read-back arcs is the one
drawn from the written angles, byte for byte.  A system assembled on arrays
is written from its arrays, with the bytes its objects give.
"""

import json
import math

import pytest

from semicert import ArcUnion, BoundaryArc, BoundaryPoint, certify
from semicert.boundary_arcs import arcs_of
from semicert.criteria_engine import SemidiscreteInverseFree, certificate_arcs, certificate_to_dict
from semicert.interval_builder import SymmetricIntervalPair
from semicert.render import render_figure

from helpers import bench_module, system_of_pairs


def written(families):
    """(name, certificate JSON as read back by json) of each family."""
    return [(f.name, json.loads(json.dumps(certificate_to_dict(certify(list(f.maps)))))) for f in families]


@pytest.fixture(scope="module", params=["verdict-mix", "assembly-large"])
def certificates(request):
    families = bench_module("families")
    if request.param == "verdict-mix":
        return written(families.verdict_mix(1, 20))
    return written(families.assembly_large(1, 48, 32))


def stored_arcs(data):
    """The arcs of a written certificate as (start, end) point dicts, read without the library's reader."""
    if "union" in data:
        return [(a["start"], a["end"]) for a in data["union"]]
    if "interval" in data:
        return [(data["interval"]["start"], data["interval"]["end"])]
    return None


def test_every_certificate_reads_back_as_the_points_of_its_values(certificates):
    read_back = 0
    for name, data in certificates:
        arcs = certificate_arcs(data, name)
        stored = stored_arcs(data)
        if stored is None:
            assert arcs is None, name
            continue
        assert [label for label, _, _ in arcs] == (
            [f"union[{k}]" for k in range(len(stored))] if "union" in data else ["interval"]
        )
        for (_, start, end), ends in zip(arcs, stored):
            for point, written_point in zip((start, end), ends):
                value = written_point["value"]
                assert point == BoundaryPoint.from_real(math.inf if value == "inf" else value), name
        read_back += 1
    assert read_back >= 48


def test_the_read_back_arcs_draw_the_written_angles_figure(certificates):
    drawn = 0
    for name, data in certificates:
        arcs = certificate_arcs(data, name)
        if arcs is None:
            continue
        from_values = ArcUnion([BoundaryArc(start, end) for _, start, end in arcs])
        from_angles = ArcUnion([BoundaryArc.from_angles(s["angle"], e["angle"]) for s, e in stored_arcs(data)])
        assert render_figure([], from_values) == render_figure([], from_angles), name
        drawn += 1
    assert drawn >= 48


@pytest.fixture(scope="module", params=["verdict-mix", "assembly-large"])
def emitted(request):
    """(workload, [(name, certificate)]) of every seed-1 input of the workload."""
    families = bench_module("families")
    inputs = families.verdict_mix(1, 20) if request.param == "verdict-mix" else families.assembly_large(1, 48, 32)
    return request.param, [(f.name, certify(list(f.maps))) for f in inputs]


def object_written(cert):
    """`certificate_to_dict` of the certificate with its system's cut ends read off its pairs' arc objects, and its union held as objects."""
    if isinstance(cert, SemidiscreteInverseFree):
        s = cert.system
        system = system_of_pairs(s.pairs, s.groups, ArcUnion(s.union.arcs), s.constant_m, s.margin, s.notes)
        cert = SemidiscreteInverseFree(system, cert.thresholds)
    return certificate_to_dict(cert)


def test_arrays_are_written_with_the_object_writers_bytes(emitted):
    workload, certs = emitted
    from_arrays = 0
    for name, cert in certs:
        held = isinstance(cert, SemidiscreteInverseFree) and cert.system.cuts is not None
        written = certificate_to_dict(cert)  # before any arc object exists
        expected = object_written(cert)
        assert json.dumps(written) == json.dumps(expected), name
        assert json.dumps(written, sort_keys=True) == json.dumps(expected, sort_keys=True), name
        from_arrays += held
    # Only families of 14 or more generators have an array pair table and are assembled on arrays.
    assert from_arrays == (48 if workload == "assembly-large" else 0)


def test_certify_and_write_build_no_arc_on_the_array_path(monkeypatch):
    F = list(bench_module("families").assembly_large(1, 1, 32)[0].maps)
    built = []
    init = BoundaryArc.__init__

    def counted(self, start, end):
        built.append((start, end))
        init(self, start, end)

    monkeypatch.setattr(BoundaryArc, "__init__", counted)
    cert = certify(F)
    json.dumps(certificate_to_dict(cert))
    assert isinstance(cert, SemidiscreteInverseFree) and cert.system.cuts is not None
    assert built == []
    # Read afterwards, the pairs are the arcs of the stored cut arrays.
    start, end = cert.system.cuts
    a, b = (arcs_of(tuple(v[side] for v in start), tuple(v[side] for v in end)) for side in (0, 1))
    assert cert.system.pairs == tuple(map(SymmetricIntervalPair, a, b, range(len(F))))
    assert [p.owner for p in cert.system.pairs] == list(range(len(F)))
