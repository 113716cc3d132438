"""The certificate JSON reads back through `criteria_engine.certificate_arcs`.

Every certificate `certify` emits on the seed-1 inputs of the `verdict-mix`
and `assembly-large` workloads is written with `certificate_to_dict`, sent
through JSON text and read back.  The reader takes each point's `value` as
the point, so a rebuilt angle may differ from the written one by an ulp; the
round trip is checked as what a reader sees: no refusal, each point is the
point of its value, and the figure drawn from the read-back arcs is the one
drawn from the written angles, byte for byte.
"""

import json
import math

import pytest

from semicert import ArcUnion, BoundaryArc, BoundaryPoint, certify
from semicert.criteria_engine import certificate_arcs, certificate_to_dict
from semicert.render import render_figure

from helpers import bench_module


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
