"""Self-test of the benchmark: tiny runs, metric names, and the exact re-check.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import compare  # noqa: E402
import exact  # noqa: E402
import families as fam  # noqa: E402
from semicert.boundary_arcs import BoundaryArc, contains  # noqa: E402
from semicert.criteria_engine import certificate_to_dict, certify  # noqa: E402
from semicert.moebius_core import BoundaryPoint, apply_boundary  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_METRICS = {
    "assembly-large": {"failed_fraction", "cli_p50_s", "decided_fraction"},
    "verdict-mix": {"failed_fraction", "cli_p50_s", "decided_fraction", "certify_p90_ms"},
    "oracle": {"failed_fraction", "cli_p50_s", "oracle_s", "bfs_words_per_s", "chaos_samples_per_s"},
}


def run_tiny(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5", "--seconds", "0.3"]
    proc = subprocess.run(cmd + ["--trace", str(trace), "--scale", "tiny"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / "bench" / "out" / f"BENCH_{workload}_seed5_trace{trace}.json").read_text())
    return summary, record


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_reports_every_metric(workload, trace):
    summary, record = run_tiny(workload, trace)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {k: v["unit"] for k, v in summary["metrics"].items()}
    assert all(math.isfinite(v["value"]) for v in summary["metrics"].values())
    if trace:
        assert record["trace_overhead"]["traced_requests"] >= 1
    else:
        assert set(record["workload_metrics"]) == WORKLOAD_METRICS[workload]
        assert record["workload_metrics"]["failed_fraction"]["value"] == 0.0
    assert len(record["digest"]) == 64


def test_run_refuses_without_the_library(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    cmd = [sys.executable, "bench/run.py", "--workload", "oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _union_payload():
    family = next(f for f in fam.verdict_mix(3, 1) if f.cls == "schottky" and len(f.maps) <= 8)
    payload = json.loads(json.dumps(certificate_to_dict(certify(list(family.maps)))))
    assert payload["kind"] == "semidiscrete_inverse_free" and len(payload["union"]) >= 2
    return family, payload


def _point_payload(p: BoundaryPoint) -> dict:
    return {"angle": p.angle, "value": "inf" if p.y == 0.0 else p.x / p.y}


def _arc(d: dict) -> BoundaryArc:
    return BoundaryArc.from_angles(d["start"]["angle"], d["end"]["angle"])


def test_emitted_certificates_pass_the_exact_check():
    for family in fam.verdict_mix(4, 1) + fam.assembly_large(4, 1, 8):
        payload = json.loads(json.dumps(certificate_to_dict(certify(list(family.maps)))))
        assert exact.check_certificate(family.maps, payload, family.truth) == [], family.name


def test_endpoint_nudged_across_its_image_fails():
    family, payload = _union_payload()
    f = family.maps[0]
    arcs = [_arc(a) for a in payload["union"]]
    # Arc `src` is mapped by f into arc `dst`; move the start of `dst` across
    # that image (which may be thinner than float resolution), so the image
    # now lies outside `dst`.
    for src, arc in enumerate(arcs):
        image = apply_boundary(f, arc.end)
        dst = next(k for k, outer in enumerate(arcs) if contains(outer, image))
        if dst != src:
            break
    nudged = BoundaryPoint.from_angle(image.angle + 1e-6)
    assert contains(arcs[dst], nudged)
    assert exact.check_certificate(family.maps, payload, family.truth) == []
    payload["union"][dst]["start"] = _point_payload(nudged)
    problems = exact.check_certificate(family.maps, payload, family.truth)
    assert any("outside the union" in p for p in problems)


def test_wrong_kind_and_false_witness_fail():
    family, payload = _union_payload()
    wrong = {"kind": "not_semidiscrete", "criterion": {"rule": "disjoint_pair_elliptic_power"}}
    assert exact.check_certificate(family.maps, wrong, family.truth)
    pair = fam.witness_pair(np.random.default_rng(0))
    witness = json.loads(json.dumps(certificate_to_dict(certify(pair))))
    assert exact.check_certificate(pair, witness, "not_semidiscrete") == []
    witness["witness_word"] = [[0, 3]]  # a power of one hyperbolic generator
    assert exact.check_certificate(pair, witness, "not_semidiscrete")


def test_cyclic_order_matches_the_library():
    rng = np.random.default_rng(7)
    for _ in range(500):
        a, b, c = (BoundaryPoint.from_angle(float(t)) for t in rng.uniform(0.0, 2.0 * math.pi, 3))
        ints = [exact.ints(p.x, p.y) for p in (a, b, c)]
        assert exact.ccw(*ints) == contains(BoundaryArc(a, c), b)


def test_compare_fails_on_a_changed_digest():
    record = {
        "workload": "oracle",
        "seed": 1,
        "trace": 0,
        "digest": "a" * 64,
        "metrics": {"request_p50_ms": {"value": 10.0, "unit": "ms"}},
        "workload_metrics": {},
    }
    same = compare.compare([record], [dict(record)])
    assert not any(line.startswith("FAIL") for line in same)
    changed = compare.compare([record], [{**record, "digest": "b" * 64}])
    assert any(line.startswith("FAIL") and "digest" in line for line in changed)
    slower = {**record, "metrics": {"request_p50_ms": {"value": 20.0, "unit": "ms"}}}
    assert any(line.startswith("FAIL") for line in compare.compare([record], [slower]))
