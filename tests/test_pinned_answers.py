"""The answers `certify` gives today on the seed-1 workloads and the Figure-2 grid, pinned.

The pin records today's answers, not their correctness.  A change that
keeps the answers leaves every one of them unchanged byte for byte; a
change that moves an answer on purpose updates the pin here and lists each
old -> new answer in CHANGES.md.  Some pinned answers are expected to
move: 30 points of the Figure-2 grid (tau = 41.2 ... 78.5) have an exactly
singular generator (exact determinant 0) and still get
`semidiscrete_inverse_free`; an exact singularity check will move them.

The texts and the digest are those of `bench/workloads.py` (read only): a
certify request's sorted-key certificate JSON per input, "raised" for an
input that raises, as its `outcome` records a first pass.
"""

import collections
import json

from helpers import bench_module

WORKLOAD_DIGESTS = {
    "assembly-large": "6c169f4cedfd06e30fbe063547d2946be957ad381332a81543b809582876019b",
    "verdict-mix": "46f0babb7efb53ced1fe90794cf40de139a44ebfb99b53c1c83062275a84472c",
}
GRID_DIGEST = "04ecf179d80bacc9dfe85fc5b2da83ef2c9e8565dcdd8bb080df1fa655fe0e77"


def first_pass_texts(workloads, inputs):
    texts = []
    for family in inputs:
        try:
            texts.append(workloads.certify_request(family))
        except Exception:  # as `run_loop` counts it, and `outcome` digests it
            texts.append("raised")
    return texts


def test_seed_one_workload_digests():
    workloads = bench_module("workloads")
    for name, expected in WORKLOAD_DIGESTS.items():
        assert workloads.digest(first_pass_texts(workloads, workloads.make_inputs(name, 1, "full"))) == expected, name


def test_figure_two_grid():
    # tau = k/10 for k = 1 ... 799: `not_semidiscrete` up to 0.2, a union from 40.2 on.
    workloads = bench_module("workloads")
    fam = workloads.fam
    taus = [k / 10 for k in range(1, 800)]
    inputs = [fam.Family(f"figure-two/{tau}", "figure-two", tuple(fam.figure_two(tau)), None) for tau in taus]
    texts = first_pass_texts(workloads, inputs)
    kinds = ["raised" if text == "raised" else json.loads(text)["kind"] for text in texts]
    assert collections.Counter(kinds) == {"not_semidiscrete": 2, "inconclusive": 399, "semidiscrete_inverse_free": 398}
    assert taus[kinds.index("semidiscrete_inverse_free")] == 40.2
    assert workloads.digest(texts) == GRID_DIGEST
