"""Every union `assemble_global` returns passes two independent checks.

The assembly checks only the union it assembles, so this is its soundness
test: random axes with translation lengths from below the pair gates to far
above them, each returned union re-checked by `verify_schottky` and by the
exact integer check of `bench/exact.py` (read only), which shares no arc
code with the library.
"""

import math

import numpy as np

from semicert import BoundaryPoint, assemble_global, from_axis_and_length, verify_schottky
from semicert.boundary_arcs import DEFAULT_MARGIN
from semicert.criteria_engine import SemidiscreteInverseFree, certificate_to_dict
from semicert.errors import CertifyError, VerificationFailed

from helpers import bench_module, retry_ladder_family


def random_axis_families(rng, count):
    """Families of n = 2...8 generators with uniform random fixed points and tau ~ U(1, 30)."""
    for _ in range(count):
        n = int(rng.integers(2, 9))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2)).tolist()
        taus = rng.uniform(1.0, 30.0, size=n).tolist()
        yield [
            from_axis_and_length(BoundaryPoint.from_angle(b), BoundaryPoint.from_angle(a), tau)
            for (b, a), tau in zip(angles, taus)
        ]


def test_returned_unions_pass_the_independent_checks():
    exact = bench_module("exact")
    families = list(random_axis_families(np.random.default_rng(2024), 300)) + [retry_ladder_family()]
    unions = refused = 0
    problems = []
    for k, F in enumerate(families):
        try:
            system = assemble_global(F)
        except VerificationFailed:
            refused += 1
            continue
        except CertifyError:
            continue
        unions += 1
        if not verify_schottky(F, system.union, margin=DEFAULT_MARGIN):
            problems.append((k, "verify_schottky"))
        payload = certificate_to_dict(SemidiscreteInverseFree(system))
        arcs = [(exact.point_from_payload(a["start"]), exact.point_from_payload(a["end"])) for a in payload["union"]]
        problems += [(k, text) for text in exact.check_invariant_union(F, arcs)]
    assert not problems
    assert unions >= 50 and refused >= 20, (unions, refused)
