"""Every union `assemble_global` returns passes two independent checks.

The assembly checks only the union it assembles, so this is its soundness
test: random axes with translation lengths from below the pair gates to far
above them, each returned union re-checked by `verify_schottky` and by the
exact integer check of `bench/exact.py` (read only), which shares no arc
code with the library.  The shared-fixed-point groups are cut, not checked,
so families whose generators share a fixed point get the same re-check.
"""

import math

import numpy as np

from semicert import BoundaryPoint, assemble_global, from_axis_and_length, verify_schottky
from semicert.boundary_arcs import DEFAULT_MARGIN
from semicert.criteria_engine import SemidiscreteInverseFree, certificate_to_dict
from semicert.errors import CertifyError, VerificationFailed

from helpers import (
    bench_module,
    conjugated_figure_two,
    one_axis_family,
    retry_ladder_family,
    shared_attractor_family,
    shared_repeller_family,
)


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


def shared_point_families(rng, count):
    """Families of n = 3...7 random axes, tau ~ U(1, 30), where one generator
    takes another's attracting or repelling point exactly."""
    for _ in range(count):
        n = int(rng.integers(3, 8))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=(n, 2))
        i, j = rng.choice(n, 2, replace=False)
        side = int(rng.integers(0, 2))  # 0 shares the repelling point, 1 the attracting one
        angles[j, side] = angles[i, side]
        taus = rng.uniform(1.0, 30.0, size=n).tolist()
        yield [
            from_axis_and_length(BoundaryPoint.from_angle(b), BoundaryPoint.from_angle(a), tau)
            for (b, a), tau in zip(angles.tolist(), taus)
        ]


def check_returned_unions(families):
    """Assemble every family; (unions, refusals, unions with a shared group, problems)."""
    exact = bench_module("exact")
    unions = refused = grouped = 0
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
        grouped += bool(system.groups)
        if not verify_schottky(F, system.union, margin=DEFAULT_MARGIN):
            problems.append((k, "verify_schottky"))
        payload = certificate_to_dict(SemidiscreteInverseFree(system))
        arcs = [(exact.point_from_payload(a["start"]), exact.point_from_payload(a["end"])) for a in payload["union"]]
        problems += [(k, text) for text in exact.check_invariant_union(F, arcs)]
    return unions, refused, grouped, problems


def test_returned_unions_pass_the_independent_checks():
    families = list(random_axis_families(np.random.default_rng(2024), 300)) + [retry_ladder_family()]
    unions, refused, _, problems = check_returned_unions(families)
    assert not problems
    assert unions >= 50 and refused >= 20, (unions, refused)


def test_unions_with_shared_fixed_points_pass_the_independent_checks():
    named = [shared_attractor_family(), shared_repeller_family(), one_axis_family(), conjugated_figure_two()]
    unions, _, grouped, problems = check_returned_unions(named)
    assert not problems
    assert unions == grouped == len(named)
    unions, refused, grouped, problems = check_returned_unions(shared_point_families(np.random.default_rng(2025), 300))
    assert not problems
    assert grouped == unions >= 50 and refused >= 20, (unions, refused, grouped)
