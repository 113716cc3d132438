"""`classify`, `_decode` and the kind rule against their step-by-step references, bit for bit.

The library's `classify` is one fused body and fills its `Classification`
without the keyword `__init__`; `_decode` fills its `PairGeometry` the same
way.  `tests/helpers.py` keeps the forms with one helper per step
(`reference_classify`, `reference_decode`).  Seeded `normalize`d draws reach
every branch of the classification: the identity tolerance, the trace
tolerance and both sides of its edge, elliptic maps, c == 0, d - a == 0 (the
sign of c decides the root), tr^2 beyond float range, and the generators of
the truth corpora.  (The references' fallback for a zero q cannot be reached:
|q| >= sqrt(tr^2 - 4) / 2 >= 3e-5 once tr > 2 + TRACE_TOL.)  The draws come
in blocks, and every hyperbolic pair of a block is decoded.  The kind rule,
`_KIND_EDGES`, is read on arrays (`_kinds`) and for one ratio (`_kind`), and
both are compared with the threshold chain of `reference_decode`.
"""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from semicert import BoundaryPoint, MoebiusMap, classify, conjugate, from_axis_and_length, inverse, normalize
from semicert.errors import CertifyError
from semicert.moebius_core import IDENTITY_TOL, TRACE_TOL, power
from semicert import pair_geometry
from semicert.pair_geometry import DEGENERATE_TOL, _decode, _kind, _kinds, cross_ratio_of_points

from helpers import random_moebius, reference_classify, reference_decode, section_one_pair
from test_truth_corpora import dyadic_family, psl_family

BLOCKS = 1200


def renormalized(f: MoebiusMap) -> MoebiusMap:
    return normalize([f.a, f.b, f.c, f.d])


def random_point(rng) -> BoundaryPoint:
    return BoundaryPoint.from_angle(float(rng.uniform(0.0, 2.0 * math.pi)))


def rotation(angle: float) -> list[list[float]]:
    return [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]


def generic(rng):
    scale = math.exp(float(rng.normal(0.0, 3.0)))
    return normalize((rng.standard_normal(4) * scale).tolist())


def lower_left_zero(rng):
    a = math.exp(float(rng.uniform(-4.0, 4.0)))
    return normalize([[a, float(rng.normal(0.0, 5.0))], [0.0, float(rng.uniform(0.2, 3.0))]])


def equal_diagonal(rng):
    a, c = float(rng.uniform(1.0001, 30.0)), float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 5.0))
    return normalize([[a, (a * a - 1.0) / c], [c, a]])


def beyond_float_square(rng):
    # Entries from about 1e155 on: tr^2 overflows, and the root is tr.
    if rng.uniform() < 0.5:
        e = 10.0 ** float(rng.uniform(155.0, 300.0))
        return normalize([[e, 0.0], [0.0, 1.0 / e]])
    beta, alpha = random_point(rng), random_point(rng)
    return renormalized(from_axis_and_length(beta, alpha, float(rng.uniform(715.0, 1400.0))))


def near_trace_two(rng):
    # Translation lengths around 2 sqrt(TRACE_TOL), parabolic and elliptic maps near it, all conjugated.
    kind = int(rng.integers(3))
    if kind == 0:
        tau = 2.0 * math.sqrt(TRACE_TOL) * math.exp(float(rng.uniform(-0.7, 0.7)))
        f = from_axis_and_length(BoundaryPoint.from_real(0.0), BoundaryPoint.infinity(), tau)
    elif kind == 1:
        f = normalize([[1.0, float(rng.normal(0.0, 3.0))], [0.0, 1.0]])
    else:
        f = normalize(rotation(float(rng.uniform(0.0, 1e-4))))
    return renormalized(conjugate(f, random_moebius(rng)))


def near_identity(rng):
    e = rng.uniform(-2.0, 2.0, size=4) * IDENTITY_TOL
    return normalize([[1.0 + e[0], e[1]], [e[2], 1.0 + e[3]]])


def elliptic(rng):
    return renormalized(conjugate(normalize(rotation(float(rng.uniform(0.0, math.pi)))), random_moebius(rng)))


def configurations(rng):
    """A hyperbolic f with maps whose pairs with it decode to every kind."""
    beta, alpha = random_point(rng), random_point(rng)
    f = from_axis_and_length(beta, alpha, float(rng.uniform(0.1, 6.0)))
    near = BoundaryPoint.from_angle(alpha.angle + 1e-10)
    return [renormalized(g) for g in (
        f,
        power(f, 2),  # shared_alpha
        inverse(f),  # alpha_meets_beta
        from_axis_and_length(beta, random_point(rng), 2.0),  # shared_beta
        from_axis_and_length(near, alpha, 2.0),  # C within DEGENERATE_TOL of 1
        from_axis_and_length(random_point(rng), random_point(rng), 1.0),  # crossing or disjoint
    )]


DRAWS = [generic, lower_left_zero, equal_diagonal, beyond_float_square, near_trace_two, near_identity, elliptic]


def blocks():
    rng = np.random.default_rng(34)
    out = [list(section_one_pair())]
    for k in range(BLOCKS):
        if k % 4 == 0:
            out.append(configurations(rng))
        if k % 8 == 0:
            out.append(psl_family(rng) + dyadic_family(rng))
        block = []
        for draw in DRAWS:
            try:
                block.append(draw(rng))
            except CertifyError:
                pass
        out.append(block)
    return out


def branches(f: MoebiusMap) -> set[str]:
    """The branches of the classification that f reaches, from its entries."""
    t = f.a + f.d
    if max(abs(f.a - 1.0), abs(f.b), abs(f.c), abs(f.d - 1.0)) <= IDENTITY_TOL:
        return {"identity"}
    if abs(t - 2.0) <= TRACE_TOL:
        return {"parabolic"}
    out = {"trace edge"} if abs(t - 2.0) <= 4.0 * TRACE_TOL else set()
    if t < 2.0:
        return out | {"elliptic"}
    out.add("hyperbolic")
    if f.c == 0.0:
        out.add("c == 0")
    if f.d - f.a == 0.0:
        out.add("d - a == 0")
    if t * t == math.inf:
        out.add("tr^2 overflows")
    return out


def point_bits(p: BoundaryPoint | None):
    return None if p is None else (p.x.hex(), p.y.hex())


def float_bits(v: float | None):
    return None if v is None else v.hex()


def classification_bits(k):
    return (k.kind, point_bits(k.alpha), point_bits(k.beta), float_bits(k.tau), float_bits(k.rotation_angle), point_bits(k.fixed))


def geometry_bits(pg):
    return (float_bits(pg.cross_ratio), pg.kind, float_bits(pg._theta), float_bits(pg._distance), pg.nested_attractors)


@pytest.fixture(scope="module")
def draws():
    return blocks()


def test_classify_equals_the_reference_bit_for_bit(draws):
    seen = Counter()
    for f in (f for block in draws for f in block):
        k, ref = classify(f), reference_classify(f)
        assert classification_bits(k) == classification_bits(ref), f
        assert k == ref and hash(k) == hash(ref) and repr(k) == repr(ref) and vars(k) == vars(ref)
        seen.update(branches(f))
    seen["draws"] = sum(map(len, draws))
    assert seen["draws"] >= 10_000
    for branch in ("identity", "parabolic", "elliptic", "trace edge", "hyperbolic", "c == 0", "d - a == 0", "tr^2 overflows"):
        assert seen[branch] >= 50, (branch, seen)


def test_truth_corpora_generators_are_among_the_draws(draws):
    # PSL(2, Z) words have integer entries; the dyadic words have entries in 2^-k Z, some not integers.
    entries = [(f.a, f.b, f.c, f.d) for block in draws for f in block]
    integral = {e for e in entries if all(v == int(v) for v in e)}
    dyadic = {e for e in entries if e not in integral and all((v * 2**20) == int(v * 2**20) for v in e)}
    assert len(integral) >= 100 and len(dyadic) >= 100


def test_decode_equals_the_reference_on_every_pair_of_a_block(draws):
    kinds = Counter()
    for block in draws:
        cls = [classify(f) for f in block]
        hyperbolic = [k for k in cls if k.kind == "hyperbolic"]
        for i, cf in enumerate(hyperbolic):
            for cg in hyperbolic[i + 1 :]:
                c = cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta)
                pg, ref = _decode(c, _kind(c), cf, cg), reference_decode(c, cf, cg)
                assert geometry_bits(pg) == geometry_bits(ref)
                assert pg == ref and hash(pg) == hash(ref) and vars(pg) == vars(ref)
                kinds[pg.kind if pg.kind != "disjoint" else f"disjoint, nested {pg.nested_attractors}"] += 1
    expected = {"crossing", "disjoint, nested True", "disjoint, nested False", "shared_alpha", "shared_beta", "alpha_meets_beta", "parabolic_degenerate"}
    assert set(kinds) == expected and min(kinds.values()) >= 20, kinds


def reference_code(c: float, cf, cg) -> int:
    """The kind code of `reference_decode`'s configuration."""
    pg = reference_decode(c, cf, cg)
    if pg.kind == "disjoint":
        return pair_geometry.NESTED if pg.nested_attractors else pair_geometry.DISJOINT
    codes = {"alpha_meets_beta": pair_geometry.MEETS, "parabolic_degenerate": pair_geometry.PARABOLIC, "crossing": pair_geometry.CROSSING}
    return codes.get(pg.kind, pair_geometry.SHARED)


def edge_ratios() -> list[float]:
    """Each ratio where the reference's thresholds switch, the two floats on either side of it, -0.0, and both infinities.

    Taken from DEGENERATE_TOL, not from `_KIND_EDGES`, so an edge moved by
    one ulp puts one of these ratios on its wrong side.
    """
    largest = sys.float_info.max
    ratios = [-0.0]
    for base in (-math.inf, -largest, -DEGENERATE_TOL, 0.0, DEGENERATE_TOL, 1.0 - DEGENERATE_TOL, 1.0, 1.0 + DEGENERATE_TOL, largest, math.inf):
        ratios.append(base)
        for side in (-math.inf, math.inf):
            near = math.nextafter(base, side)
            ratios += [near, math.nextafter(near, side)]
    return ratios


def test_kind_codes_are_those_of_the_reference_decode(draws):
    cf, cg = (classify(f) for f in section_one_pair())
    ratios = edge_ratios()
    expected = [reference_code(c, cf, cg) for c in ratios]
    assert [_kind(c) for c in ratios] == expected
    assert _kinds(np.array(ratios)).tolist() == expected
    assert Counter(expected) == {
        pair_geometry.MEETS: 10, pair_geometry.SHARED: 12, pair_geometry.PARABOLIC: 10,
        pair_geometry.CROSSING: 7, pair_geometry.DISJOINT: 4, pair_geometry.NESTED: 8,
    }
    # The cross ratio of every hyperbolic pair of the draws.
    ratios, expected = [], []
    for block in draws:
        hyperbolic = [k for k in map(classify, block) if k.kind == "hyperbolic"]
        for i, cf in enumerate(hyperbolic):
            for cg in hyperbolic[i + 1 :]:
                ratios.append(cross_ratio_of_points(cf.alpha, cf.beta, cg.alpha, cg.beta))
                expected.append(reference_code(ratios[-1], cf, cg))
    assert [_kind(c) for c in ratios] == expected
    assert _kinds(np.array(ratios)).tolist() == expected
    assert set(expected) == set(range(6))
