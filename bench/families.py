"""Seeded generator families for the benchmark workloads.

Every family records the truth its construction guarantees ("semidiscrete",
"not_semidiscrete", or None when no theorem decides it), so a definitive
certificate of the wrong kind is caught independently of the engine.
Families are built constructively: no rejection loop whose acceptance rate
collapses with the number of generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from semicert.boundary_arcs import can_partition_rank_one
from semicert.criteria_engine import Thresholds
from semicert.moebius_core import BoundaryPoint, MoebiusMap, conjugate, from_axis_and_length, normalize
from semicert.pair_geometry import cross_ratio_of_points

TWO_PI = 2.0 * math.pi
SEMIDISCRETE = "semidiscrete"
NOT_SEMIDISCRETE = "not_semidiscrete"


@dataclass(frozen=True)
class Family:
    """One input of the certify workloads."""

    name: str
    cls: str
    maps: tuple[MoebiusMap, ...]
    truth: str | None


def section_one_pair() -> list[MoebiusMap]:
    """f(z) = 2z and g(z) = z/2 + 1."""
    return [normalize([[2.0, 0.0], [0.0, 1.0]]), normalize([[1.0, 2.0], [0.0, 2.0]])]


def figure_two(tau: float) -> list[MoebiusMap]:
    """Five generators on the square-plus-diameter axis layout of Figure 2."""

    def corner(x: float, y: float) -> BoundaryPoint:
        return BoundaryPoint.from_angle(math.atan2(y, x))

    ne, nw, sw, se = corner(0.8, 0.6), corner(-0.8, 0.6), corner(-0.8, -0.6), corner(0.8, -0.6)
    left, right = BoundaryPoint.from_angle(math.pi), BoundaryPoint.from_angle(0.0)
    return [
        from_axis_and_length(sw, nw, tau),
        from_axis_and_length(ne, nw, tau),
        from_axis_and_length(ne, se, tau),
        from_axis_and_length(sw, se, tau),
        from_axis_and_length(right, left, tau),
    ]


def readme_pair() -> list[MoebiusMap]:
    """The library quick-start pair of README.md, verbatim."""
    r = BoundaryPoint.from_real
    f = from_axis_and_length(r(-1.0), r(1.0), tau=math.log(9) + 1.6)
    g = from_axis_and_length(r(2.0), r(-2.0), tau=math.log(9) + 1.6)
    return [f, g]


def random_conjugator(rng: np.random.Generator) -> MoebiusMap:
    """Random positive-determinant map with bounded condition number."""
    while True:
        a, b, c, d = (float(v) for v in rng.standard_normal(4))
        det = a * d - b * c
        if det > 0.1 and max(abs(a), abs(b), abs(c), abs(d)) ** 2 < 16.0 * det:
            return MoebiusMap.from_matrix(a, b, c, d)


def _conjugated(rng: np.random.Generator, maps: list[MoebiusMap]) -> tuple[MoebiusMap, ...]:
    m = random_conjugator(rng)
    return tuple(conjugate(f, m) for f in maps)


def _slot_angles(rng: np.random.Generator, count: int, jitter: float = 0.25) -> np.ndarray:
    """One angle per equal slot of the circle, jittered within its slot."""
    width = TWO_PI / count
    offsets = rng.uniform(-jitter, jitter, size=count)
    return rng.uniform(0.0, width) + width * (np.arange(count) + 0.5 + offsets)


def admissible_family(
    rng: np.random.Generator, n: int, tau_slack: tuple[float, float] = (0.5, 3.0)
) -> list[MoebiusMap]:
    """Family passing every assembly precondition, all taus above the upper bound.

    Filters: no rank-one partition, no degenerate cross ratio, every
    generator has a crossing or C > 1 partner; tau = upper + slack.
    """
    while True:
        angles = _slot_angles(rng, 2 * n)
        order = rng.permutation(2 * n)
        pts = [BoundaryPoint.from_angle(float(a)) for a in angles[order]]
        alphas, betas = pts[:n], pts[n:]
        if can_partition_rank_one(alphas, betas):
            continue
        table = [
            [cross_ratio_of_points(alphas[i], betas[i], alphas[j], betas[j]) if i != j else 0.0 for j in range(n)]
            for i in range(n)
        ]
        flat = [table[i][j] for i in range(n) for j in range(i + 1, n)]
        if any(not math.isfinite(c) or abs(c) < 1e-6 or abs(c - 1.0) < 1e-6 for c in flat):
            continue
        if not all(any(table[i][j] < 0.0 or table[i][j] > 1.0 for j in range(n) if j != i) for i in range(n)):
            continue
        upper = Thresholds.from_cross_ratios(flat).upper
        taus = upper + rng.uniform(*tau_slack, size=n)
        return [from_axis_and_length(betas[i], alphas[i], float(taus[i])) for i in range(n)]


def rank_one_family(rng: np.random.Generator, n: int) -> list[MoebiusMap]:
    """Attractors on one arc, repellers on the complementary arc."""
    angles = _slot_angles(rng, 2 * n)
    alphas = [BoundaryPoint.from_angle(float(a)) for a in angles[:n]]
    betas = [BoundaryPoint.from_angle(float(a)) for a in angles[n:][rng.permutation(n)]]
    taus = rng.uniform(0.5, 3.0, size=n)
    return [from_axis_and_length(betas[i], alphas[i], float(taus[i])) for i in range(n)]


def _disjoint_pair(d: float, tau_f: float, tau_g: float) -> list[MoebiusMap]:
    """Axes a distance d apart with cross ratio coth^2(d/2) > 1."""
    lam = math.exp(d)
    r = BoundaryPoint.from_real
    return [
        from_axis_and_length(r(-1.0), r(1.0), tau_f),
        from_axis_and_length(r(lam), r(-lam), tau_g),
    ]


def pair_gates(d: float) -> tuple[float, float]:
    """(lower, upper) pair gates of a C > 1 pair at axis distance d."""
    c = 1.0 / math.tanh(0.5 * d) ** 2
    return 0.2 * (c - 1.0) / (c + 3.0), math.log(c) + 1.5


def witness_pair(rng: np.random.Generator) -> list[MoebiusMap]:
    """C > 1 pair with both taus below the pair's lower gate."""
    d = float(rng.uniform(0.3, 1.5))
    low, _ = pair_gates(d)
    tau_f, tau_g = low * rng.uniform(0.3, 0.9, size=2)
    return _disjoint_pair(d, float(tau_f), float(tau_g))


def between_pair(rng: np.random.Generator) -> list[MoebiusMap]:
    """C > 1 pair with both taus strictly between the two pair gates."""
    d = float(rng.uniform(0.3, 1.5))
    low, high = pair_gates(d)
    tau_f, tau_g = rng.uniform(1.5 * low, 0.9 * high, size=2)
    return _disjoint_pair(d, float(tau_f), float(tau_g))


def crossing_with_repeller(rng: np.random.Generator) -> list[MoebiusMap]:
    """Crossing pair with short taus plus a third map repelling inside its limit arc."""
    theta = float(rng.uniform(0.6, 2.5))
    tau_f, tau_g = (float(t) for t in rng.uniform(0.05, 0.18, size=2))
    a_f, b_f = 1.5 * math.pi - 0.5 * theta, 0.5 * math.pi - 0.5 * theta
    a_g, b_g = 1.5 * math.pi + 0.5 * theta, 0.5 * math.pi + 0.5 * theta
    pt = BoundaryPoint.from_angle
    # The limit arc runs counterclockwise from a_f to a_g and holds no repeller.
    beta_h = a_f + theta * rng.uniform(0.15, 0.85)
    alpha_h = b_f + (b_g - b_f) * rng.uniform(0.15, 0.85)
    return [
        from_axis_and_length(pt(b_f), pt(a_f), tau_f),
        from_axis_and_length(pt(b_g), pt(a_g), tau_g),
        from_axis_and_length(pt(beta_h), pt(alpha_h), float(rng.uniform(0.5, 2.0))),
    ]


# One cycle of the verdict-mix stream: (class, truth, build(rng, k)) where k
# counts the earlier families of the same slot kind.  Twelve of the twenty
# slots take a fraction of a millisecond (witness scan, crossing test,
# inconclusive report), so the median lies inside that cluster; the other
# eight (rank-one search, assembly) make the tail.  Sizes are stratified by
# k, not drawn, so the seed moves geometry but not the mix of sizes.
def _rank_one(rng, k):
    return rank_one_family(rng, 4 + k % 13)


def _schottky(rng, k):
    return admissible_family(rng, 4 + k % 5)


def _figure_two_between(rng, k):
    return figure_two(float(rng.uniform(0.5, 20.0)))


VERDICT_CYCLE = (
    ("rank_one", SEMIDISCRETE, _rank_one),
    ("witness", NOT_SEMIDISCRETE, lambda rng, k: witness_pair(rng)),
    ("between", None, _figure_two_between),
    ("schottky", SEMIDISCRETE, _schottky),
    ("crossing", NOT_SEMIDISCRETE, lambda rng, k: crossing_with_repeller(rng)),
    ("witness", NOT_SEMIDISCRETE, lambda rng, k: witness_pair(rng)),
    ("rank_one", SEMIDISCRETE, _rank_one),
    ("between", None, lambda rng, k: between_pair(rng)),
    ("schottky", SEMIDISCRETE, lambda rng, k: figure_two(41.0)),
    ("witness", NOT_SEMIDISCRETE, lambda rng, k: figure_two(0.1)),
    ("crossing", NOT_SEMIDISCRETE, lambda rng, k: crossing_with_repeller(rng)),
    ("rank_one", SEMIDISCRETE, _rank_one),
    ("between", None, _figure_two_between),
    ("schottky", SEMIDISCRETE, _schottky),
    ("witness", NOT_SEMIDISCRETE, lambda rng, k: witness_pair(rng)),
    ("crossing", NOT_SEMIDISCRETE, lambda rng, k: crossing_with_repeller(rng)),
    ("rank_one", SEMIDISCRETE, _rank_one),
    ("between", None, lambda rng, k: between_pair(rng)),
    ("schottky", SEMIDISCRETE, _schottky),
    ("witness", NOT_SEMIDISCRETE, lambda rng, k: witness_pair(rng)),
)


def verdict_mix(seed: int, cycles: int) -> list[Family]:
    """The README pair, then `cycles` conjugated copies of the class cycle."""
    rng = np.random.default_rng([seed % 2**64, 2])
    # The README claims this pair is certified; the pair theorem agrees
    # (tau = log 9 + 1.6 > log C + 3/2 with C = 9), but the global upper
    # threshold is about 40.1, so certify reports inconclusive today.
    out = [Family("readme_quickstart", "readme", tuple(readme_pair()), SEMIDISCRETE)]
    seen: dict = {}
    for cycle in range(cycles):
        for slot, (cls, truth, build) in enumerate(VERDICT_CYCLE):
            k = seen[build] = seen.get(build, -1) + 1
            maps = _conjugated(rng, build(rng, k))
            out.append(Family(f"{cls}/{cycle}.{slot}", cls, maps, truth))
    return out


def assembly_large(seed: int, count: int, n: int) -> list[Family]:
    """`count` admissible families of `n` generators each."""
    rng = np.random.default_rng([seed % 2**64, 1])
    return [
        Family(f"admissible{n}/{k}", "schottky", tuple(admissible_family(rng, n)), SEMIDISCRETE)
        for k in range(count)
    ]
