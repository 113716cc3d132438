"""Metamorphic checks of `certify` on the verdict-mix benchmark corpus.

The corpus is the seed-1 `verdict-mix` workload of `bench/families.py`,
loaded read only.  Two transformations of a family have a known effect on
its semigroup:

- inverting every generator gives the semigroup of inverses, which
  accumulates at the identity exactly when the original does, so no family
  may get the opposite definite verdict;
- reversing the generator order gives the same semigroup, so the verdict
  kind must not change.
"""

import pytest

from semicert import certify
from semicert.moebius_core import inverse

from helpers import bench_module

# Certificate kinds, by the verdict they prove; the rest are inconclusive.
VERDICTS = {
    "not_semidiscrete": "not semidiscrete",
    "semidiscrete_inverse_free": "semidiscrete",
    "rank_one_schottky": "semidiscrete",
}


@pytest.fixture(scope="module")
def corpus():
    families = bench_module("families").verdict_mix(1, 20)
    assert len(families) == 401
    return [(f.name, list(f.maps), certify(list(f.maps)).kind) for f in families]


def test_inverting_every_generator_never_gives_the_opposite_verdict(corpus):
    compared, opposite = 0, []
    for name, maps, kind in corpus:
        inverted = VERDICTS.get(certify([inverse(f) for f in maps]).kind)
        if VERDICTS.get(kind) and inverted:
            compared += 1
            if inverted != VERDICTS[kind]:
                opposite.append(name)
    assert opposite == []
    # Most families keep a definite verdict both ways, so the check is not vacuous.
    assert compared > len(corpus) // 2


def test_reversing_the_generator_order_keeps_the_verdict_kind(corpus):
    changed = [name for name, maps, kind in corpus if certify(maps[::-1]).kind != kind]
    assert changed == []
