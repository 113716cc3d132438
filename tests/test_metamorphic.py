"""Metamorphic checks of `certify` on benchmark corpora.

The corpora are the seed-1 `verdict-mix` workload (small conjugated
families of every verdict) and the seed-1 `assembly-large` workload (48
admissible families of 32 generators, assembled on arrays), loaded read
only from `bench/families.py`; 600 seeded random families (n = 2 to 4,
random axes, tau log-uniform in [0.01, 80]); and 384 two-generator pairs
of the disjoint atlas, from `bench/families._disjoint_pair`.  Each
transformation of a family has a known effect on its semigroup:

- inverting every generator gives the semigroup of inverses, which
  accumulates at the identity exactly when the original does, so no family
  may get the opposite definite verdict;
- reversing the generator order gives the same semigroup, so the verdict
  kind must not change;
- conjugating every generator by one map gives a conjugate semigroup, which
  is semidiscrete exactly when the original is; the conjugators have a
  bounded condition number, so the verdict kind must not change;
- appending the word f0 o f1 gives the same semigroup, and dropping a
  generator a subsemigroup, which is semidiscrete when the original is (the
  drop of a not-semidiscrete family may go either way, but a semidiscrete
  family's drop may not be proved not semidiscrete).  Neither may give the
  opposite definite verdict; the appended word may be refused with a typed
  error (it need not be hyperbolic).
"""

import math

import numpy as np
import pytest

from semicert import BoundaryPoint, certify, from_axis_and_length
from semicert.errors import CertifyError
from semicert.moebius_core import TWO_PI, compose, conjugate, inverse

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


@pytest.fixture(scope="module")
def large_corpus():
    families = bench_module("families").assembly_large(1, 48, 32)
    return [(f.name, list(f.maps), certify(list(f.maps)).kind) for f in families]


def random_families(count=600):
    """Seeded random families: n = 2 to 4, random axes, tau log-uniform in [0.01, 80]."""
    rng = np.random.default_rng(11)
    out = []
    for k in range(count):
        n = int(rng.integers(2, 5))
        ends = rng.uniform(0.0, TWO_PI, size=(n, 2)).tolist()
        taus = np.exp(rng.uniform(math.log(0.01), math.log(80.0), size=n)).tolist()
        maps = [
            from_axis_and_length(BoundaryPoint.from_angle(b), BoundaryPoint.from_angle(a), tau)
            for (a, b), tau in zip(ends, taus)
        ]
        out.append((f"random/{k}", maps))
    return out


def atlas_pairs():
    """Disjoint pairs of the two-generator atlas: 6 axis distances, 8 x 8 translation lengths."""
    disjoint_pair = bench_module("families")._disjoint_pair
    taus = np.geomspace(0.02, 20.0, 8).tolist()
    return [
        (f"atlas/d={d:.3g}/{tau_f:.3g}/{tau_g:.3g}", disjoint_pair(d, tau_f, tau_g))
        for d in np.geomspace(0.1, 3.0, 6).tolist()
        for tau_f in taus
        for tau_g in taus
    ]


@pytest.fixture(scope="module", params=["random", "atlas"])
def seeded_corpus(request):
    families = random_families() if request.param == "random" else atlas_pairs()
    return [(name, maps, certify(maps).kind) for name, maps in families]


def opposite(kind, other):
    """Whether the two kinds prove opposite definite verdicts."""
    return VERDICTS.get(kind) is not None and VERDICTS.get(other) is not None and VERDICTS[kind] != VERDICTS[other]


def conjugated(corpus):
    """Every family conjugated by its own draw of `random_conjugator`, from one seeded stream."""
    random_conjugator = bench_module("families").random_conjugator
    rng = np.random.default_rng(5)
    for name, maps, kind in corpus:
        m = random_conjugator(rng)
        yield name, [conjugate(f, m) for f in maps], kind


def inverted_flips(families):
    """Names of the families whose inverses get the opposite verdict, and how many were compared."""
    compared, flipped = 0, []
    for name, maps, kind in families:
        inverted = certify([inverse(f) for f in maps]).kind
        compared += VERDICTS.get(kind) is not None and VERDICTS.get(inverted) is not None
        if opposite(kind, inverted):
            flipped.append(name)
    return flipped, compared


def test_inverting_every_generator_never_gives_the_opposite_verdict(corpus):
    flipped, compared = inverted_flips(corpus)
    assert flipped == []
    # Most families keep a definite verdict both ways, so the check is not vacuous.
    assert compared > len(corpus) // 2


def test_reversing_the_generator_order_keeps_the_verdict_kind(corpus):
    changed = [name for name, maps, kind in corpus if certify(maps[::-1]).kind != kind]
    assert changed == []


def test_inverting_a_large_family_never_gives_the_opposite_verdict(large_corpus):
    assert inverted_flips(large_corpus)[0] == []


def test_reversing_a_large_family_keeps_the_verdict_kind(large_corpus):
    assert {kind for _, _, kind in large_corpus} == {"semidiscrete_inverse_free"}
    changed = [name for name, maps, kind in large_corpus if certify(maps[::-1]).kind != kind]
    assert changed == []


@pytest.mark.parametrize("layout", ["verdict-mix", "assembly-large"])
def test_bounded_conjugation_keeps_the_verdict_kind(corpus, large_corpus, layout):
    families = corpus if layout == "verdict-mix" else large_corpus
    changed = [name for name, maps, kind in conjugated(families) if certify(maps).kind != kind]
    assert changed == []


def test_appending_a_word_never_gives_the_opposite_verdict(corpus):
    flipped, refused = [], 0
    for name, maps, kind in corpus:
        try:
            appended = certify(maps + [compose(maps[0], maps[1])]).kind
        except CertifyError:
            refused += 1
            continue
        if opposite(kind, appended):
            flipped.append(name)
    assert flipped == []
    assert 0 < refused < len(corpus) // 2


def test_dropping_a_generator_never_gives_the_opposite_verdict(corpus):
    flipped, checked = [], 0
    for name, maps, kind in corpus:
        if VERDICTS.get(kind) != "semidiscrete":
            continue
        for k in range(len(maps)):
            checked += 1
            if opposite(kind, certify(maps[:k] + maps[k + 1 :]).kind):
                flipped.append((name, k))
    assert flipped == []
    assert checked > 1000


def test_inverting_a_seeded_family_never_gives_the_opposite_verdict(seeded_corpus):
    flipped, compared = inverted_flips(seeded_corpus)
    assert flipped == []
    assert compared > 0


def test_reversing_a_seeded_family_keeps_the_verdict_kind(seeded_corpus):
    changed = [name for name, maps, kind in seeded_corpus if certify(maps[::-1]).kind != kind]
    assert changed == []
    assert len({kind for _, _, kind in seeded_corpus}) >= 2


def test_bounded_conjugation_of_a_seeded_family_keeps_the_verdict_kind(seeded_corpus):
    changed = [name for name, maps, kind in conjugated(seeded_corpus) if certify(maps).kind != kind]
    assert changed == []
