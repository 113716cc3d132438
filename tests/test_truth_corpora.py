"""Two seeded corpora whose answer is known, and `certify` against them.

- PSL(2, Z) families: PSL(2, Z) is discrete, so every semigroup that its
  elements generate is semidiscrete, and `not_semidiscrete` is wrong there.
- Dyadic families: f and g = f^-1 c W c^-1 with W = [[1/4, 15/16], [-1, 1/4]]
  (determinant 1, trace 1/2, so elliptic of infinite order), plus a few
  more hyperbolic dyadic words, shuffled.  The semigroup holds f g = c W c^-1,
  so it is not semidiscrete, and a semidiscrete certificate is wrong there.

Dyadic entries are exact floats, and `normalize` keeps a determinant-one
matrix as given, up to sign, which the builders assert.  Every definitive
certificate is re-checked by `bench/exact.py` (read only) against the known
truth.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from semicert import certify, normalize
from semicert.criteria_engine import certificate_to_dict
from semicert.errors import CertifyError

from helpers import bench_module

HALF = Fraction(1, 2)
S, T, T_INV = (0, -1, 1, 0), (1, 1, 0, 1), (1, -1, 0, 1)
DYADIC_LETTERS = (S, T, T_INV, (2, 0, 0, HALF), (HALF, 0, 0, 2))
W = (Fraction(1, 4), Fraction(15, 16), Fraction(-1), Fraction(1, 4))


def mul(m, k):
    a, b, c, d = m
    e, f, g, h = k
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def inv(m):
    a, b, c, d = m  # determinant one
    return (d, -b, -c, a)


def hyperbolic(m):
    return abs(m[0] + m[3]) > 2


def word(rng, letters, lo, hi):
    m = (1, 0, 0, 1)
    for _ in range(int(rng.integers(lo, hi + 1))):
        m = mul(m, letters[int(rng.integers(len(letters)))])
    return m


def hyperbolic_word(rng, letters, lo, hi):
    while True:
        m = word(rng, letters, lo, hi)
        if hyperbolic(m):
            return m


def exact_map(m):
    """The map of the determinant-one matrix m, whose entries are exact floats."""
    f = normalize([[float(m[0]), float(m[1])], [float(m[2]), float(m[3])]])
    entries = tuple(map(Fraction, (f.a, f.b, f.c, f.d)))
    assert entries in (tuple(map(Fraction, m)), tuple(-Fraction(v) for v in m))
    return f


def psl_family(rng):
    """n = 2 to 4 hyperbolic words of length 4 to 15 in S, T and T^-1."""
    return [exact_map(hyperbolic_word(rng, (S, T, T_INV), 4, 15)) for _ in range(int(rng.integers(2, 5)))]


def dyadic_family(rng):
    """f and g = f^-1 c W c^-1, with 0 to 2 more hyperbolic dyadic words, in shuffled order."""
    c = word(rng, DYADIC_LETTERS, 1, 4)
    w = mul(mul(c, W), inv(c))
    while True:
        f = hyperbolic_word(rng, DYADIC_LETTERS, 2, 5)
        g = mul(inv(f), w)
        if hyperbolic(g):
            break
    mats = [f, g] + [hyperbolic_word(rng, DYADIC_LETTERS, 2, 5) for _ in range(int(rng.integers(0, 3)))]
    return [exact_map(mats[i]) for i in rng.permutation(len(mats)).tolist()]


def outcomes(build, seed, count):
    """(maps, certificate payload or None for a CertifyError) of `count` seeded families."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        F = build(rng)
        try:
            out.append((F, json.loads(json.dumps(certificate_to_dict(certify(F))))))
        except CertifyError:
            out.append((F, None))
    return out


def exact_problems(corpus, truth):
    exact = bench_module("exact")
    return [(k, text) for k, (F, payload) in enumerate(corpus) if payload for text in exact.check_certificate(F, payload, truth)]


@pytest.fixture(scope="module")
def psl_corpus():
    return outcomes(psl_family, 17, 1200)


@pytest.fixture(scope="module")
def dyadic_corpus():
    return outcomes(dyadic_family, 19, 800)


def test_no_psl_family_is_called_not_semidiscrete(psl_corpus):
    kinds = [payload["kind"] for _, payload in psl_corpus if payload]
    assert "not_semidiscrete" not in kinds
    assert "rank_one_schottky" in kinds  # the exact check below has certificates to read


def test_no_dyadic_family_gets_a_semidiscrete_certificate(dyadic_corpus):
    kinds = {payload["kind"] for _, payload in dyadic_corpus if payload}
    assert not kinds & {"rank_one_schottky", "semidiscrete_inverse_free"}
    assert kinds  # some families reach a verdict or a report


@pytest.mark.parametrize("name, truth", [("psl_corpus", "semidiscrete"), ("dyadic_corpus", "not_semidiscrete")])
def test_every_definitive_certificate_passes_the_exact_check(request, name, truth):
    assert exact_problems(request.getfixturevalue(name), truth) == []
