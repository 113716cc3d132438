"""Cross-module soundness properties beyond the per-module unit tests."""

import math

import numpy as np
import pytest

from semicert import (
    ArcUnion,
    BoundaryArc,
    BoundaryPoint,
    Inconclusive,
    NotSemidiscrete,
    apply_boundary,
    apply_interior,
    assemble_global,
    axis,
    certify,
    classify,
    configuration,
    contains,
    crossing_limit_interval,
    from_axis_and_length,
    normalize,
    two_gen_disjoint_test,
    verify_schottky,
)
from semicert.moebius_core import axis_chart, inverse

from helpers import (
    crossing_pair,
    disjoint_pair,
    figure_two,
    geodesic_shape,
    intersect_shapes,
    random_admissible_family,
    shared_attractor_family,
    shared_repeller_family,
)


def sample_arc_points(arc, count):
    return [
        BoundaryPoint.from_angle(arc.start.angle + arc.span * (k + 0.5) / count)
        for k in range(count)
    ]


class TestVerifierSemantics:
    """A passing verifier really means forward invariance, point by point."""

    def test_certified_unions_are_forward_invariant(self):
        rng = np.random.default_rng(120)
        families = [figure_two(41.0)]
        for _ in range(10):
            families.append(random_admissible_family(rng, int(rng.integers(2, 5))))
        from semicert.interval_builder import mapping_margin

        for F in families:
            system = assemble_global(F)
            assert verify_schottky(F, system.union, margin=1e-7)
            # every stored innermost pair keeps the per-generator property,
            # even when its two arcs came from different partners
            for pair in system.pairs:
                assert mapping_margin(F[pair.owner], pair) >= 1e-7
            for f in F:
                for arc in system.union:
                    for p in sample_arc_points(arc, 9):
                        q = apply_boundary(f, p)
                        assert any(contains(a, q) for a in system.union)

    def test_verifier_rejects_broken_unions(self):
        rng = np.random.default_rng(121)
        for _ in range(50):
            f, g = disjoint_pair(rng, rng.uniform(0.3, 1.5), 4.0, 4.0)
            cf = classify(f)
            # an interval around one attractor only cannot absorb the other
            lone = ArcUnion(
                [
                    BoundaryArc(
                        BoundaryPoint.from_angle(cf.alpha.angle - 0.2),
                        BoundaryPoint.from_angle(cf.alpha.angle + 0.2),
                    )
                ]
            )
            assert not verify_schottky([f, g], lone, margin=0.0)


class TestIndependentAngleOracle:
    """Crossing angle from the cross ratio against direct tangent geometry."""

    def test_angle_against_tangents(self):
        rng = np.random.default_rng(122)
        for _ in range(200):
            theta = rng.uniform(0.1, math.pi - 0.1)
            f, g = crossing_pair(rng, theta, 1.0, 1.0)
            decoded = configuration(f, g).theta
            ax_f, ax_g = axis(f), axis(g)
            z = intersect_shapes(geodesic_shape(ax_f), geodesic_shape(ax_g))
            d_f = _direction_toward_attractor(ax_f, z)
            d_g = _direction_toward_attractor(ax_g, z)
            dot = d_f.real * d_g.real + d_f.imag * d_g.imag
            measured = math.acos(max(-1.0, min(1.0, dot)))
            assert measured == pytest.approx(decoded, abs=1e-6)


def _direction_toward_attractor(geo, z):
    chart = axis_chart(geo)
    w = apply_interior(inverse(chart), z)
    t = math.log(abs(w))  # the line is the imaginary axis in chart coordinates
    ahead = apply_interior(chart, 1j * math.exp(t + 1e-6))
    d = ahead - z
    return d / abs(d)


class TestSharedFixedPointAssembly:
    def test_shared_attractor_family(self):
        F = shared_attractor_family()
        system = assemble_global(F)
        assert any(g.kind == "alpha" and set(g.members) == {0, 1} for g in system.groups)
        assert verify_schottky(F, system.union, margin=1e-7)
        # the shared attractor yields one merged component
        cls = [classify(f) for f in F]
        hosts = set()
        for k in cls:
            for idx, arc in enumerate(system.union):
                if contains(arc, k.alpha):
                    hosts.add(idx)
        assert len(hosts) == len(system.union) == 3

    def test_shared_repeller_family(self):
        F = shared_repeller_family()
        system = assemble_global(F)
        assert any(g.kind == "beta" and set(g.members) == {0, 1} for g in system.groups)
        assert verify_schottky(F, system.union, margin=1e-7)


class TestCertifyTripleRoute:
    def test_all_crossing_family_uses_the_triple_witness(self):
        # Three mutually crossing axes: no pair has cross ratio above 1, so
        # only the interleaved-repeller route can certify nondiscreteness.
        a = BoundaryPoint.from_angle
        f = from_axis_and_length(a(0.25 * math.pi), a(1.25 * math.pi), 0.15)
        g = from_axis_and_length(a(0.75 * math.pi), a(1.75 * math.pi), 0.15)
        h = from_axis_and_length(a(1.5 * math.pi), a(0.5 * math.pi), 1.0)
        cfg_fg = configuration(f, g)
        assert cfg_fg.kind == "crossing"
        arc = crossing_limit_interval([f, g])
        assert contains(arc, classify(h).beta)
        cert = certify([f, g, h])
        assert isinstance(cert, NotSemidiscrete)
        assert cert.criterion["rule"] == "crossing_pair_with_interleaved_repeller"
        assert cert.criterion["pair"] == [0, 1]
        assert cert.criterion["interleaved"] == 2

    def test_mixed_regime_pair_is_inconclusive(self):
        rng = np.random.default_rng(123)
        f, g = disjoint_pair(rng, math.log(2.0), 0.05, 4.0)
        assert isinstance(two_gen_disjoint_test(f, g), Inconclusive)


class TestCertifyFuzz:
    def test_arbitrary_families_never_crash_and_certificates_reverify(self):
        from semicert import ArcUnion, RankOneSchottky, SemidiscreteInverseFree, compose
        from semicert.errors import CertifyError, PreconditionViolated
        from semicert.moebius_core import power

        rng = np.random.default_rng(124)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(1, 6))
            angles = rng.uniform(0, 2 * math.pi, size=2 * n)
            if np.diff(np.sort(angles)).min(initial=math.inf) < 1e-3:
                continue
            taus = np.exp(rng.uniform(math.log(0.01), math.log(60.0), size=n))
            F = [
                from_axis_and_length(
                    BoundaryPoint.from_angle(angles[2 * i]),
                    BoundaryPoint.from_angle(angles[2 * i + 1]),
                    float(taus[i]),
                )
                for i in range(n)
            ]
            try:
                cert = certify(F)
            except PreconditionViolated:
                continue
            except CertifyError as exc:  # any other toolkit error is a bug here
                raise AssertionError(f"unexpected certify error: {exc}")
            seen.add(cert.kind)
            if isinstance(cert, SemidiscreteInverseFree):
                assert verify_schottky(F, cert.system.union, margin=1e-7)
            elif isinstance(cert, RankOneSchottky):
                assert verify_schottky(F, ArcUnion([cert.interval]), margin=0.0)
            elif isinstance(cert, NotSemidiscrete) and cert.witness_word is not None:
                word = None
                for idx, exp in cert.witness_word:
                    m = power(F[idx], exp)
                    word = m if word is None else compose(word, m)
                assert abs(word.trace) < 2.0 - 1e-9
        assert {"inconclusive", "rank_one_schottky", "not_semidiscrete"} <= seen

    def test_below_own_lower_threshold_always_witnessed(self):
        from semicert import Thresholds

        rng = np.random.default_rng(125)
        for trial in range(60):
            n = 2 + trial % 4
            F = random_admissible_family(rng, n)
            cls = [classify(f) for f in F]
            lower = Thresholds.from_generators(F).lower
            tiny = [from_axis_and_length(k.beta, k.alpha, 0.9 * lower) for k in cls]
            cert = certify(tiny)
            assert isinstance(cert, NotSemidiscrete)
