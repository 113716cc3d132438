import copy
import math
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from semicert import (
    BoundaryArc,
    BoundaryPoint,
    MoebiusMap,
    apply_boundary,
    apply_interior,
    axis,
    cayley_to_disc,
    classify,
    compose,
    conjugate,
    from_axis_and_length,
    hyperbolic_distance,
    inverse,
    normalize,
)
from semicert import moebius_core
from semicert.errors import CoincidentEndpoints, NonPositiveDeterminant, NotHyperbolic
from semicert.moebius_core import TWO_PI, Geodesic, axis_chart, from_boundary_triple, power, require_hyperbolic
from semicert.pair_geometry import Family

from helpers import bench_module, cayley_from_disc, figure_two, is_infinity, random_hyperbolic, random_moebius, section_one_pair

INF = BoundaryPoint.infinity()


def real(v):
    return BoundaryPoint.from_real(v)


class TestNormalize:
    def test_scaling(self):
        m = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert m.a == pytest.approx(math.sqrt(2.0))
        assert m.d == pytest.approx(1.0 / math.sqrt(2.0))
        assert m.trace == pytest.approx(3.0 / math.sqrt(2.0))

    def test_sign_quotient(self):
        m = normalize([[-1.0, 0.0], [0.0, -1.0]])
        assert (m.a, m.b, m.c, m.d) == (1.0, 0.0, 0.0, 1.0)

    def test_flat_input(self):
        m = normalize([0.5, 1.0, 0.0, 1.0])
        assert m.a == pytest.approx(1.0 / math.sqrt(2.0))
        assert m.b == pytest.approx(math.sqrt(2.0))
        assert m.d == pytest.approx(math.sqrt(2.0))

    def test_projective_consistency(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a, b, c, d = rng.standard_normal(4)
            if a * d - b * c <= 0.01:
                continue
            s = rng.uniform(0.1, 5.0) * rng.choice([-1.0, 1.0])
            m1 = normalize([a, b, c, d])
            m2 = normalize([s * a, s * b, s * c, s * d])
            for e1, e2 in zip((m1.a, m1.b, m1.c, m1.d), (m2.a, m2.b, m2.c, m2.d)):
                assert e1 == pytest.approx(e2, abs=1e-12)

    def test_rejects_nonpositive_determinant(self):
        with pytest.raises(NonPositiveDeterminant):
            normalize([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NonPositiveDeterminant):
            normalize([[1.0, 1.0], [1.0, 1.0]])


class TestGroupOperations:
    def test_compose_with_inverse(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            f = random_moebius(rng)
            m = compose(f, inverse(f))
            assert classify(m).kind == "identity"

    def test_iterated_composition_matches_formula(self):
        # g^n f^n for f(z) = 2z, g(z) = z/2 + 1 is z + 2 - 2^(1-n).
        f, g = section_one_pair()
        for n in range(1, 21):
            w = compose(power(g, n), power(f, n))
            shift = 2.0 - 2.0 ** (1 - n)
            assert w.a == pytest.approx(1.0, abs=1e-12)
            assert w.d == pytest.approx(1.0, abs=1e-12)
            assert w.c == pytest.approx(0.0, abs=1e-12)
            assert w.b == pytest.approx(shift, abs=1e-12)

    def test_conjugation_preserves_class_and_tau(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            f = random_hyperbolic(rng)
            m = random_moebius(rng)
            base, conj = classify(f), classify(conjugate(f, m))
            assert conj.kind == base.kind
            assert conj.tau == pytest.approx(base.tau, abs=1e-8)


class TestClassify:
    def test_dilation(self):
        cls = classify(normalize([[2.0, 0.0], [0.0, 1.0]]))
        assert cls.kind == "hyperbolic"
        assert is_infinity(cls.alpha)
        assert cls.beta.value == pytest.approx(0.0)
        assert cls.tau == pytest.approx(math.log(2.0))

    def test_translation_is_parabolic(self):
        cls = classify(normalize([[1.0, 1.0], [0.0, 1.0]]))
        assert cls.kind == "parabolic"
        assert is_infinity(cls.fixed)

    def test_contraction_with_shift(self):
        cls = classify(normalize([[1.0, 2.0], [0.0, 2.0]]))
        assert cls.kind == "hyperbolic"
        assert cls.alpha.value == pytest.approx(2.0)
        assert is_infinity(cls.beta)
        assert cls.tau == pytest.approx(math.log(2.0))

    def test_rotation_is_elliptic(self):
        t = 0.7
        cls = classify(normalize([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]]))
        assert cls.kind == "elliptic"
        assert cls.rotation_angle == pytest.approx(t)

    def test_trace_tolerance_boundary(self):
        # within 1e-9 of trace 2 counts as parabolic, beyond it does not
        near = MoebiusMap(1.0 + 2.5e-10, 1.0, 0.0, 1.0 / (1.0 + 2.5e-10))
        assert classify(near).kind == "parabolic"
        past = MoebiusMap(1.0 + 1e-4, 1.0, 0.0, 1.0 / (1.0 + 1e-4))
        assert classify(past).kind == "hyperbolic"

    def test_extreme_scale_assignment(self):
        # Entries near 1e24 pollute the smaller image norm with rounding noise;
        # the attracting point must still win the comparison.
        lam = math.exp(2e-7)
        f = from_axis_and_length(
            BoundaryPoint.from_real(lam), BoundaryPoint.from_real(-lam), 80.0
        )
        cls = classify(f)
        assert cls.alpha.value == pytest.approx(-lam, abs=1e-9)
        assert cls.beta.value == pytest.approx(lam, abs=1e-9)

    def test_conjugation_preserves_other_kinds(self):
        rng = np.random.default_rng(12)
        parabolic = normalize([[1.0, 1.0], [0.0, 1.0]])
        t = 0.9
        elliptic = normalize([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        for _ in range(100):
            m = random_moebius(rng)
            assert classify(conjugate(parabolic, m)).kind == "parabolic"
            moved = classify(conjugate(elliptic, m))
            assert moved.kind == "elliptic"
            assert moved.rotation_angle == pytest.approx(t, abs=1e-9)

    def test_fixed_points_are_fixed(self):
        rng = np.random.default_rng(4)
        for _ in range(300):
            f = random_hyperbolic(rng)
            cls = classify(f)
            assert apply_boundary(f, cls.alpha).angular_distance(cls.alpha) < 1e-9
            assert apply_boundary(f, cls.beta).angular_distance(cls.beta) < 1e-9

    @staticmethod
    def equal_diagonal_maps():
        # a == d makes B = d - a exactly 0; c of both signs.
        rng = np.random.default_rng(11)
        maps = [figure_two(10.0)[0], figure_two(80.0)[0]]
        for sign in (1.0, -1.0) * 10:
            a, c = rng.uniform(1.05, 20.0), sign * rng.uniform(0.1, 5.0)
            maps.append(MoebiusMap.from_matrix(a, (a * a - 1.0) / c, c, a))
        return maps

    def test_inverse_swaps_fixed_points_exactly(self):
        maps = self.equal_diagonal_maps()
        assert all(f.a == f.d for f in maps)
        assert {f.c > 0.0 for f in maps} == {True, False}
        for f in maps:
            cls, inv = classify(f), classify(inverse(f))
            assert (inv.alpha, inv.beta) == (cls.beta, cls.alpha)

    def test_attraction(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            f = random_hyperbolic(rng, tau_range=(0.5, 2.0))
            cls = classify(f)
            p = BoundaryPoint.from_angle(cls.beta.angle + 0.3)
            last = p.angular_distance(cls.alpha)
            for _ in range(200):
                p = apply_boundary(f, p)
            assert p.angular_distance(cls.alpha) < min(last, 1e-6)


class TestTranslationLength:
    def test_iterate_of_dilation(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert classify(power(f, 3)).tau == pytest.approx(3.0 * math.log(2.0))

    def test_iterate_matches_multiple(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            f = random_hyperbolic(rng, tau_range=(0.2, 2.0))
            tau = classify(f).tau
            for k in (2, 5, 20):
                assert classify(power(f, k)).tau == pytest.approx(k * tau, abs=1e-8)

    def test_small_translation_power(self):
        f = from_axis_and_length(real(0.0), INF, 0.1)
        assert classify(power(f, 10)).tau == pytest.approx(1.0, abs=1e-9)

    def test_rejects_non_hyperbolic(self):
        with pytest.raises(NotHyperbolic):
            require_hyperbolic(power(normalize([[1.0, 1.0], [0.0, 1.0]]), 2))


class TestBoundaryAction:
    def test_dilation_fixes_infinity(self):
        f = normalize([[2.0, 0.0], [0.0, 1.0]])
        assert is_infinity(apply_boundary(f, INF))

    def test_affine_action(self):
        g = normalize([[1.0, 2.0], [0.0, 2.0]])
        assert apply_boundary(g, real(1.0)).value == pytest.approx(1.5)

    def test_pole_goes_to_infinity(self):
        f = normalize([[0.0, -1.0], [1.0, 0.0]])
        assert is_infinity(apply_boundary(f, real(0.0)))


class TestAngle:
    def test_points_next_to_infinity_sit_at_angle_zero(self):
        # (-tiny) % 2*pi rounds up to 2*pi; such a point takes infinity's angle.
        assert real(1e17).angle == 0.0
        assert BoundaryPoint.of(1.0, 1e-300).angle == 0.0
        assert not is_infinity(real(1e17))

    @pytest.mark.parametrize(
        "x, y",
        [
            (1.0, 1e-300),
            (1e17, 1.0),
            (1.0, 5e-324),
            (1.0, -1e-300),
            (-1.0, 1e-300),
            (-1.0, -1e-300),
            (1e-300, 1.0),
            (5e-324, 1.0),
            (1.0, 1e300),
            (1e300, -1.0),
            (1.7e308, 5e-324),
            (-5e-324, -1.0),
        ],
    )
    def test_angle_lies_in_the_half_open_circle(self, x, y):
        assert 0.0 <= BoundaryPoint.of(x, y).angle < TWO_PI

    def test_reading_the_angle_changes_nothing_visible(self):
        p, q, unread = real(2.0), real(2.0), real(2.0)

        def visible(point):
            return point == unread, hash(point), repr(point)

        before = visible(p)
        assert p.angle == q.angle
        assert visible(p) == before == visible(q) == (True, hash((p.x, p.y)), f"BoundaryPoint(x={p.x!r}, y={p.y!r})")
        assert isinstance(BoundaryPoint.__dict__["angle"], property)

    def test_atan2_runs_once_per_point(self, monkeypatch):
        calls = []

        class CountingMath:
            def __getattr__(self, name):
                return getattr(math, name)

            def atan2(self, y, x):
                calls.append((y, x))
                return math.atan2(y, x)

        p = real(-3.5)
        monkeypatch.setattr(moebius_core, "math", CountingMath())
        assert p.angle == p.angle
        assert len(calls) == 1


VALUES = [
    (BoundaryPoint(0.6, 0.8), ("x", "y"), "BoundaryPoint(x=0.6, y=0.8)"),
    (
        BoundaryArc(BoundaryPoint(0.6, 0.8), BoundaryPoint(1.0, 0.0)),
        ("start", "end"),
        "BoundaryArc(start=BoundaryPoint(x=0.6, y=0.8), end=BoundaryPoint(x=1.0, y=0.0))",
    ),
    (MoebiusMap(2.0, 1.0, 1.0, 1.0), ("a", "b", "c", "d"), "MoebiusMap(a=2.0, b=1.0, c=1.0, d=1.0)"),
]


@pytest.mark.parametrize("value, names, text", VALUES, ids=["point", "arc", "map"])
class TestValueSemantics:
    """The value types built in bulk behave as frozen dataclasses do."""

    def test_no_attribute_can_be_assigned_or_deleted(self, value, names, text):
        fields = tuple(getattr(value, name) for name in names)
        for name in (*names, "_angle"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, 0.0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        assert tuple(getattr(value, name) for name in names) == fields

    def test_equality_hash_and_repr_follow_the_fields(self, value, names, text):
        fields = tuple(getattr(value, name) for name in names)
        twin = type(value)(*fields)
        assert value == twin and not value != twin
        assert value != fields and fields != value
        assert hash(value) == hash(fields)
        assert repr(value) == text

    def test_copy_and_pickle_round_trip(self, value, names, text):
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_a_copied_point_reads_its_angle():
    p = real(-3.0)
    theta = p.angle
    for twin in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert twin.angle == theta


def test_an_arc_with_equal_ends_is_refused():
    p = BoundaryPoint(0.6, 0.8)
    for end in (p, BoundaryPoint(0.6, 0.8)):
        with pytest.raises(ValueError, match="^arc endpoints coincide$"):
            BoundaryArc(p, end)


class TestDistance:
    def test_vertical_segment(self):
        assert hyperbolic_distance(1j, 2j) == pytest.approx(math.log(2.0))

    def test_zero(self):
        assert hyperbolic_distance(1 + 1j, 1 + 1j) == 0.0

    def test_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            f = random_moebius(rng)
            z = complex(rng.normal(), rng.uniform(0.1, 3.0))
            w = complex(rng.normal(), rng.uniform(0.1, 3.0))
            assert hyperbolic_distance(
                apply_interior(f, z), apply_interior(f, w)
            ) == pytest.approx(hyperbolic_distance(z, w), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            z, w, u = (complex(rng.normal(), rng.uniform(0.05, 4.0)) for _ in range(3))
            assert hyperbolic_distance(z, u) <= (
                hyperbolic_distance(z, w) + hyperbolic_distance(w, u) + 1e-12
            )


class TestAxis:
    def test_from_axis_and_length_dilation(self):
        f = from_axis_and_length(real(0.0), INF, math.log(2.0))
        assert f.a == pytest.approx(math.sqrt(2.0))
        assert f.b == pytest.approx(0.0, abs=1e-15)
        assert f.c == pytest.approx(0.0, abs=1e-15)

    def test_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            f = random_hyperbolic(rng)
            cls = classify(f)
            geo = axis(f)
            assert geo.start.approx(cls.beta)
            assert geo.end.approx(cls.alpha)
            again = from_axis_and_length(geo.start, geo.end, cls.tau)
            back = classify(again)
            assert back.alpha.angular_distance(cls.alpha) < 1e-9
            assert back.beta.angular_distance(cls.beta) < 1e-9
            assert back.tau == pytest.approx(cls.tau, abs=1e-9)

    def test_symmetric_interval_axis(self):
        # Axis (-1, 1): trace must be 2 cosh(tau/2) and the endpoints fixed.
        tau = 1.7
        f = from_axis_and_length(real(-1.0), real(1.0), tau)
        assert f.trace == pytest.approx(2.0 * math.cosh(tau / 2.0), abs=1e-12)
        for v in (-1.0, 1.0):
            assert apply_boundary(f, real(v)).value == pytest.approx(v, abs=1e-12)

    def test_rejects_coincident_endpoints(self):
        with pytest.raises(CoincidentEndpoints):
            from_axis_and_length(real(1.0), real(1.0), 1.0)
        with pytest.raises(ValueError):
            from_axis_and_length(real(0.0), INF, -1.0)


class TestCayley:
    def test_center(self):
        assert cayley_to_disc(1j) == pytest.approx(0.0)

    def test_boundary_landmarks(self):
        assert cayley_to_disc(INF) == pytest.approx(1.0 + 0.0j)
        assert cayley_to_disc(real(0.0)) == pytest.approx(-1.0 + 0.0j)

    def test_roundtrip(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            z = complex(rng.normal(), rng.uniform(0.05, 4.0))
            assert cayley_from_disc(cayley_to_disc(z)) == pytest.approx(z, abs=1e-12)
            p = BoundaryPoint.from_angle(rng.uniform(0.0, 2.0 * math.pi))
            q = cayley_from_disc(cayley_to_disc(p))
            assert isinstance(q, BoundaryPoint)
            assert q.angular_distance(p) < 1e-12


class TestBoundaryTriple:
    def test_sends_triples(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=6))
            src = tuple(BoundaryPoint.from_angle(a) for a in angles[:3])
            dst = tuple(BoundaryPoint.from_angle(a) for a in angles[3:])
            m = from_boundary_triple(src, dst)
            for s, t in zip(src, dst):
                assert apply_boundary(m, s).angular_distance(t) < 1e-9

    def test_rejects_orientation_mismatch(self):
        pts = [BoundaryPoint.from_angle(a) for a in (0.5, 1.5, 2.5)]
        with pytest.raises(ValueError):
            from_boundary_triple((pts[0], pts[1], pts[2]), (pts[0], pts[2], pts[1]))


class TestArrayKernel:
    """The array kernel equals `BoundaryPoint.of`, `apply_boundary`, `from_angle`, `angle` and `value` bit for bit."""

    EDGES = [
        (1.0, 0.0),  # infinity
        (-3.0, 0.0),  # y == 0 with x < 0
        (-0.0, 2.0),
        (2.0, -5.0),  # negative y
        (-2.0, -5.0),
        (1.0, 1e-17),  # its angle rounds to 2*pi
        (5e-324, 0.0),
        (1e-320, 1e300),  # x / hypot underflows to 0
        (0.0, 0.0),  # hypot 0
        (-0.0, 0.0),
        (math.inf, 1.0),  # hypot not finite
        (1.0, math.nan),
        (1.5e308, -1.5e308),  # hypot overflows
    ]

    @staticmethod
    def scalar(x, y):
        try:
            p = BoundaryPoint.of(x, y)
        except ValueError:
            return None  # not placed
        return [v.hex() for v in (p.x, p.y, p.angle, p.value)]

    @staticmethod
    def arrays(x, y, placed):
        angle, value = moebius_core.boundary_angles(x, y), moebius_core.boundary_values(x, y)
        rows = zip(x.tolist(), y.tolist(), angle.tolist(), value.tolist(), placed.tolist())
        return [[v.hex() for v in row[:4]] if row[4] else None for row in rows]

    def draws(self, rng, count):
        """Pairs over a wide range of scales and signs, then the edge cases."""
        x, y = rng.choice([-1.0, 1.0], size=(2, count)) * 10.0 ** rng.uniform(-300.0, 300.0, size=(2, count))
        x[: count // 4], y[: count // 4] = rng.standard_normal((2, count // 4))
        ex, ey = zip(*self.EDGES)
        return np.concatenate([x, ex]), np.concatenate([y, ey])

    def test_of(self):
        x, y = self.draws(np.random.default_rng(171), 4000)
        expected = [self.scalar(a, b) for a, b in zip(x.tolist(), y.tolist())]
        assert self.arrays(*moebius_core.canonical_pairs(x, y)) == expected
        edges = expected[-len(self.EDGES) :]
        assert (-2.0 * math.atan2(1e-17, 1.0)) % TWO_PI == TWO_PI and edges[5][2] == (0.0).hex()
        assert [i for i, e in enumerate(edges) if e is None] == [8, 9, 10, 11, 12]

    def test_apply_boundary(self):
        rng = np.random.default_rng(172)
        maps = [random_moebius(rng) for _ in range(40)]
        maps += [from_axis_and_length(real(-1.0), real(3.0), tau) for tau in (20.0, 41.0)]
        x, y = self.draws(rng, 500)
        points = [BoundaryPoint.of(a, b) for a, b in zip(x.tolist(), y.tolist()) if self.scalar(a, b)]
        for f in maps:
            expected = []
            for p in points:
                try:
                    q = apply_boundary(f, p)
                except ValueError:
                    expected.append(None)
                    continue
                expected.append([v.hex() for v in (q.x, q.y, q.angle, q.value)])
            px, py = np.array([(p.x, p.y) for p in points]).T
            entries = np.array([f.a, f.b, f.c, f.d])
            assert self.arrays(*moebius_core.apply_boundary_arrays(entries, px, py)) == expected

    def test_from_angle(self):
        rng = np.random.default_rng(173)
        theta = np.concatenate([rng.uniform(-10.0, 10.0, 2000), [0.0, math.pi, TWO_PI, -TWO_PI, 1e-17]])
        x, y = moebius_core.angle_pairs(theta)
        placed = np.ones(len(theta), dtype=bool)
        points = map(BoundaryPoint.from_angle, theta.tolist())
        assert self.arrays(x, y, placed) == [[v.hex() for v in (p.x, p.y, p.angle, p.value)] for p in points]

    def test_degenerate_input_raises_no_warning(self):
        # pytest turns a RuntimeWarning into an error, so a public kernel
        # function that stage code calls inside its own `errstate` must still
        # hold one, or need none, when called alone.
        empty, huge = np.empty(0), np.array([1e300, -1e300, 1e308, 0.0])
        for x, y in ((empty, empty), (huge, huge[::-1]), (np.zeros(2), np.array([0.0, -0.0]))):
            x, y, placed = moebius_core.canonical_pairs(x, y)
            moebius_core.boundary_angles(x, y)
            moebius_core.boundary_values(x, y)
        x, y, placed = moebius_core.apply_boundary_arrays(np.full(4, 1e300), huge, huge)  # every product overflows or is 0
        assert not placed.any()
        moebius_core.boundary_angles(x, y)
        moebius_core.boundary_values(x, y)
        for theta in (empty, np.array([0.0, TWO_PI])):
            moebius_core.boundary_angles(*moebius_core.angle_pairs(theta))
        ends = np.array([[1.0, 0.0, -0.6], [0.0, 1.0, 0.8]])
        *_, coincide = moebius_core.axis_charts(ends, ends)  # coincident line ends
        assert coincide.all()
        moebius_core.axis_charts(np.empty((2, 0)), np.empty((2, 0)))

    def test_points_carry_the_kernel_angles(self):
        x, y, placed = moebius_core.canonical_pairs(np.array([3.0, -1.0]), np.array([-4.0, 0.0]))
        angle = moebius_core.boundary_angles(x, y)
        points = moebius_core.points_of(x, y, angle)
        assert points == [BoundaryPoint.of(3.0, -4.0), BoundaryPoint.of(-1.0, 0.0)]
        assert [p.angle for p in points] == angle.tolist()

    @staticmethod
    def chart_hex(lines):
        """Entries of `axis_chart` of each (start, end) line and of its inverse, in hex."""
        charts = [axis_chart(Geodesic(start, end)) for start, end in lines]
        return [[v.hex() for v in (m.a, m.b, m.c, m.d)] for maps in (charts, map(inverse, charts)) for m in maps]

    @staticmethod
    def array_chart_hex(lines):
        start, end = (np.array([[p.x for p in ends], [p.y for p in ends]]) for ends in zip(*lines))
        chart, to_axis, coincide = moebius_core.axis_charts(start, end)
        assert not coincide.any()
        return [[v.hex() for v in column] for entries in (chart, to_axis) for column in entries.T.tolist()]

    def test_axis_charts_of_the_assembly_large_axes(self):
        for spec in bench_module("families").assembly_large(1, 48, 32):
            family = Family.of(list(spec.maps))
            lines = [(k.beta, k.alpha) for k in family.cls]
            assert self.array_chart_hex(lines) == self.chart_hex(lines)

    def test_axis_charts_of_crafted_lines(self):
        zero, one = real(0.0), real(1.0)
        lines = [
            (zero, INF),  # the chart is the identity: c = 0
            (INF, zero),  # trace exactly 0: the first nonzero entry decides both signs
            (INF, one),
            (real(-2.0), INF),
            (real(-1.0), one),
            (one, real(-1.0)),
        ]
        rng = np.random.default_rng(174)
        angles = rng.uniform(0.0, TWO_PI, size=(400, 2))
        lines += [(BoundaryPoint.from_angle(a), BoundaryPoint.from_angle(b)) for a, b in angles.tolist()]
        charts = [axis_chart(Geodesic(*line)) for line in lines]
        assert charts[0] == MoebiusMap(1.0, 0.0, 0.0, 1.0)
        assert charts[1].trace == 0.0 and (charts[1].b, inverse(charts[1]).b) == (1.0, 1.0)
        assert self.array_chart_hex(lines) == self.chart_hex(lines)

    def test_axis_charts_mark_coinciding_ends(self):
        p = np.array([[0.6, 1.0], [0.8, 0.0]])
        _, _, coincide = moebius_core.axis_charts(p, p)
        assert coincide.tolist() == [True, True]
