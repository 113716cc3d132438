"""Every entry point reads raw matrices through the same reader, `normalize`."""

import json
import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from semicert import BoundaryPoint, MoebiusMap, classify, from_axis_and_length, normalize, uniform_hyperbolicity
from semicert.cli import main
from semicert.errors import InvalidMatrix, NonPositiveDeterminant
from semicert.moebius_core import _canonical_sign, matrix_entries

from helpers import figure_two

BENCH = Path(__file__).resolve().parent.parent / "bench"

ACCEPTED = {
    "flat": [2, 0, 0, 1],
    "nested": [[2, 0], [0, 1]],
}
REJECTED = {
    "one-row": [[2, 0, 0, 1]],
    "ragged": [[2, 0, 0], [1]],
    "three": [2, 0, 0],
    "five": [2, 0, 0, 1, 1],
    "non-numeric": [2, "x", 0, 1],
    "huge-int": [10**400, 0, 0, 1],
}


def run_cli(tmp_path, command, raw):
    return run_generators(tmp_path, command, [{"matrix": raw}])


def run_generators(tmp_path, command, generators):
    src = tmp_path / "in.json"
    src.write_text(json.dumps({"schema": 1, "generators": generators}))
    return CliRunner().invoke(main, [command, "--input", str(src)])


def entries(f):
    return [f.a, f.b, f.c, f.d]


def bits(f):
    return tuple(v.hex() for v in entries(f))


@pytest.mark.parametrize("raw", ACCEPTED.values(), ids=ACCEPTED.keys())
def test_accepted_everywhere(tmp_path, raw):
    assert normalize(raw) == MoebiusMap.from_matrix(2.0, 0.0, 0.0, 1.0)
    assert uniform_hyperbolicity([raw]) is not None
    for command in ("classify", "certify", "cocycle"):
        assert run_cli(tmp_path, command, raw).exit_code == 0, command


@pytest.mark.parametrize("raw", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_everywhere(tmp_path, raw):
    with pytest.raises(InvalidMatrix):
        normalize(raw)
    with pytest.raises(InvalidMatrix):
        uniform_hyperbolicity([raw])
    for command in ("classify", "certify", "cocycle"):
        result = run_cli(tmp_path, command, raw)
        assert result.exit_code == 1, command
        assert "generators[0]" in result.output, command


# --- the determinant rule against the two readers it replaced ---------------------


def former_unit_reader(raw):
    """The former CLI and `uniform_hyperbolicity` reader, frozen: a map, None, or InvalidMatrix."""
    a, b, c, d = values = matrix_entries(raw)
    if not all(math.isfinite(v) for v in values):
        raise InvalidMatrix("non-finite entries")
    det = float(Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c))
    scale2 = max(a * a, b * b, c * c, d * d)
    if abs(det) > 1e-9 * scale2:
        if det < 0.0:
            return None
        return MoebiusMap.from_matrix(a, b, c, d)
    if scale2 > 1e12:
        return _canonical_sign(a, b, c, d)
    raise InvalidMatrix("singular")


def former_normalize(raw):
    """The former library `normalize`, frozen: scaled by the float determinant."""
    return MoebiusMap.from_matrix(*matrix_entries(raw))


@pytest.fixture(scope="module")
def workload_maps():
    """The maps of the seed-1 benchmark inputs, its CLI cases and figure_two on a grid."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        import workloads
    maps = []
    for name in ("assembly-large", "verdict-mix", "oracle"):
        inputs = workloads.make_inputs(name, 1, "full")
        if name == "oracle":
            maps += [f for _, F, _, _ in inputs.evidence for f in F] + list(inputs.chaos_maps)
        else:
            maps += [f for family in inputs for f in family.maps]
        maps += [f for F, _, _ in workloads.cli_cases(name, inputs, "full") for f in F]
    maps += [f for tau in np.linspace(0.05, 80.0, 200) for f in figure_two(float(tau))]
    return maps


def test_same_maps_as_the_former_unit_reader(workload_maps):
    accepted = gap = 0
    for f in workload_maps:
        try:
            ref = former_unit_reader(entries(f))
        except InvalidMatrix:  # a determinant-one matrix it took for singular
            classify(normalize(entries(f)))
            gap += 1
            continue
        assert ref is not None
        assert bits(normalize(entries(f))) == bits(ref)
        accepted += 1
    assert accepted > 4000 and gap > 0


def seeded_matrices(rng, count):
    """Generic, determinant-one, nearly singular and small integer matrices."""
    out = []
    for k in range(count):
        kind = k % 4
        if kind == 0:
            out.append(list(rng.standard_normal(4) * 10.0 ** rng.uniform(-3.0, 8.0)))
        elif kind == 1:
            beta, alpha = (BoundaryPoint.from_angle(t) for t in rng.uniform(0.0, 2.0 * math.pi, 2))
            tau = 10.0 ** rng.uniform(-2.0, math.log10(80.0))
            out.append(entries(from_axis_and_length(beta, alpha, tau)))
        elif kind == 2:
            x, y, s = rng.standard_normal(3)
            scale = 10.0 ** rng.uniform(-2.0, 6.0)
            eps = 10.0 ** rng.uniform(-15.0, -6.0)
            out.append([scale * x, scale * y, scale * s * x, scale * (s * y + eps)])
        else:
            out.append([float(v) for v in rng.integers(-5, 6, size=4)])
    return out


def test_same_maps_as_the_former_normalize():
    compared = set()
    for k, raw in enumerate(seeded_matrices(np.random.default_rng(130), 20_000)):
        try:
            ref = former_normalize(raw)
        except NonPositiveDeterminant:
            continue
        a, b, c, d = raw
        det = Fraction(a) * Fraction(d) - Fraction(b) * Fraction(c)
        scale2 = max(v * v for v in raw)
        if abs(det) > Fraction(1e-9 * scale2) or scale2 <= 1e12:
            assert bits(normalize(raw)) == bits(ref), raw
            compared.add(k % 4)
    assert compared == {0, 1, 2, 3}


# --- determinant-one matrices the former readers got wrong ---------------------


def gap_matrices():
    """Determinant-one matrices with largest squared entry in (1e9, 1e12], and their tau."""
    rows = {
        "diag-1e5": ([100000, 0, 0, 0.00001], 2.0 * math.log(1e5)),
        "diag-1e6": ([1e6, 0, 0, 1e-6], 2.0 * math.log(1e6)),
    }
    for tau in (20.0, 25.0):
        for i, f in enumerate(figure_two(tau)):
            rows[f"figure-two-{tau:g}-{i}"] = (entries(f), classify(f).tau)
    return rows


GAP = gap_matrices()


@pytest.mark.parametrize("raw, tau", GAP.values(), ids=GAP.keys())
def test_gap_matrices_accepted_everywhere(tmp_path, raw, tau):
    # Scaling by the float determinant, known only to about 2**-52 times the
    # largest squared entry, moves tau by 1.5e-7 relative on figure_two(25)
    # generators 0 and 2, the same as the former `normalize`; elsewhere by 0.
    assert classify(normalize(raw)).tau == pytest.approx(tau, rel=1e-6)
    assert bits(normalize(raw)) == bits(former_normalize(raw))
    uniform_hyperbolicity([raw])  # no InvalidMatrix
    for command in ("classify", "certify", "cocycle"):
        result = run_cli(tmp_path, command, raw)
        assert result.exit_code in (0, 2), (command, result.output)
        if command == "classify":
            assert json.loads(result.output)["generators"][0]["tau"] == classify(normalize(raw)).tau


@pytest.mark.parametrize("tau", [41.0, 60.0])
def test_drowned_determinants_kept_as_given(tau):
    for f in figure_two(tau):
        assert bits(normalize(entries(f))) == bits(f)


def exact_det(f):
    return Fraction(f.a) * Fraction(f.d) - Fraction(f.b) * Fraction(f.c)


@pytest.mark.parametrize(
    "raw, unit",
    [
        ([2e6, 0, 0, 2e-6], [1e6, 0, 0, 1e-6]),
        ([-2e6, 0, 0, -2e-6], [1e6, 0, 0, 1e-6]),
        ([1e7, 0, 0, 1e-3], [1e5, 0, 0, 1e-5]),
        ([3e7, 1e7, 2e7, 1e7], [3, 1, 2, 1]),
    ],
    ids=["diag-2e6", "negated-diag-2e6", "diag-1e7-1e-3", "det-1e14"],
)
def test_large_scalar_multiples_are_scaled(raw, unit):
    # Their determinants (4, 1e4, 1e14) sit well outside rounding of 1, so the
    # determinant is divided out although the float one drowned or is exact.
    f = normalize(raw)
    assert abs(exact_det(f) - 1) < 1e-12
    for got, want in zip(entries(f), unit):
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300)
    assert classify(f).tau == pytest.approx(classify(normalize(unit)).tau, rel=1e-12)


def test_large_scalar_multiples_keep_tau():
    # lambda * M for a determinant-one M of tau <= 15: lambda**2 is far from 1
    # at the rounding scale of lambda * M, whose largest squared entry reaches
    # 1e25, so the float determinant or, once it drowns, the exact one is
    # divided out.  The float one moves tau by about 2**-53 times M's largest
    # squared entry.
    rng = np.random.default_rng(131)
    for _ in range(500):
        beta, alpha = (BoundaryPoint.from_angle(t) for t in rng.uniform(0.0, 2.0 * math.pi, 2))
        f = from_axis_and_length(beta, alpha, rng.uniform(0.05, 15.0))
        lam = 10.0 ** rng.uniform(0.5, 8.0) * rng.choice([-1.0, 1.0])
        lam = lam if rng.random() < 0.5 else 1.0 / lam
        g = normalize([lam * v for v in entries(f)])
        assert abs(exact_det(g) - 1) < 1e-6
        assert classify(g).tau == pytest.approx(classify(f).tau, rel=1e-6)
        assert classify(g).alpha.approx(classify(f).alpha, tol=1e-9)


def test_drowned_scalar_multiples_divide_out_the_exact_determinant():
    # M of tau 21..26 has largest squared entry about 1e9..1e12, so lambda * M
    # has a determinant far from 1 that drowned in the float rounding.  A
    # power of two keeps lambda * M exact.
    rng = np.random.default_rng(132)
    exact = 0
    for _ in range(300):
        beta, alpha = (BoundaryPoint.from_angle(t) for t in rng.uniform(0.0, 2.0 * math.pi, 2))
        f = from_axis_and_length(beta, alpha, rng.uniform(21.0, 26.0))
        lam = 2.0 ** rng.integers(4, 27) * rng.choice([-1.0, 1.0])
        raw = [lam * v for v in entries(f)]
        det, scale2 = exact_det(MoebiusMap(*raw)), Fraction(max(map(abs, raw))) ** 2
        if not 1e12 < scale2 <= 1e12 * lam * lam or det > Fraction(1e-9) * scale2:
            continue  # a float determinant divides out, or M's own one is noise
        exact += 1
        root = math.sqrt(exact_det(f))
        for got, want in zip(entries(normalize(raw)), entries(f)):
            assert got == pytest.approx(want / root, rel=1e-14, abs=1e-14 * abs(f.a + f.d))
    assert exact > 200


@pytest.mark.parametrize(
    "raw, error",
    [
        ([1e7, 0, 0, -1e-3], NonPositiveDeterminant),
        ([1e7, 1e7, 2e7, 1e7], NonPositiveDeterminant),
        ([1e7, 1e7, 1e7, 1e7], InvalidMatrix),
        ([1e200, 0, 0, 1e200], InvalidMatrix),
    ],
    ids=["diag-1e7-negative", "det-minus-1e14", "singular-1e7", "det-1e400"],
)
def test_large_matrices_far_from_determinant_one_are_rejected(raw, error):
    with pytest.raises(error) as info:
        normalize(raw)
    assert isinstance(info.value, InvalidMatrix) == (error is InvalidMatrix)


def test_overflowing_trace_still_classifies():
    cls = classify(normalize([2e154, 1, -1, 0]))
    assert cls.kind == "hyperbolic"
    assert cls.tau == pytest.approx(2.0 * math.acosh(1e154), rel=1e-12)
    f = from_axis_and_length(BoundaryPoint.from_real(-1.0), BoundaryPoint.from_real(1.0), 1000.0)
    assert classify(f).tau == pytest.approx(1000.0, rel=1e-12)


@pytest.mark.parametrize("tau", [1419.0, 1420.0, 1e300])
def test_translation_length_beyond_float_range_is_typed(tau):
    with pytest.raises(ValueError, match="too large"):
        from_axis_and_length(BoundaryPoint.from_real(-1.0), BoundaryPoint.from_real(1.0), tau)


# --- adversarial input through the CLI ----------------------------------------------


def axis_form(tau):
    return [{"axis": {"beta": -1.0, "alpha": 1.0}, "tau": tau}]


ADVERSARIAL = {
    "diag-1e5": [{"matrix": [100000, 0, 0, 0.00001]}],
    "diag-1e6": [{"matrix": [1e6, 0, 0, 1e-6]}],
    "diag-1e7": [{"matrix": [1e7, 0, 0, 1e-7]}],
    **{f"figure-two-{tau:g}": [{"matrix": entries(f)} for f in figure_two(tau)] for tau in (20.0, 25.0, 41.0)},
    **{f"axis-tau-{tau:g}": axis_form(tau) for tau in (709.0, 710.0, 1419.0, 1420.0, 1e300)},
    "trace-2e154": [{"matrix": [2e154, 1, -1, 0]}],
    "scaled-diag-2e6": [{"matrix": [2e6, 0, 0, 2e-6]}],
    "scaled-diag-1e7-1e-3": [{"matrix": [1e7, 0, 0, 1e-3]}],
    "negative-diag-1e7": [{"matrix": [1e7, 0, 0, -1e-3]}],
    "singular-1e7": [{"matrix": [1e7, 1e7, 1e7, 1e7]}],
    "drowned-diag-1e200": [{"matrix": [1e200, 0, 0, 1e-100]}],
    "entries-1e308": [{"matrix": [1e308, -1, 1, 0]}],
    "scalar-1e200": [{"matrix": [1e200, 0, 0, 1e200]}],
    "singular": [{"matrix": [1, 1, 1, 1]}],
    "reflection": [{"matrix": [1, 0, 0, -1]}],
    "nan-entry": [{"matrix": [math.nan, 0, 0, 1]}],
    "huge-int-entry": [{"matrix": [10**400, 0, 0, 1]}],
}


@pytest.mark.parametrize("command", ["classify", "certify", "cocycle"])
@pytest.mark.parametrize("generators", ADVERSARIAL.values(), ids=ADVERSARIAL.keys())
def test_adversarial_input_ends_typed(tmp_path, command, generators):
    result = run_generators(tmp_path, command, generators)
    assert result.exception is None or isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (0, 1, 2)
    if result.exit_code == 1:
        assert result.output.startswith("error:") and re.search(r"generators\[\d+\]", result.output)
