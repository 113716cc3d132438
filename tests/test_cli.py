import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import semicert
from semicert import BoundaryArc, BoundaryPoint, MoebiusMap, certify, classify, normalize
from semicert.cli import main
from semicert.criteria_engine import certificate_to_dict, multicone, point_to_dict
from semicert.pair_geometry import Family
from semicert.render import render_figure

from helpers import bench_module, figure_two, section_one_pair

DATA = Path(__file__).resolve().parent / "data"


@pytest.fixture
def runner():
    # click < 8.2 mixes stderr into stdout unless told not to; 8.2 keeps them
    # apart and dropped the option.
    if "mix_stderr" in inspect.signature(CliRunner).parameters:
        return CliRunner(mix_stderr=False)
    return CliRunner()


def write_disc_input(path, taus):
    corners = {
        "nw": math.atan2(0.6, -0.8),
        "ne": math.atan2(0.6, 0.8),
        "sw": math.atan2(-0.6, -0.8) % (2 * math.pi),
        "se": math.atan2(-0.6, 0.8) % (2 * math.pi),
    }
    axes = [
        (corners["sw"], corners["nw"]),
        (corners["ne"], corners["nw"]),
        (corners["ne"], corners["se"]),
        (corners["sw"], corners["se"]),
        (0.0, math.pi),
    ]
    data = {
        "schema": 1,
        "model": "disc",
        "generators": [
            {"axis": {"beta": b, "alpha": a}, "tau": t} for (b, a), t in zip(axes, taus)
        ],
    }
    path.write_text(json.dumps(data))
    return path


def point(angle):
    """A certificate point at disc angle `angle`, with the value it stands for."""
    return {"angle": angle, "value": BoundaryPoint.from_angle(angle).value}


def write_matrix_input(path, maps):
    data = {
        "schema": 1,
        "generators": [{"matrix": [m.a, m.b, m.c, m.d]} for m in maps],
    }
    path.write_text(json.dumps(data))
    return path


class TestClassifyCommand:
    def test_matrix_input(self, runner, tmp_path):
        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(main, ["classify", "--input", str(src)])
        assert result.exit_code == 0
        rows = json.loads(result.output)["generators"]
        assert rows[0]["kind"] == "hyperbolic"
        assert rows[0]["alpha"]["value"] == "inf"
        assert rows[0]["tau"] == pytest.approx(math.log(2.0))
        assert rows[1]["alpha"]["value"] == pytest.approx(2.0)

    def test_parabolic_row(self, runner, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"schema": 1, "generators": [{"matrix": [1, 1, 0, 1]}]}))
        result = runner.invoke(main, ["classify", "--input", str(src)])
        rows = json.loads(result.output)["generators"]
        assert rows[0]["kind"] == "parabolic"
        assert rows[0]["fixed"]["value"] == "inf"

    def test_axis_form_roundtrip(self, runner, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "model": "half-plane",
                    "generators": [{"axis": {"beta": -1.0, "alpha": 1.0}, "tau": 2.0}],
                }
            )
        )
        result = runner.invoke(main, ["classify", "--input", str(src)])
        rows = json.loads(result.output)["generators"]
        assert rows[0]["tau"] == pytest.approx(2.0, abs=1e-12)
        assert rows[0]["alpha"]["value"] == pytest.approx(1.0)

    def test_matches_library(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [1.0] * 5)
        result = runner.invoke(main, ["classify", "--input", str(src)])
        rows = json.loads(result.output)["generators"]
        for row, f in zip(rows, figure_two(1.0)):
            cls = classify(f)
            assert row["tau"] == pytest.approx(cls.tau, abs=1e-9)
            assert row["alpha"]["angle"] == pytest.approx(cls.alpha.angle, abs=1e-9)


class TestPairsCommand:
    def test_figure_two_table(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [1.0] * 5)
        result = runner.invoke(main, ["pairs", "--input", str(src)])
        assert result.exit_code == 0
        rows = {(r["i"], r["j"]): r for r in json.loads(result.output)["pairs"]}
        assert rows[(0, 4)]["cross_ratio"] == pytest.approx(-1.0)
        assert rows[(1, 4)]["cross_ratio"] == pytest.approx(1.0 / 9.0)
        assert rows[(3, 4)]["cross_ratio"] == pytest.approx(9.0)
        assert rows[(0, 1)]["kind"] == "shared_alpha"
        assert rows[(1, 2)]["kind"] == "shared_beta"
        assert rows[(0, 2)]["kind"] == "disjoint"
        assert rows[(0, 4)]["theta"] == pytest.approx(math.pi / 2.0)

    def test_shared_endpoint_pair(self, runner, tmp_path):
        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(main, ["pairs", "--input", str(src)])
        rows = json.loads(result.output)["pairs"]
        assert rows[0]["cross_ratio"] == "inf"
        assert rows[0]["kind"] == "alpha_meets_beta"


class TestCertifyCommand:
    def test_not_semidiscrete_exit_zero(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [0.1] * 5)
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "not_semidiscrete"
        assert abs(payload["trace"]) < 2.0

    def test_semidiscrete_exit_zero(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "semidiscrete_inverse_free"
        assert payload["margin"] >= 1e-7
        assert len(payload["union"]) >= 2

    def test_inconclusive_exit_two(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [10.0] * 5)
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 2
        assert json.loads(result.output)["kind"] == "inconclusive"

    def test_rank_one_exit_zero(self, runner, tmp_path):
        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "rank_one_schottky"

    def test_checked_in_admissible_family_takes_the_array_path(self, runner):
        # `bench/families.admissible_family(np.random.default_rng(12), 12)`;
        # CI certifies the same file with the installed console script.
        from semicert.cli import _load_generators

        src = Path(__file__).resolve().parent / "data" / "admissible12.json"
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "semidiscrete_inverse_free"
        assert isinstance(Family.of(_load_generators(str(src))).cross_ratios, np.ndarray)  # 66 pairs: the array table

    def test_checked_in_rank_one_family_takes_the_array_path(self, runner):
        # `bench/families.rank_one_family(np.random.default_rng(12), 12)`: the
        # scalar verifier behind the array pair table; CI certifies the same
        # file with the installed console script.
        from semicert.cli import _load_generators

        src = Path(__file__).resolve().parent / "data" / "rank_one12.json"
        expected = [[f.a, f.b, f.c, f.d] for f in bench_module("families").rank_one_family(np.random.default_rng(12), 12)]
        assert [g["matrix"] for g in json.loads(src.read_text())["generators"]] == expected
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        cert = json.loads(result.output)
        assert cert["kind"] == "rank_one_schottky"
        assert round(cert["margin"], 4) == 0.0555
        assert isinstance(Family.of(_load_generators(str(src))).cross_ratios, np.ndarray)  # 66 pairs: the array table

    def test_checked_in_figure_two_is_helpers_figure_two(self, runner):
        # `figure_two(41.0)`: five generators with shared fixed points, on the
        # list pair table; CI certifies the same file with the installed console script.
        from semicert.cli import _load_generators

        src = Path(__file__).resolve().parent / "data" / "figure_two_41.json"
        expected = [[f.a, f.b, f.c, f.d] for f in figure_two(41.0)]
        assert [g["matrix"] for g in json.loads(src.read_text())["generators"]] == expected
        maps = _load_generators(str(src))
        assert [[f.a, f.b, f.c, f.d] for f in maps] == expected
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "semidiscrete_inverse_free"
        family = Family.of(maps)
        assert isinstance(family.cross_ratios, list) and max(map(len, family.alpha_classes + family.beta_classes)) == 2

    def test_matches_library_payload(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        result = runner.invoke(main, ["certify", "--input", str(src)])
        via_cli = json.loads(result.output)
        from semicert.cli import _load_generators

        maps = _load_generators(str(src))
        via_lib = certificate_to_dict(certify(maps), version=via_cli["tool_version"])
        assert via_cli == json.loads(json.dumps(via_lib))

    def test_oracle_section(self, runner, tmp_path):
        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(main, ["certify", "--input", str(src), "--max-words", "8"])
        payload = json.loads(result.output)
        assert payload["oracle"]["empirical"] is True
        assert payload["oracle"]["elliptic_count"] == 0

    def test_oracle_first_elliptic_word_is_breadth_first(self, runner, tmp_path):
        from semicert import find_elliptic
        from semicert.cli import _load_generators

        src = write_matrix_input(tmp_path / "in.json", figure_two(0.1))
        result = runner.invoke(main, ["certify", "--input", str(src), "--max-words", "5"])
        oracle = json.loads(result.output)["oracle"]
        maps = _load_generators(str(src))
        assert oracle["first_elliptic_word"] == list(find_elliptic(maps, 5).letters)
        assert oracle["elliptic_count"] > 0
        assert "seed" not in oracle

    def test_oracle_section_full_payload(self, runner, tmp_path):
        from semicert import enumerate_words, inverse_free_probe
        from semicert.cli import _load_generators

        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        result = runner.invoke(main, ["certify", "--input", str(src), "--max-words", "10"])
        assert result.exit_code == 0
        maps = _load_generators(str(src))
        report = enumerate_words(maps, 10)
        expected = certificate_to_dict(certify(maps), version=json.loads(result.output)["tool_version"])
        expected["oracle"] = {
            "empirical": True,
            "max_len": 10,
            "words_explored": report.words_explored,
            "min_identity_distance": report.min_identity_distance,
            "elliptic_count": report.elliptic_count,
            "first_elliptic_word": None,
            "inverse_free_probe": inverse_free_probe(maps, 10),
        }
        assert not report.elliptic_words
        assert result.output == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_oracle_budget_keeps_the_certificate(self, runner, tmp_path):
        from semicert.cli import _load_generators

        # Length 40 needs more words than the oracle's default budget, and
        # the second family's length-2 products leave the float range; the
        # certificate computed before the oracle ran must still be emitted.
        huge = [MoebiusMap(1e150, 0.0, 0.0, 1.0), MoebiusMap(2.0, 1e149, 0.0, 1.0)]
        for maps, max_len, error in (
            (list(section_one_pair()), 40, "exploring 2460320 words exceeds the budget of 2000000"),
            (huge, 6, "word products leave float range at length 2"),
        ):
            src = write_matrix_input(tmp_path / "in.json", maps)
            result = runner.invoke(main, ["certify", "--input", str(src), "--max-words", str(max_len)])
            assert result.exit_code == 0
            payload = json.loads(result.output)
            oracle = payload.pop("oracle")
            via_lib = certificate_to_dict(certify(_load_generators(str(src))), version=payload["tool_version"])
            assert payload == json.loads(json.dumps(via_lib))
            assert payload["kind"] == "rank_one_schottky"
            assert oracle == {"empirical": True, "max_len": max_len, "error": error}

    def test_repeller_mapped_below_rounding_ends_typed(self, runner, tmp_path):
        # The second map sends the shared alpha_0 = beta_1 to (0.0, 0.0) in floats.
        src = tmp_path / "in.json"
        matrices = [
            [0.4612951147548283, 1.8578422640717427, 0.11348537936011255, 2.6248661548756593],
            [704961729.4789271, -580290387.8993331, 670594815.1531041, -552001206.7833941],
        ]
        src.write_text(json.dumps({"schema": 1, "generators": [{"matrix": m} for m in matrices]}))
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code in (0, 1, 2)
        assert "Traceback" not in result.output

    def test_certify_has_no_seed_option(self, runner, tmp_path):
        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        result = runner.invoke(main, ["certify", "--input", str(src), "--seed", "3"])
        assert result.exit_code == 2
        assert "No such option" in result.stderr

    def test_parse_error_exit_one(self, runner, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text("{not json")
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 1

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"schema": 1, "generators": [{"matrix": [2, 0, 0, 1]}], "x": "\xff\xfe"}', "not UTF-8 text"),
            (b'{"schema": 1, "generators": ' + b"[" * 100_000 + b"]" * 100_000 + b"}", "JSON nested too deeply"),
            (b'{"schema": 1, "generators": [{"matrix": [' + b"1" * 5000 + b', 0, 0, 1]}]}', "integer literal too long"),
        ],
        ids=["not-utf8", "nested-too-deeply", "integer-too-long"],
    )
    def test_unreadable_input_is_a_parse_error(self, runner, tmp_path, content, message):
        src = tmp_path / "bad.json"
        src.write_bytes(content)
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert result.stdout == ""
        assert result.stderr == f"error: {src}: {message}\n"

    @pytest.mark.parametrize("shape", ["nested-400-deep", "multi-megabyte"])
    @pytest.mark.parametrize("field", ["matrix", "tau", "schema"])
    def test_rejected_value_is_echoed_short(self, runner, tmp_path, monkeypatch, field, shape):
        value = [0.5] * 500_000
        if shape == "nested-400-deep":
            value = 0.5
            for _ in range(400):
                value = [value]
        generator = {"matrix": value} if field == "matrix" else {"axis": {"beta": 0.0, "alpha": 1.0}, "tau": value}
        data = {"schema": value, "generators": []} if field == "schema" else {"schema": 1, "generators": [generator]}
        monkeypatch.chdir(tmp_path)
        Path("in.json").write_text(json.dumps(data))
        assert shape == "nested-400-deep" or Path("in.json").stat().st_size > 2_000_000
        commands = ["certify", "cocycle"] if field != "tau" else ["certify"]
        for command in commands:
            result = runner.invoke(main, [command, "--input", "in.json"])
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            [line] = result.stderr.splitlines()
            where = "in.json: unsupported schema" if field == "schema" else "in.json: generators[0]"
            assert line.startswith(f"error: {where}") and len(line) < 200

    def test_invalid_generator_exit_one(self, runner, tmp_path):
        src = tmp_path / "bad.json"
        src.write_text(json.dumps({"schema": 1, "generators": [{"matrix": [1, 0, 0, -1]}]}))
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 1
        assert "error" in result.output or result.output == ""


class TestCocycleCommand:
    def test_multicone(self, runner, tmp_path):
        src = write_matrix_input(tmp_path / "in.json", figure_two(41.0))
        result = runner.invoke(main, ["cocycle", "--input", str(src)])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["kind"] == "multicone"
        assert len(payload["images"]) == 5 * len(payload["union"])

    def test_elliptic_member_inconclusive(self, runner, tmp_path):
        src = tmp_path / "in.json"
        t = 0.4
        src.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "generators": [
                        {"matrix": [2, 0, 0, 0.5]},
                        {"matrix": [math.cos(t), -math.sin(t), math.sin(t), math.cos(t)]},
                    ],
                }
            )
        )
        result = runner.invoke(main, ["cocycle", "--input", str(src)])
        assert result.exit_code == 2
        assert json.loads(result.output)["kind"] == "inconclusive"

    def test_multicone_union_renders(self, runner, tmp_path):
        maps = figure_two(41.0)
        src = write_matrix_input(tmp_path / "in.json", maps)
        cert, out = tmp_path / "cert.json", tmp_path / "figure.svg"
        assert runner.invoke(main, ["cocycle", "--input", str(src), "--output", str(cert)]).exit_code == 0
        result = runner.invoke(main, ["render", "--input", str(src), "--certificate", str(cert), "--output", str(out)])
        assert result.exit_code == 0, result.stderr
        read = [normalize([m.a, m.b, m.c, m.d]) for m in maps]
        union = multicone(read)
        assert len(union) == len(json.loads(cert.read_text())["union"]) > 1
        assert out.read_text() == render_figure(read, union)

    def test_single_cone(self, runner, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"schema": 1, "generators": [{"matrix": [2, 0, 0, 0.5]}]}))
        result = runner.invoke(main, ["cocycle", "--input", str(src)])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "multicone"


class TestOracleCommand:
    def test_report(self, runner, tmp_path):
        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(main, ["oracle", "--input", str(src), "--max-len", "10"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["empirical"] is True
        assert payload["min_identity_distance"] > 0.1
        assert payload["elliptic_count"] == 0
        assert payload["inverse_free_probe"] is True

    def test_full_payload(self, runner, tmp_path):
        from semicert import enumerate_words, inverse_free_probe
        from semicert.cli import _load_generators
        from semicert.search_oracle import DEFAULT_BUDGET

        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        result = runner.invoke(main, ["oracle", "--input", str(src), "--max-len", "10"])
        assert result.exit_code == 0
        maps = _load_generators(str(src))
        report = enumerate_words(maps, 10)
        expected = {
            "schema": 1,
            "empirical": True,
            "max_len": 10,
            "budget": DEFAULT_BUDGET,
            "words_explored": report.words_explored,
            "distinct_elements": report.distinct_elements,
            "duplicate_classes": report.duplicate_classes,
            "min_identity_distance": report.min_identity_distance,
            "nearest_word": list(report.nearest_word.letters),
            "elliptic_count": report.elliptic_count,
            "elliptic_words": [],
            "inverse_free_probe": inverse_free_probe(maps, 10),
        }
        assert result.output == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_chaos_section_with_seed(self, runner, tmp_path):
        from semicert import chaos_game
        from semicert.cli import _load_generators

        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(
            main, ["oracle", "--input", str(src), "--max-len", "6", "--seed", "3"]
        )
        payload = json.loads(result.output)
        assert payload["chaos"]["seed"] == 3
        assert payload["chaos"]["samples"] == 10_000
        angles = [p.angle for p in chaos_game(_load_generators(str(src)), 10_000, seed=3)]
        assert payload["chaos"]["angle_min"] == min(angles)
        assert payload["chaos"]["angle_max"] == max(angles)

    def test_words_leaving_float_range_are_an_error(self, runner, tmp_path):
        src = tmp_path / "in.json"
        # Length-2 products reach 1e300, whose dedup key overflows.
        generators = [{"matrix": [[1e150, 0], [0, 1]]}, {"matrix": [[2, 1e149], [0, 1]]}]
        src.write_text(json.dumps({"generators": generators}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = runner.invoke(main, ["oracle", "--input", str(src), "--max-len", "6"])
        assert result.exit_code == 1
        assert result.stderr == "error: word products leave float range at length 2\n"

    def test_huge_word_budget(self, runner, tmp_path):
        from semicert import enumerate_words

        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        args = ["oracle", "--input", str(src), "--max-len", "8", "--max-words", str(10**30)]
        result = runner.invoke(main, args)
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["budget"] == 10**30
        assert payload["words_explored"] == enumerate_words(list(section_one_pair()), 8).words_explored

    def test_sweep_beyond_memory_is_an_error(self, runner, tmp_path, monkeypatch):
        from semicert import search_oracle

        # A budget far beyond memory on a machine of 8 MiB: the working set stops at 4 MiB.
        monkeypatch.setattr(search_oracle, "_physical_memory", lambda: 8 << 20)
        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        args = ["oracle", "--input", str(src), "--max-len", "60", "--max-words", str(10**30)]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert re.fullmatch(
            r"error: the sweep needs \d+ store columns, \d+ MiB with its working set, "
            r"over half of the machine's 8 MiB of memory\n",
            result.stderr,
        )

    def test_negative_seed_is_a_usage_error(self, runner, tmp_path):
        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        result = runner.invoke(main, ["oracle", "--input", str(src), "--max-len", "2", "--seed", "-1"])
        assert result.exit_code == 2
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert "Invalid value for '--seed'" in result.stderr


class TestRenderCommand:
    def test_deterministic_svg(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        cert = tmp_path / "cert.json"
        runner.invoke(main, ["certify", "--input", str(src), "--output", str(cert)])
        out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["render", "--input", str(src), "--certificate", str(cert), "--output", str(out)],
            )
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        body = out1.read_text()
        assert body.startswith("<svg")
        assert body.count("<path") >= 8  # five axes plus certificate arcs

    def test_axes_only(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [1.0] * 5)
        out = tmp_path / "axes.svg"
        result = runner.invoke(main, ["render", "--input", str(src), "--output", str(out)])
        assert result.exit_code == 0
        assert out.read_text().count("<polygon") == 5  # one arrowhead per axis

    def test_certificate_without_arcs_draws_axes_only(self, runner, tmp_path):
        src = write_disc_input(tmp_path / "in.json", [10.0] * 5)
        cert = tmp_path / "cert.json"
        runner.invoke(main, ["certify", "--input", str(src), "--output", str(cert)])
        assert json.loads(cert.read_text())["kind"] == "inconclusive"
        plain = tmp_path / "plain.svg"
        overlay = tmp_path / "overlay.svg"
        runner.invoke(main, ["render", "--input", str(src), "--output", str(plain)])
        result = runner.invoke(
            main,
            ["render", "--input", str(src), "--certificate", str(cert), "--output", str(overlay)],
        )
        assert result.exit_code == 0
        assert plain.read_bytes() == overlay.read_bytes()

    @pytest.mark.parametrize("layout", ["union", "interval"])
    @pytest.mark.parametrize(
        "angle", [10**400, True, "0.5", math.nan, math.inf], ids=["10**400", "true", "string", "NaN", "Infinity"]
    )
    def test_rejects_a_non_finite_or_non_numeric_angle(self, runner, tmp_path, layout, angle):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        arc = {"start": {**point(1.0), "angle": angle}, "end": point(2.0)}
        cert = tmp_path / "cert.json"
        cert.write_text(json.dumps({"union": [arc]} if layout == "union" else {"interval": arc}))
        out = tmp_path / "out.svg"
        result = runner.invoke(main, ["render", "--input", str(src), "--certificate", str(cert), "--output", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        [line] = result.stderr.splitlines()
        field = "union[0]" if layout == "union" else "interval"
        assert line.startswith(f"error: {cert}: {field}.start.angle: expected a finite angle in radians, got ")

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"union": [{"start": 1}]}, "union[0].end: missing"),
            ({"interval": None}, "interval: expected an object, got None"),
            ({"union": {"a": 1}}, "union: expected a list of arcs, got {'a': 1}"),
            ({"union": []}, "union: arc union must contain at least one arc"),
            ({"union": [{"start": point(1.0), "end": point(1.0)}]}, "union[0]: arc endpoints coincide"),
            ({"interval": {"start": point(2.0), "end": point(2.0)}}, "interval: arc endpoints coincide"),
            (
                {"union": [{"start": point(a), "end": point(b)} for a, b in ((1.0, 2.0), (1.5, 3.0))]},
                "union: arc closures intersect near angle 2.000000",
            ),
        ],
        ids=[
            "arc-without-end",
            "null-interval",
            "union-not-a-list",
            "empty-union",
            "coincident-ends",
            "coincident-interval",
            "overlapping-arcs",
        ],
    )
    def test_names_the_malformed_field(self, runner, tmp_path, body, message):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps(body))
        out = tmp_path / "out.svg"
        result = runner.invoke(main, ["render", "--input", str(src), "--certificate", str(cert), "--output", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert result.stderr.splitlines() == [f"error: {cert}: {message}"]

    @pytest.mark.parametrize("layout", ["union", "interval"])
    @pytest.mark.parametrize(
        "start, message",
        [
            ({"angle": 1.0}, ".start.value: missing"),
            *[
                ({**point(1.0), "value": value}, '.start.value: expected a finite number or "inf", got ')
                for value in (10**400, True, "0.5", math.nan, math.inf)
            ],
            ({**point(1.0), "angle": 1.0 + 1e-9}, ".start.angle: 1.000000001 is not the angle of its value, "),
            ({**point(1.0), "angle": 1.0 + 1e-9 - 2.0 * math.pi}, ".start.angle: -5.28318530617"),
        ],
        ids=[
            "missing-value",
            "value-10**400",
            "value-true",
            "value-string",
            "value-NaN",
            "value-Infinity",
            "angle-off-by-1e-9",
            "angle-off-by-1e-9-a-turn-away",
        ],
    )
    def test_names_a_bad_value_or_a_disagreeing_angle(self, runner, tmp_path, layout, start, message):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        arc = {"start": start, "end": point(2.0)}
        cert = tmp_path / "c.json"
        cert.write_text(json.dumps({"union": [arc]} if layout == "union" else {"interval": arc}))
        out = tmp_path / "out.svg"
        result = runner.invoke(main, ["render", "--input", str(src), "--certificate", str(cert), "--output", str(out)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        [line] = result.stderr.splitlines()
        field = "union[0]" if layout == "union" else "interval"
        assert line.startswith(f"error: {cert}: {field}{message}") and len(line) < 200

    @pytest.mark.parametrize("angle", [0.0, 2.0 * math.pi, 1e-13, -1e-13], ids=["0", "2pi", "1e-13", "-1e-13"])
    def test_reads_an_inf_value_within_the_bound(self, runner, tmp_path, angle):
        src = write_disc_input(tmp_path / "in.json", [41.0] * 5)
        arc = BoundaryArc(BoundaryPoint.infinity(), BoundaryPoint.from_angle(2.0))
        svgs = []
        for name, start in [("written", point_to_dict(arc.start)), ("edited", {"angle": angle, "value": "inf"})]:
            cert, out = tmp_path / f"{name}.json", tmp_path / f"{name}.svg"
            cert.write_text(json.dumps({"interval": {"start": start, "end": point_to_dict(arc.end)}}))
            args = ["render", "--input", str(src), "--certificate", str(cert), "--output", str(out)]
            assert runner.invoke(main, args).exit_code == 0
            svgs.append(out.read_text())
        assert svgs[0] == svgs[1]
        assert svgs[0].count("<path") == 6  # five axes and the arc


class TestErrorBoundary:
    """Every command ends an output it cannot write as one `error:` line and exit 1."""

    COMMANDS = {
        "classify": [],
        "pairs": [],
        "certify": [],
        "cocycle": [],
        "oracle": ["--max-len", "2"],
        "render": [],
    }

    @pytest.mark.parametrize("target", ["missing-directory", "existing-directory"])
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_unwritable_output(self, runner, tmp_path, command, target):
        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        where = tmp_path / "out"
        if target == "missing-directory":
            out = where / "x.json"
        else:
            where.mkdir()
            out = where
        args = [command, "--input", str(src), "--output", str(out), *self.COMMANDS[command]]
        result = runner.invoke(main, args)
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        [line] = result.stderr.splitlines()
        assert line.startswith("error:") and "Traceback" not in result.stderr
        assert result.stdout == ""
        assert sorted(p.name for p in tmp_path.rglob("*")) == (["in.json", "out"] if where.exists() else ["in.json"])

    def test_module_entry_point_prints_no_traceback(self, tmp_path):
        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        out = tmp_path / "missing" / "cert.json"
        env = {**os.environ, "PYTHONPATH": str(Path(semicert.__file__).parents[1])}
        args = [sys.executable, "-m", "semicert.cli", "certify", "--input", str(src), "--output", str(out)]
        result = subprocess.run(args, capture_output=True, text=True, env=env, timeout=60)
        assert result.returncode == 1
        assert result.stderr.startswith("error: [Errno 2]") and len(result.stderr.splitlines()) == 1
        assert not out.parent.exists()

    def test_closed_standard_output_ends_quietly(self, tmp_path):
        # click's own handler ends a broken pipe with exit 1 and nothing on stderr.
        src = write_matrix_input(tmp_path / "in.json", list(section_one_pair()))
        env = {**os.environ, "PYTHONPATH": str(Path(semicert.__file__).parents[1])}
        args = [sys.executable, "-m", "semicert.cli", "certify", "--input", str(src)]
        with subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            proc.stdout.close()  # no reader is left before the command writes
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1
        assert err == b""


class TestMisc:
    def test_version(self, runner):
        result = runner.invoke(main, ["--version"])
        assert result.exit_code == 0

    def test_text_format_classify(self, runner, tmp_path):
        f, g = section_one_pair()
        src = write_matrix_input(tmp_path / "in.json", [f, g])
        result = runner.invoke(main, ["classify", "--input", str(src), "--format", "text"])
        assert result.exit_code == 0
        assert "hyperbolic" in result.output

    def test_matrix_roundtrip_at_large_lengths(self, runner, tmp_path):
        # The determinant of a length-41 unit matrix drowns in rounding; the
        # |det| = 1 promise is trusted, so certificate generators can be
        # re-fed as matrices.
        src = write_matrix_input(tmp_path / "in.json", figure_two(41.0))
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 0
        assert json.loads(result.output)["kind"] == "semidiscrete_inverse_free"

    def test_unsupported_schema(self, runner, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"schema": 99, "generators": [{"matrix": [2, 0, 0, 1]}]}))
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 1

    def test_disc_model_rejects_inf_string(self, runner, tmp_path):
        src = tmp_path / "in.json"
        src.write_text(
            json.dumps(
                {
                    "schema": 1,
                    "model": "disc",
                    "generators": [{"axis": {"beta": "inf", "alpha": 1.0}, "tau": 1.0}],
                }
            )
        )
        result = runner.invoke(main, ["certify", "--input", str(src)])
        assert result.exit_code == 1


class TestAxisFormInput:
    def test_inf_string_is_a_half_plane_endpoint(self, runner, tmp_path):
        src = tmp_path / "in.json"
        axis_form = {"axis": {"beta": 0.0, "alpha": "inf"}, "tau": 2.0}
        src.write_text(json.dumps({"schema": 1, "generators": [axis_form]}))
        result = runner.invoke(main, ["classify", "--input", str(src)])
        assert result.exit_code == 0
        row = json.loads(result.output)["generators"][0]
        assert row["alpha"]["value"] == "inf"
        assert row["tau"] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize(
        "model, axis_form, field",
        [
            ("half-plane", {"axis": {"beta": math.nan, "alpha": 1.0}, "tau": 2.0}, ".axis.beta"),
            ("disc", {"axis": {"beta": math.nan, "alpha": 1.0}, "tau": 2.0}, ".axis.beta"),
            ("half-plane", {"axis": {"beta": 0.0, "alpha": math.inf}, "tau": 2.0}, ".axis.alpha"),
            ("disc", {"axis": {"beta": 0.0, "alpha": True}, "tau": 2.0}, ".axis.alpha"),
            ("half-plane", {"axis": {"beta": -1.0, "alpha": 1.0}, "tau": None}, ".tau"),
            ("half-plane", {"axis": {"beta": -1.0, "alpha": 1.0}, "tau": [2]}, ".tau"),
            ("half-plane", {"axis": {"beta": -1.0, "alpha": 1.0}, "tau": True}, ".tau"),
            ("half-plane", {"axis": {"beta": -1.0, "alpha": 1.0}, "tau": "2"}, ".tau"),
            ("disc", {"axis": {"beta": 0.0, "alpha": 1.0}, "tau": math.nan}, ".tau"),
            ("disc", {"axis": {"beta": 0.0, "alpha": 1.0}, "tau": math.inf}, ".tau"),
            ("disc", {"axis": {"beta": 0.0, "alpha": 1.0}, "tau": 10**400}, ".tau"),
        ],
    )
    def test_rejects_non_finite_or_non_numeric(self, runner, tmp_path, model, axis_form, field):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"schema": 1, "model": model, "generators": [axis_form]}))
        result = runner.invoke(main, ["classify", "--input", str(src)])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # not an uncaught exception
        assert result.stdout == ""
        assert result.stderr.startswith("error:")
        assert f"generators[0]{field}" in result.stderr
        assert "Traceback" not in result.output


@pytest.mark.parametrize("command", ["classify", "pairs", "cocycle"])
@pytest.mark.parametrize("name", ["admissible6", "figure_two_41", "admissible12", "rank_one12"])
def test_checked_in_cli_outputs_are_written_byte_for_byte(runner, command, name):
    # Each golden file is the command's sorted-key JSON on `tests/data/<name>.json`, written by the
    # object forms of `from_angle`, `apply_boundary`, `BoundaryArc.midpoint` and the shared groups.
    result = runner.invoke(main, [command, "--input", str(DATA / f"{name}.json")])
    assert result.exit_code == 0, result.output
    assert result.output == (DATA / "cli" / f"{command}_{name}.json").read_text()
