"""Command-line front end: parse generator files, emit certificates, render SVG.

The CLI is a thin shell over the library; every JSON payload it prints can be
reproduced by calling the corresponding library function directly.  Exit
codes: 0 for a definitive certificate, 2 for inconclusive, 1 for errors.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys

import click

from . import __version__
from .boundary_arcs import DEFAULT_MARGIN, ArcUnion, BoundaryArc
from .criteria_engine import Inconclusive, certificate_to_dict, certify, multicone, point_to_dict, union_to_dict
from .errors import BudgetExceeded, CertifyError, InvalidMatrix, NonPositiveDeterminant, ParseError
from .moebius_core import BoundaryPoint, MoebiusMap, apply_boundary, classify, from_axis_and_length, normalize
from .pair_geometry import Family
from .render import RenderSpec, render_figure
from .search_oracle import DEFAULT_BUDGET, EnumerationReport, chaos_game, enumerate_words, inverse_free_probe

SCHEMA_VERSION = 1


@click.group()
@click.version_option(__version__)
def main():
    """Semidiscreteness certificates for hyperbolic transformation semigroups."""


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # an integer past Python's digit limit for int()
        raise ParseError(f"{path}: integer literal too long") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top level must be an object")
    if data.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ParseError(f"{path}: unsupported schema {reprlib.repr(data.get('schema'))}")
    return data


def _finite(v, where: str, expected: str) -> float:
    """`v` as a float if it is a finite real number other than a bool; ParseError otherwise."""
    # abs(v) <= max rejects NaN, the infinities and ints too large for a float.
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return float(v)
    # reprlib cuts the echo of a huge or deeply nested value to a short prefix.
    raise ParseError(f"{where}: expected {expected}, got {reprlib.repr(v)}")


def _boundary_value(v, model: str, where: str) -> BoundaryPoint:
    if model == "disc":
        return BoundaryPoint.from_angle(_finite(v, where, "a finite angle in radians"))
    if v == "inf":
        return BoundaryPoint.infinity()
    return BoundaryPoint.from_real(_finite(v, where, 'a finite number or "inf"'))


def _load_generators(path: str, matrices_only: bool = False) -> list[MoebiusMap | None]:
    """The generators of `path`: matrices through `normalize`, axis forms through `from_axis_and_length`.

    With `matrices_only` (the cocycle input) every generator must be a
    matrix, and one of negative determinant reads as None, not as an error.
    """
    data = _load(path)
    model = data.get("model", "half-plane")
    if model not in ("half-plane", "disc"):
        raise ParseError(f"{path}: model must be \"half-plane\" or \"disc\"")
    gens = data.get("generators")
    if not isinstance(gens, list) or not gens:
        raise ParseError(f"{path}: \"generators\" must be a nonempty list")
    maps = []
    for idx, g in enumerate(gens):
        where = f"{path}: generators[{idx}]"
        if not isinstance(g, dict):
            raise ParseError(f"{where}: must be an object")
        if "matrix" in g:
            try:
                maps.append(normalize(g["matrix"]))
            except InvalidMatrix as exc:
                raise ParseError(f"{where}: {exc}") from exc
            except NonPositiveDeterminant as exc:
                if not matrices_only:
                    raise ParseError(f"{where}: matrix has negative determinant") from exc
                maps.append(None)
        elif matrices_only:
            raise ParseError(f"{where}: cocycle input needs matrix entries")
        elif "axis" in g:
            ax = g["axis"]
            if not isinstance(ax, dict) or "beta" not in ax or "alpha" not in ax:
                raise ParseError(f"{where}: axis needs \"beta\" and \"alpha\"")
            if "tau" not in g:
                raise ParseError(f"{where}: axis form needs \"tau\"")
            beta = _boundary_value(ax["beta"], model, f"{where}.axis.beta")
            alpha = _boundary_value(ax["alpha"], model, f"{where}.axis.alpha")
            tau = _finite(g["tau"], f"{where}.tau", "a finite number")
            try:
                maps.append(from_axis_and_length(beta, alpha, tau))
            except (CertifyError, ValueError) as exc:
                raise ParseError(f"{where}: {exc}") from exc
        else:
            raise ParseError(f"{where}: needs either \"matrix\" or \"axis\"+\"tau\"")
    return maps


def _emit(payload: dict, fmt: str, output: str | None, text_lines: list[str] | None = None):
    if fmt == "json" or text_lines is None:
        body = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        body = "\n".join(text_lines) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(body)
    else:
        click.echo(body, nl=False)


def _fail(exc: Exception) -> "sys.NoReturn":
    click.echo(f"error: {exc}", err=True)
    sys.exit(1)


_input_opt = click.option("--input", "input_path", required=True, type=click.Path(exists=True))
_output_opt = click.option("--output", "output_path", default=None, type=click.Path())
_format_opt = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json"
)


@main.command("classify")
@_input_opt
@_output_opt
@_format_opt
def cmd_classify(input_path, output_path, fmt):
    """Per-generator classification: kind, fixed points, translation length."""
    try:
        maps = _load_generators(input_path)
        rows = []
        for idx, f in enumerate(maps):
            cls = classify(f)
            row = {"index": idx, "kind": cls.kind}
            if cls.kind == "hyperbolic":
                row["alpha"] = point_to_dict(cls.alpha)
                row["beta"] = point_to_dict(cls.beta)
                row["tau"] = cls.tau
            elif cls.kind == "parabolic":
                row["fixed"] = point_to_dict(cls.fixed)
            elif cls.kind == "elliptic":
                row["rotation_angle"] = cls.rotation_angle
            rows.append(row)
    except CertifyError as exc:
        _fail(exc)
    lines = [_classify_line(r) for r in rows]
    _emit({"schema": SCHEMA_VERSION, "generators": rows}, fmt, output_path, lines)


def _classify_line(row: dict) -> str:
    if row["kind"] == "hyperbolic":
        return (
            f"{row['index']}: hyperbolic  alpha={row['alpha']['value']}  "
            f"beta={row['beta']['value']}  tau={row['tau']:.6f}"
        )
    if row["kind"] == "parabolic":
        return f"{row['index']}: parabolic  fixed={row['fixed']['value']}"
    if row["kind"] == "elliptic":
        return f"{row['index']}: elliptic  angle={row['rotation_angle']:.6f}"
    return f"{row['index']}: identity"


@main.command("pairs")
@_input_opt
@_output_opt
@_format_opt
def cmd_pairs(input_path, output_path, fmt):
    """Cross-ratio table with decoded configurations for all generator pairs."""
    try:
        maps = _load_generators(input_path)
        rows = []
        for (i, j), cfg in Family.of(maps).pairs.items():
            row = {"i": i, "j": j, "cross_ratio": _num(cfg.cross_ratio), "kind": cfg.kind}
            if cfg.kind == "crossing":
                row["theta"] = cfg.theta
            elif cfg.kind == "disjoint":
                row["distance"] = cfg.distance
                row["nested_attractors"] = cfg.nested_attractors
            rows.append(row)
    except CertifyError as exc:
        _fail(exc)
    lines = [
        f"({r['i']},{r['j']}): C={r['cross_ratio']}  {r['kind']}"
        + (f"  theta={r['theta']:.6f}" if "theta" in r else "")
        + (f"  d={r['distance']:.6f}" if "distance" in r else "")
        for r in rows
    ]
    _emit({"schema": SCHEMA_VERSION, "pairs": rows}, fmt, output_path, lines)


def _num(v: float):
    return "inf" if math.isinf(v) else v


@main.command("certify")
@_input_opt
@_output_opt
@_format_opt
@click.option(
    "--margin", type=click.FloatRange(min=0.0), default=DEFAULT_MARGIN, show_default=True
)
@click.option(
    "--max-words",
    type=click.IntRange(min=0),
    default=0,
    help="Cross-validate with the word enumeration oracle up to this word length "
    "(the oracle command's --max-words is a word budget instead).",
)
def cmd_certify(input_path, output_path, fmt, margin, max_words):
    """Run the semidiscreteness decision procedure and emit its certificate."""
    try:
        maps = _load_generators(input_path)
        cert = certify(maps, margin=margin)
        payload = certificate_to_dict(cert, version=__version__)
        if max_words > 0:
            payload["oracle"] = _oracle_section(maps, max_words)
    except CertifyError as exc:
        _fail(exc)
    lines = [f"certificate: {cert.kind}"]
    if isinstance(cert, Inconclusive):
        lines.append(f"  lower={cert.report.get('lower')}  upper={cert.report.get('upper')}")
    _emit(payload, fmt, output_path, lines)
    sys.exit(2 if isinstance(cert, Inconclusive) else 0)


def _oracle_section(maps, max_len: int) -> dict:
    """Evidence up to word length max_len; an exhausted word budget is reported, not raised."""
    try:
        report, payload = _oracle_payload(maps, max_len)
    except BudgetExceeded as exc:
        return {"empirical": True, "max_len": max_len, "error": str(exc)}
    # Elliptic words are stored in breadth-first order, so the first one is
    # what find_elliptic would return from a second sweep.
    first = report.elliptic_words[0] if report.elliptic_words else None
    payload["first_elliptic_word"] = list(first.letters) if first else None
    return payload


def _oracle_payload(maps, max_len: int, budget: int = DEFAULT_BUDGET) -> tuple[EnumerationReport, dict]:
    """The enumeration up to max_len and the fields both oracle payloads share (probe capped at length 10)."""
    report = enumerate_words(maps, max_len, budget=budget)
    return report, {
        "empirical": True,
        "max_len": max_len,
        "words_explored": report.words_explored,
        "min_identity_distance": report.min_identity_distance,
        "elliptic_count": report.elliptic_count,
        "inverse_free_probe": inverse_free_probe(maps, min(max_len, 10), budget=budget),
    }


@main.command("cocycle")
@_input_opt
@_output_opt
@_format_opt
@click.option(
    "--margin", type=click.FloatRange(min=0.0), default=DEFAULT_MARGIN, show_default=True
)
def cmd_cocycle(input_path, output_path, fmt, margin):
    """Multicone certificate for a matrix tuple (uniform hyperbolicity test)."""
    try:
        maps = _load_generators(input_path, matrices_only=True)
        union = multicone(maps, margin=margin)
    except CertifyError as exc:
        _fail(exc)
    if union is None:
        _emit({"schema": SCHEMA_VERSION, "kind": "inconclusive"}, fmt, output_path, ["inconclusive"])
        sys.exit(2)
    # Endpoint images are reported as raw points: a strongly contracted arc
    # can be thinner than float angular resolution.
    images = [
        {
            "matrix": i,
            "arc": a,
            "image_start": point_to_dict(apply_boundary(maps[i], arc.start)),
            "image_end": point_to_dict(apply_boundary(maps[i], arc.end)),
        }
        for i in range(len(maps))
        for a, arc in enumerate(union)
    ]
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": "multicone",
        "union": union_to_dict(union),
        "images": images,
    }
    _emit(payload, fmt, output_path, ["multicone"])
    sys.exit(0)


@main.command("oracle")
@_input_opt
@_output_opt
@_format_opt
@click.option("--max-len", type=click.IntRange(min=1), default=12, show_default=True)
@click.option("--max-words", type=click.IntRange(min=1), default=DEFAULT_BUDGET, show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=None, help="Also sample the forward limit set.")
def cmd_oracle(input_path, output_path, fmt, max_len, max_words, seed):
    """Empirical word-enumeration report (evidence, not a certificate)."""
    try:
        maps = _load_generators(input_path)
        report, shared = _oracle_payload(maps, max_len, budget=max_words)
        payload = {
            "schema": SCHEMA_VERSION,
            **shared,
            "budget": max_words,
            "distinct_elements": report.distinct_elements,
            "duplicate_classes": report.duplicate_classes,
            "nearest_word": list(report.nearest_word.letters) if report.nearest_word else None,
            "elliptic_words": [list(w.letters) for w in report.elliptic_words],
        }
        if seed is not None:
            angles = chaos_game(maps, 10_000, seed=seed).angles()
            payload["chaos"] = {
                "seed": seed,
                "samples": len(angles),
                "angle_min": float(angles.min()),
                "angle_max": float(angles.max()),
            }
    except CertifyError as exc:
        _fail(exc)
    _emit(payload, fmt, output_path, [f"min identity distance: {report.min_identity_distance}"])


@main.command("render")
@_input_opt
@click.option("--output", "output_path", required=True, type=click.Path())
@click.option("--certificate", "cert_path", default=None, type=click.Path(exists=True))
@click.option("--size", type=click.IntRange(min=32), default=600, show_default=True)
@click.option("--no-labels", is_flag=True, default=False)
def cmd_render(input_path, output_path, cert_path, size, no_labels):
    """Draw the disc-model figure (axes, arrows, certificate arcs) as SVG."""
    try:
        maps = _load_generators(input_path)
        union = None
        if cert_path:
            union = _union_from_certificate(_load(cert_path), cert_path)
        svg = render_figure(
            maps, union, RenderSpec(size=size, draw_labels=not no_labels)
        )
        with open(output_path, "w", encoding="utf-8") as handle:
            handle.write(svg)
    except (CertifyError, OSError, ValueError) as exc:
        _fail(exc)


def _union_from_certificate(data: dict, path: str) -> ArcUnion | None:
    arcs, name = data.get("union"), "union[{}]"
    if arcs is None and "interval" in data:
        arcs, name = [data["interval"]], "interval"
    if arcs is None:
        return None
    if not isinstance(arcs, list):
        raise ParseError(f"{path}: union: expected a list of arcs, got {reprlib.repr(arcs)}")

    def field(obj, key: str, where: str):
        if not isinstance(obj, dict):
            raise ParseError(f"{where}: expected an object, got {reprlib.repr(obj)}")
        if key not in obj:
            raise ParseError(f"{where}.{key}: missing")
        return obj[key]

    def arc(k: int, obj) -> BoundaryArc:
        # Both ends are looked up before either angle, so a missing end is named first.
        where = f"{path}: {name.format(k)}"
        ends = [(f"{where}.{end}", field(obj, end, where)) for end in ("start", "end")]
        angles = (_finite(field(p, "angle", w), f"{w}.angle", "a finite angle in radians") for w, p in ends)
        return BoundaryArc.from_angles(*angles)

    return ArcUnion(arc(k, a) for k, a in enumerate(arcs))


if __name__ == "__main__":
    main()
