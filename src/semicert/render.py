"""Static SVG figures in the disc model: axes with arrows, certificate arcs.

Output is deterministic for fixed input: geometry is sampled at fixed
parameters and numbers are printed with fixed precision, so golden-file
comparisons are byte-stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .boundary_arcs import ArcUnion
from .moebius_core import (
    Geodesic,
    MoebiusMap,
    apply_interior,
    axis_chart,
    cayley_to_disc,
    classify,
)

# Hyperbolic parameter reach of a sampled axis; e^-8 from the circle is
# visually indistinguishable from touching it.
AXIS_REACH = 8.0
AXIS_SAMPLES = 96
ARC_SAMPLES = 48
STROKE = 1.3
CIRCLE_COLOR = "#303030"
AXIS_COLOR = "#1f4e9c"
ARC_COLOR = "#c23b22"


@dataclass(frozen=True)
class RenderSpec:
    size: int = 600
    draw_labels: bool = True


def render_figure(
    maps: Sequence[MoebiusMap],
    union: ArcUnion | None = None,
    spec: RenderSpec = RenderSpec(),
) -> str:
    """SVG text for the axes of `maps` plus an optional boundary arc union."""
    if spec.size <= 0:
        raise ValueError("canvas size must be positive")
    half = spec.size / 2.0
    radius = half * 0.9

    def pix(z: complex) -> tuple[float, float]:
        return half + radius * z.real, half - radius * z.imag

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{spec.size}" '
        f'height="{spec.size}" viewBox="0 0 {spec.size} {spec.size}">',
        f'<circle cx="{_fmt(half)}" cy="{_fmt(half)}" r="{_fmt(radius)}" '
        f'fill="none" stroke="{CIRCLE_COLOR}" stroke-width="{_fmt(STROKE)}"/>',
    ]
    for idx, f in enumerate(maps):
        cls = classify(f)
        if not cls.is_hyperbolic:
            continue
        samples = _axis_samples(Geodesic(cls.beta, cls.alpha))
        mid, t = _midpoint_tangent(samples)
        parts.append(_path([pix(z) for z in samples], AXIS_COLOR, STROKE))
        parts.append(_arrow(mid, t, pix))
        if spec.draw_labels:
            lx, ly = pix(mid + 0.045 * (1j * t))
            parts.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="{spec.size // 40}" '
                f'fill="{AXIS_COLOR}">f{idx + 1}</text>'
            )
    if union is not None:
        for arc in union:
            start = arc.start.angle
            pts = [
                pix(1.035 * _circle_point(start + arc.span * k / ARC_SAMPLES))
                for k in range(ARC_SAMPLES + 1)
            ]
            parts.append(_path(pts, ARC_COLOR, 2.4 * STROKE))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _circle_point(angle: float) -> complex:
    return complex(math.cos(angle), math.sin(angle))


def _axis_samples(geo: Geodesic) -> list[complex]:
    chart = axis_chart(geo)
    out = []
    for k in range(AXIS_SAMPLES + 1):
        t = -AXIS_REACH + 2.0 * AXIS_REACH * k / AXIS_SAMPLES
        out.append(cayley_to_disc(apply_interior(chart, 1j * math.exp(t))))
    return out


def _midpoint_tangent(samples: list[complex]) -> tuple[complex, complex]:
    """The axis midpoint and the unit tangent there, in the direction of travel; 0 where the next sample coincides."""
    mid = samples[len(samples) // 2]
    t = samples[len(samples) // 2 + 1] - mid
    return mid, t / abs(t) if abs(t) != 0.0 else 0j


def _arrow(mid: complex, t: complex, pix) -> str:
    if t == 0j:
        return ""
    n = 1j * t
    size = 0.035
    tip = mid + size * t
    left = mid - 0.6 * size * t + 0.55 * size * n
    right = mid - 0.6 * size * t - 0.55 * size * n
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in (pix(tip), pix(left), pix(right)))
    return f'<polygon points="{pts}" fill="{AXIS_COLOR}"/>'


def _path(points: list[tuple[float, float]], color: str, width: float) -> str:
    d = "M " + " L ".join(f"{_fmt(x)} {_fmt(y)}" for x, y in points)
    return f'<path d="{d}" fill="none" stroke="{color}" stroke-width="{_fmt(width)}"/>'


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out
