"""SVG drawings of real configurations and their spanned lines.

Rendering is the one place floating point is allowed: coordinates are
embedded into floats for display only, after all geometry has been decided
exactly.  Configurations with non-real coordinates are refused outright.

Points on the line at infinity of the standard chart are not special: the
renderer first searches for a small integer functional f with f(p) != 0 for
every point (an affine chart containing the whole configuration) and draws
in that chart.
"""

from __future__ import annotations

import cmath
import itertools
import math
from typing import List, Optional, Tuple

from .fields import FieldElement, QUADRATIC, RATIONAL
from .projective import Configuration, spanned_lines


class RenderError(ValueError):
    pass


def _embed(e: FieldElement) -> float:
    field = e.field
    coeffs = e.coeffs
    if field.kind == RATIONAL:
        return float(coeffs[0])
    if field.kind == QUADRATIC:
        a, b = coeffs
        if field.d < 0:
            return float(a)
        return float(a) + float(b) * math.sqrt(field.d)
    zeta = cmath.exp(2j * math.pi / field.N)
    total = 0j
    for c in reversed(coeffs):
        total = total * zeta + complex(float(c))
    return total.real


def _chart_candidates():
    yield (0, 0, 1)
    yield (1, 0, 0)
    yield (0, 1, 0)
    for bound in range(1, 5):
        for f in itertools.product(range(-bound, bound + 1), repeat=3):
            if max(abs(v) for v in f) != bound:
                continue
            if f in ((0, 0, 1), (1, 0, 0), (0, 1, 0)):
                continue
            yield f


def _find_chart(points) -> Tuple[int, int, int]:
    """A chart functional f that no point's coordinates annihilate."""
    for f in _chart_candidates():
        if all(not (x * f[0] + y * f[1] + z * f[2]).is_zero() for x, y, z in points):
            return f
    raise RenderError("no small affine chart contains every point")


def _affine_floats(config: Configuration) -> List[Tuple[float, float]]:
    points = [p.coords for p in config.points]
    f = _find_chart(points)
    pivot = next(i for i, v in enumerate(f) if v != 0)
    i, j = [axis for axis in range(3) if axis != pivot]
    out = []
    for coords in points:
        inv = (coords[0] * f[0] + coords[1] * f[1] + coords[2] * f[2]).inverse()
        out.append((_embed(coords[i] * inv), _embed(coords[j] * inv)))
    return out


def _clip_infinite_line(p0, p1, box) -> Optional[Tuple[float, float, float, float]]:
    """Liang-Barsky clip of the unbounded line through p0, p1 to box."""
    (xmin, ymin, xmax, ymax) = box
    x0, y0 = p0
    dx, dy = p1[0] - x0, p1[1] - y0
    if dx == 0 and dy == 0:
        return None
    t0, t1 = -1e18, 1e18
    for p, q in ((-dx, x0 - xmin), (dx, xmax - x0),
                 (-dy, y0 - ymin), (dy, ymax - y0)):
        if p == 0:
            if q < 0:
                return None
        else:
            t = q / p
            if p < 0:
                t0 = max(t0, t)
            else:
                t1 = min(t1, t)
    if t0 > t1:
        return None
    return (x0 + t0 * dx, y0 + t0 * dy, x0 + t1 * dx, y0 + t1 * dy)


def render_svg(config: Configuration, size: int = 800,
               margin: float = 0.1) -> str:
    """SVG document showing every point and every spanned line, lines
    clipped to the point bounding box plus a margin fraction per side."""
    return _render(config, size, margin)[0]


def _render(config: Configuration, size: int = 800,
            margin: float = 0.1) -> Tuple[str, int, int]:
    """render_svg's document with the number of points and of lines it
    draws (a line that misses the box is not drawn)."""
    if not config.is_real():
        raise RenderError(
            "cannot draw a configuration with non-real coordinates")
    coords = _affine_floats(config)
    xs = [x for x, _ in coords]
    ys = [y for _, y in coords]
    spanx = max(xs) - min(xs) or 1.0
    spany = max(ys) - min(ys) or 1.0
    box = (min(xs) - margin * spanx, min(ys) - margin * spany,
           max(xs) + margin * spanx, max(ys) + margin * spany)
    wspan = box[2] - box[0]
    hspan = box[3] - box[1]
    scale = min(size / wspan, size / hspan)
    offx = (size - scale * wspan) / 2
    offy = (size - scale * hspan) / 2

    def to_px(x: float, y: float) -> Tuple[float, float]:
        return (offx + (x - box[0]) * scale,
                size - (offy + (y - box[1]) * scale))

    lines = 0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" '
        f'height="{size}" viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for members in spanned_lines(config).values():
        idx = sorted(members)
        seg = _clip_infinite_line(coords[idx[0]], coords[idx[1]], box)
        if seg is None:
            continue
        lines += 1
        x1, y1 = to_px(seg[0], seg[1])
        x2, y2 = to_px(seg[2], seg[3])
        parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#61708b" stroke-width="1"/>')
    for x, y in coords:
        px, py = to_px(x, y)
        parts.append(
            f'<circle cx="{px:.3f}" cy="{py:.3f}" r="4" fill="#b3202c"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n", len(coords), lines
