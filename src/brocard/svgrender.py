"""SVG figure emission for scenes and their derived configurations.

Rendering is the only place exact values meet floating point: coordinates
are converted to decimals with a configurable digit count at the very end,
and nothing rendered ever feeds back into verification.  The y axis is
flipped to mathematical orientation and the viewBox is fitted to the drawn
objects with a 10% margin.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import LAYERS
from .geom import Degenerate, Line, Point
from .pipeline import Configuration
from .scene import Scene

_STYLE = {
    "scene": {"stroke": "#444444"},
    "miquel": {"stroke": "#c0392b"},
    "triangles": {"stroke": "#1e8449"},
    "brocard-circle": {"stroke": "#d68910"},
    "steiner": {"stroke": "#1f618d"},
}


class _Canvas:
    def __init__(self, digits: int):
        self.digits = digits
        self.min_x = self.max_x = self.min_y = self.max_y = None
        self.layers: Dict[str, List[str]] = {}

    def fmt(self, v: float) -> str:
        return format(v, f".{self.digits}g")

    def _see(self, x: float, y: float) -> None:
        if self.min_x is None:
            self.min_x = self.max_x = x
            self.min_y = self.max_y = y
        else:
            self.min_x, self.max_x = min(self.min_x, x), max(self.max_x, x)
            self.min_y, self.max_y = min(self.min_y, y), max(self.max_y, y)

    def point_xy(self, p: Point) -> Tuple[float, float]:
        x, y = float(p.x), -float(p.y)  # mathematical orientation
        self._see(x, y)
        return x, y

    def add(self, layer: str, element: str) -> None:
        self.layers.setdefault(layer, []).append(element)

    def dot(self, layer: str, p: Point, label: str, r: float) -> None:
        x, y = self.point_xy(p)
        color = _STYLE[layer]["stroke"]
        self.add(layer, f'<circle cx="{self.fmt(x)}" cy="{self.fmt(y)}" r="{self.fmt(r)}" fill="{color}"/>')
        self.add(
            layer,
            f'<text x="{self.fmt(x + 1.8 * r)}" y="{self.fmt(y - 1.2 * r)}" '
            f'fill="{color}" font-size="{self.fmt(6 * r)}" font-family="sans-serif">{label}</text>',
        )

    def segment(self, layer: str, p: Point, q: Point, width: float, dashed: bool = False) -> None:
        x1, y1 = self.point_xy(p)
        x2, y2 = self.point_xy(q)
        dash = ' stroke-dasharray="4 3"' if dashed else ""
        color = _STYLE[layer]["stroke"]
        self.add(
            layer,
            f'<line x1="{self.fmt(x1)}" y1="{self.fmt(y1)}" x2="{self.fmt(x2)}" y2="{self.fmt(y2)}" '
            f'stroke="{color}" stroke-width="{self.fmt(width)}"{dash}/>',
        )

    def circle(self, layer: str, center: Point, radius2: Fraction, width: float) -> None:
        cx, cy = self.point_xy(center)
        r = math.sqrt(float(radius2))
        self._see(cx - r, cy - r)
        self._see(cx + r, cy + r)
        color = _STYLE[layer]["stroke"]
        self.add(
            layer,
            f'<circle cx="{self.fmt(cx)}" cy="{self.fmt(cy)}" r="{self.fmt(r)}" '
            f'fill="none" stroke="{color}" stroke-width="{self.fmt(width)}"/>',
        )

    def render(self) -> str:
        pad = 0.1 * max(self.max_x - self.min_x, self.max_y - self.min_y, 1e-9)
        vx, vy = self.min_x - pad, self.min_y - pad
        vw = self.max_x - self.min_x + 2 * pad
        vh = self.max_y - self.min_y + 2 * pad
        body = []
        for layer in LAYERS:
            if layer in self.layers:
                body.append(f'<g id="{layer}">')
                body.extend(self.layers[layer])
                body.append("</g>")
        inner = "\n".join(body)
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{self.fmt(vx)} {self.fmt(vy)} {self.fmt(vw)} {self.fmt(vh)}">\n'
            f"{inner}\n</svg>\n"
        )


def _line_in_box(
    l: Line, min_x: Fraction, max_x: Fraction, min_y: Fraction, max_y: Fraction
) -> Optional[Tuple[Point, Point]]:
    """Clip a line to a bounding box, exactly: the first two distinct points
    where it meets the box's edges, or None."""
    hits = []
    if l.b != 0:
        for x in (min_x, max_x):
            y = -(l.a * x + l.c) / l.b
            if min_y <= y <= max_y:
                hits.append(Point(x, y))
    if l.a != 0:
        for y in (min_y, max_y):
            x = -(l.b * y + l.c) / l.a
            if min_x <= x <= max_x:
                hits.append(Point(x, y))
    ends = list(dict.fromkeys(hits))
    return (ends[0], ends[1]) if len(ends) >= 2 else None


def check_layers(layers: Sequence[str]) -> None:
    """Raise ``ValueError`` unless ``layers`` names at least one layer and
    only names of ``LAYERS``."""
    unknown = [l for l in layers if l not in LAYERS]
    if unknown:
        raise ValueError(f"unknown layers: {', '.join(unknown)}")
    if not layers:
        raise ValueError("no layer selected")


def render_svg(
    scene: Scene,
    cfg: Optional[Configuration],
    layers: Sequence[str] = LAYERS,
    digits: int = 9,
) -> str:
    """Produce an SVG document.  Layers other than "scene" are drawn from
    ``cfg`` and skipped when it has collapsed (P = Q).  A selection that
    leaves nothing to draw raises ``ValueError`` when it is empty or ``cfg``
    is None, and ``Degenerate`` when ``cfg`` has collapsed."""
    check_layers(layers)
    if "scene" not in layers:
        if cfg is None:
            raise ValueError("layers other than 'scene' need a configuration")
        if cfg.collapsed:
            raise Degenerate("configuration", "collapsed (P = Q)")
    canvas = _Canvas(digits)

    span = [float(max(abs(p.x) for p in scene.vertices)), float(max(abs(p.y) for p in scene.vertices))]
    scale = max(span[0], span[1], 1.0)
    dot_r = 0.012 * scale
    width = 0.006 * scale

    if "scene" in layers:
        for p, q in ((scene.a, scene.b), (scene.b, scene.c), (scene.c, scene.a)):
            canvas.segment("scene", p, q, width)
        canvas.circle("scene", scene.gamma.center, scene.gamma.radius2, width)
        for name, p in (("A", scene.a), ("B", scene.b), ("C", scene.c), ("O", scene.o)):
            canvas.dot("scene", p, name, dot_r)
        for name, p in zip(("A1", "A2", "B1", "B2", "C1", "C2"), scene.incidence_points):
            canvas.dot("scene", p, name, dot_r * 0.8)

    if cfg is not None and not cfg.collapsed:
        if "miquel" in layers:
            canvas.dot("miquel", cfg.p, "P", dot_r)
            canvas.dot("miquel", cfg.q, "Q", dot_r)
        if "triangles" in layers:
            for p, q in ((cfg.t_a, cfg.t_b), (cfg.t_b, cfg.t_c), (cfg.t_c, cfg.t_a)):
                canvas.segment("triangles", p, q, width)
            for p, q in ((cfg.a_prime, cfg.b_prime), (cfg.b_prime, cfg.c_prime), (cfg.c_prime, cfg.a_prime)):
                canvas.segment("triangles", p, q, width, dashed=True)
            for name, p in (("T_A", cfg.t_a), ("T_B", cfg.t_b), ("T_C", cfg.t_c),
                            ("A'", cfg.a_prime), ("B'", cfg.b_prime), ("C'", cfg.c_prime)):
                canvas.dot("triangles", p, name, dot_r * 0.8)
        if "brocard-circle" in layers:
            canvas.circle("brocard-circle", cfg.brocard_circle.center, cfg.brocard_circle.radius2, width)
            canvas.segment("brocard-circle", cfg.o, cfg.r, width, dashed=True)
            canvas.dot("brocard-circle", cfg.o, "O", dot_r)
            canvas.dot("brocard-circle", cfg.r, "R", dot_r)
        if "steiner" in layers:
            canvas.dot("steiner", cfg.steiner, "S_t", dot_r)
            canvas.dot("steiner", cfg.tarry, "T_a", dot_r)
            # The drawn extent so far, flipped back to scene coordinates.
            box = [Fraction(v) for v in (canvas.min_x, canvas.max_x, -canvas.max_y, -canvas.min_y)]
            for line in (cfg.simson_steiner, cfg.simson_tarry):
                seg = _line_in_box(line, *box)
                if seg is not None:
                    canvas.segment("steiner", seg[0], seg[1], width * 0.8, dashed=True)

    return canvas.render()
