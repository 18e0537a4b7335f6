"""SVG rendering of stages: one segment per interval, one brace per bridge.

Rendering is presentational, so floats are fine here; exactness matters only
in reports.  Positions come straight from the stage's integer grid (x / den,
a correctly rounded int division) and the braces from the bridge rows, so a
render builds no interval; the SVG text is written directly.  The log option
applies a signed log transform, needed when a stage mixes scales (the
counterexample set spans eps versus eps**2).
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .core import CantorStage, _bridge_rows

_WIDTH = 960.0
_PAD = 40.0
_AXIS_Y = 60.0
_LEVEL_STEP = 34.0


def _transform(stage: CantorStage, log_scale: bool):
    """The map from a coordinate (a float, or a rational read as one) to
    its pixel column."""
    den, lo, hi = stage._grid
    first, last = lo[0] / den, hi[-1] / den
    if log_scale:
        linthresh = min(((y - x) / den for x, y in zip(lo, hi) if y > x), default=1.0)

        def warp(x: float) -> float:
            return math.copysign(math.log10(1.0 + abs(x) / linthresh), x)

        first, last = warp(first), warp(last)
    else:
        def warp(x: float) -> float:
            return x

    span = (last - first) or 1.0

    def to_px(x) -> float:
        return _PAD + (warp(float(x)) - first) / span * (_WIDTH - 2 * _PAD)

    return to_px


def _assign_levels(spans: list[tuple[float, float]]) -> list[int]:
    """Greedy stacking so overlapping braces land on different rows,
    narrowest braces nearest the axis.

    The braces on a row are disjoint, so each row keeps their starts and
    ends as two sorted lists: [a, b] fits a row unless the first start at or
    after a is at most b, or the end just before it reaches a.  One bisection
    per row tried.
    """
    rows: list[tuple[list[float], list[float]]] = []
    out = [0] * len(spans)
    order = sorted(range(len(spans)), key=lambda i: spans[i][1] - spans[i][0])
    for i in order:
        a, b = spans[i]
        for level, (starts, ends) in enumerate(rows):
            k = bisect_left(starts, a)
            if not ((k < len(starts) and starts[k] <= b) or (k and ends[k - 1] >= a)):
                break
        else:
            level, starts, ends, k = len(rows), [], [], 0
            rows.append((starts, ends))
        starts.insert(k, a)
        ends.insert(k, b)
        out[i] = level
    return out


def render_stage_svg(stage: CantorStage, log_scale: bool = False) -> str:
    """Valid SVG with class='interval' segments and class='bridge' braces."""
    to_px = _transform(stage, log_scale)
    den, lo, hi = stage._grid
    xlo = [to_px(x / den) for x in lo]
    xhi = [to_px(x / den) for x in hi]
    rows = _bridge_rows(stage)

    spans = [(xlo[first], xhi[last]) for _, _, first, last, _ in rows]
    levels = _assign_levels(spans) if spans else []
    height = _AXIS_Y + 30.0 + ((max(levels) + 1) if levels else 0) * _LEVEL_STEP
    axis_y = height - _AXIS_Y
    y_axis = f"{axis_y:.2f}"

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(height)}" viewBox="0 0 {int(_WIDTH)} {int(height)}">'
        f'<line class="axis" x1="{_PAD / 2}" y1="{y_axis}" x2="{_WIDTH - _PAD / 2}" '
        f'y2="{y_axis}" stroke="#bbbbbb" stroke-width="1" />'
    ]
    for x1, x2 in zip(xlo, xhi):
        out.append(
            f'<line class="interval" x1="{x1:.2f}" y1="{y_axis}" x2="{max(x2, x1 + 1.5):.2f}" '
            f'y2="{y_axis}" stroke="#202020" stroke-width="6" stroke-linecap="butt" />'
        )
    for row, (a, b), level in zip(rows, spans, levels):
        y = axis_y - 18.0 - level * _LEVEL_STEP
        mid = (a + b) / 2
        out.append(
            f'<path class="bridge" d="M {a:.2f} {y + 8:.2f} '
            f'C {a:.2f} {y:.2f} {mid:.2f} {y + 6:.2f} {mid:.2f} {y:.2f} '
            f'C {mid:.2f} {y + 6:.2f} {b:.2f} {y:.2f} {b:.2f} {y + 8:.2f}" '
            f'fill="none" stroke="#3465a4" stroke-width="1.2" />'
            f'<text class="bridge-label" x="{mid:.2f}" y="{y - 3:.2f}" font-size="9" '
            f'text-anchor="middle" fill="#3465a4">{row[-1]}</text>'
        )
    out.append("</svg>")
    return "".join(out)
