"""SVG rendering of stages: one segment per interval, one brace per bridge.

Rendering is presentational, so floats are fine here; exactness matters only
in reports.  Positions come straight from the stage's integer grid (x / den,
a correctly rounded int division), each column formatted once, and the
braces from the bridge rows, each label one text of two grid ints: a render
builds no interval and no Fraction.  The log option applies a signed log
transform, needed when a stage mixes scales (the counterexample set spans
eps versus eps**2).
"""

from __future__ import annotations

import math
from bisect import bisect_left

from .core import CantorStage, _bridge_rows, _rational_text
from .errors import DomainError

_WIDTH = 960.0
_PAD = 40.0
_AXIS_Y = 60.0
_LEVEL_STEP = 34.0


def _transform(stage: CantorStage, log_scale: bool):
    """The map from a coordinate (a float, or a rational read as one) to its pixel column."""
    den, lo, hi = stage._grid
    try:
        first, last = lo[0] / den, hi[-1] / den
        if log_scale:
            linthresh = min(((y - x) / den for x, y in zip(lo, hi) if y > x), default=1.0)

            def warp(x: float) -> float:
                return math.copysign(math.log10(1.0 + abs(x) / linthresh), x)

            first, last = warp(first), warp(last)
        else:
            def warp(x: float) -> float:
                return x
    except OverflowError as exc:
        raise DomainError(f"coordinates too large to render: {exc}") from exc

    span = (last - first) or 1.0
    if math.isinf(span):
        raise DomainError("coordinates too large to render: the hull is wider than a float holds")

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
    tlo, thi = ([f"{x:.2f}" for x in xs] for xs in (xlo, xhi))
    rows = _bridge_rows(stage)

    spans = [(xlo[first], xhi[last]) for _, _, first, last, _, _ in rows]
    levels = _assign_levels(spans)
    nrows = max(levels, default=-1) + 1
    height = _AXIS_Y + 30.0 + nrows * _LEVEL_STEP
    axis_y = height - _AXIS_Y
    y_axis = f"{axis_y:.2f}"
    # Each brace row's heights: y + 8, y, y + 6 and the label's y - 3.
    heights = [[f"{y + dy:.2f}" for dy in (8, 0, 6, -3)]
               for y in (axis_y - 18.0 - level * _LEVEL_STEP for level in range(nrows))]

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_WIDTH)}" '
        f'height="{int(height)}" viewBox="0 0 {int(_WIDTH)} {int(height)}">'
        f'<line class="axis" x1="{_PAD / 2}" y1="{y_axis}" x2="{_WIDTH - _PAD / 2}" '
        f'y2="{y_axis}" stroke="#bbbbbb" stroke-width="1" />'
    ]
    for x1, x2, t1, t2 in zip(xlo, xhi, tlo, thi):
        t2 = t2 if x2 >= x1 + 1.5 else f"{x1 + 1.5:.2f}"
        out.append(
            f'<line class="interval" x1="{t1}" y1="{y_axis}" x2="{t2}" '
            f'y2="{y_axis}" stroke="#202020" stroke-width="6" stroke-linecap="butt" />'
        )
    for (_, _, first, last, bridge_len, gap_len), (a, b), level in zip(rows, spans, levels):
        y8, y, y6, y3 = heights[level]
        ta, tb, mid = tlo[first], thi[last], f"{(a + b) / 2:.2f}"
        out.append(
            f'<path class="bridge" d="M {ta} {y8} C {ta} {y} {mid} {y6} {mid} {y} '
            f'C {mid} {y6} {tb} {y} {tb} {y8}" '
            f'fill="none" stroke="#3465a4" stroke-width="1.2" />'
            f'<text class="bridge-label" x="{mid}" y="{y3}" font-size="9" '
            f'text-anchor="middle" fill="#3465a4">{_rational_text(bridge_len, gap_len)}</text>'
        )
    out.append("</svg>")
    return "".join(out)
