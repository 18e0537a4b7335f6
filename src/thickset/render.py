"""SVG rendering of stages: one segment per interval, one brace per bridge.

Rendering is presentational, so floats are fine here; exactness matters only
in reports.  The log option applies a signed log transform, needed when a
stage mixes scales (the counterexample set spans eps versus eps**2).
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from bisect import bisect_left
from fractions import Fraction

from .core import CantorStage, all_bridge_reports

_WIDTH = 960.0
_PAD = 40.0
_AXIS_Y = 60.0
_LEVEL_STEP = 34.0


def _transform(stage: CantorStage, log_scale: bool):
    lo, hi = float(stage.min), float(stage.max)
    if log_scale:
        linthresh = min(
            (float(iv.length) for iv in stage.intervals if iv.length > 0),
            default=1.0,
        )

        def warp(x: float) -> float:
            return math.copysign(math.log10(1.0 + abs(x) / linthresh), x)

        lo, hi = warp(float(stage.min)), warp(float(stage.max))
    else:
        def warp(x: float) -> float:
            return x

    span = (hi - lo) or 1.0

    def to_px(x: Fraction) -> float:
        return _PAD + (warp(float(x)) - lo) / span * (_WIDTH - 2 * _PAD)

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
    reports = all_bridge_reports(stage) if stage.count >= 2 else []

    spans = [(to_px(r.bridge.lo), to_px(r.bridge.hi)) for r in reports]
    levels = _assign_levels(spans) if spans else []
    rows = (max(levels) + 1) if levels else 0
    height = _AXIS_Y + 30.0 + rows * _LEVEL_STEP

    svg = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "width": str(int(_WIDTH)),
            "height": str(int(height)),
            "viewBox": f"0 0 {int(_WIDTH)} {int(height)}",
        },
    )
    axis_y = height - _AXIS_Y
    ET.SubElement(
        svg,
        "line",
        {
            "class": "axis",
            "x1": str(_PAD / 2),
            "y1": f"{axis_y:.2f}",
            "x2": str(_WIDTH - _PAD / 2),
            "y2": f"{axis_y:.2f}",
            "stroke": "#bbbbbb",
            "stroke-width": "1",
        },
    )
    for iv in stage.intervals:
        x1, x2 = to_px(iv.lo), to_px(iv.hi)
        ET.SubElement(
            svg,
            "line",
            {
                "class": "interval",
                "x1": f"{x1:.2f}",
                "y1": f"{axis_y:.2f}",
                "x2": f"{max(x2, x1 + 1.5):.2f}",
                "y2": f"{axis_y:.2f}",
                "stroke": "#202020",
                "stroke-width": "6",
                "stroke-linecap": "butt",
            },
        )
    for report, (a, b), level in zip(reports, spans, levels):
        y = axis_y - 18.0 - level * _LEVEL_STEP
        mid = (a + b) / 2
        path = (
            f"M {a:.2f} {y + 8:.2f} "
            f"C {a:.2f} {y:.2f} {mid:.2f} {y + 6:.2f} {mid:.2f} {y:.2f} "
            f"C {mid:.2f} {y + 6:.2f} {b:.2f} {y:.2f} {b:.2f} {y + 8:.2f}"
        )
        ET.SubElement(
            svg,
            "path",
            {
                "class": "bridge",
                "d": path,
                "fill": "none",
                "stroke": "#3465a4",
                "stroke-width": "1.2",
            },
        )
        label = ET.SubElement(
            svg,
            "text",
            {
                "class": "bridge-label",
                "x": f"{mid:.2f}",
                "y": f"{y - 3:.2f}",
                "font-size": "9",
                "text-anchor": "middle",
                "fill": "#3465a4",
            },
        )
        label.text = str(report.local_thickness)
    return ET.tostring(svg, encoding="unicode")
