"""Brace stacking in the SVG renderer, refereed by the greedy scan in
conftest."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from thickset import RandomThickSpec, all_bridge_reports, random_thick
from thickset.render import _assign_levels, _transform
from conftest import scan_levels

# Few distinct coordinates, so spans often tie, touch, nest or have zero width.
_spans = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 6)).map(
        lambda p: (p[0] / 4, (p[0] + p[1]) / 4)
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(_spans)
def test_brace_levels_match_the_greedy_scan(spans):
    assert _assign_levels(spans) == scan_levels(spans)


def test_brace_levels_of_a_deep_stage_match_the_greedy_scan():
    stage = random_thick(RandomThickSpec(F(3, 2), 9, 1))
    for log_scale in (False, True):
        to_px = _transform(stage, log_scale)
        spans = [(to_px(r.bridge.lo), to_px(r.bridge.hi)) for r in all_bridge_reports(stage)]
        assert len(spans) == 1022
        assert _assign_levels(spans) == scan_levels(spans)
