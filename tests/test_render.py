"""The SVG renderer: brace stacking, refereed by the greedy scan in
conftest, and the rendered bytes, pinned."""

import hashlib
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thickset import (
    RandomThickSpec,
    all_bridge_reports,
    counterexample_calibrate,
    counterexample_set,
    intersect,
    make_stage,
    middle_alpha_family,
    random_thick,
)
from thickset.render import _assign_levels, _transform, render_stage_svg
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


def _pinned_stage(name):
    if name == "random-thick":
        return random_thick(RandomThickSpec(F(3, 2), 9, 1))
    if name == "middle-alpha":
        return middle_alpha_family(F(1, 3)).stage(6)
    if name == "counterexample":
        return counterexample_set(counterexample_calibrate(F(101, 100), F(1, 1000), F(1, 10 ** 6)))
    if name == "one-interval":
        return make_stage([("0", "1")])
    # [1/2, 1], [2, 2], [3, 3], [4, 4]: three of them points.
    return intersect(make_stage([(0, 1), (2, 3), (4, 5)]), make_stage([("1/2", 2), (3, 4)])).common


# sha256 of render_stage_svg's output, taken from the ElementTree renderer
# the direct SVG writer replaced.
_SVG_DIGESTS = {
    ("random-thick", False): "c9db4b799c3e714b9bc6a3ea2fe20a01ea19e060f336214112f4980e0a30e58d",
    ("random-thick", True): "a3c0bc32aa48e6d59691cf8066340832d83aeb7dd7ccd6a5b9d5deed2a81288d",
    ("middle-alpha", False): "69433b660b0c92f5b19a2da2daf55bf227fa49cc5999b13d3b1ea49b3ef08673",
    ("middle-alpha", True): "70ff37ad5cb68f583d8c2bf673a7ae6b6e5c4417339db5403c54e773bd665998",
    ("counterexample", False): "5903b63ca97982d1af95771eda6a1c40c3b3e3b57ce453d7995f22e1d0f2d083",
    ("counterexample", True): "9c98e331b97804c9cffd92b685007ae055a591b9b214e66fe8f533a0b253451b",
    ("one-interval", False): "5712ad48d5cd92dad201b57713d530728e472e502b67ae61c450227cacb802a8",
    ("one-interval", True): "5712ad48d5cd92dad201b57713d530728e472e502b67ae61c450227cacb802a8",
    ("degenerate", False): "e707879f2c016e62b9314b0ee18cc209c9219bdd27f1f5a641a5254f8a38c6ad",
    ("degenerate", True): "280efe4c960715254d56a521058e775aed4fb313b7edd0f1493d9bdb573211dd",
}


@pytest.mark.parametrize("name, log_scale", sorted(_SVG_DIGESTS))
def test_rendered_svg_bytes_are_pinned(name, log_scale):
    svg = render_stage_svg(_pinned_stage(name), log_scale=log_scale)
    assert hashlib.sha256(svg.encode()).hexdigest() == _SVG_DIGESTS[name, log_scale]
