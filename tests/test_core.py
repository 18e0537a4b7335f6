"""Exact interval geometry: gaps, bridges, thickness, restriction, affine."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickset import (
    CantorStage,
    ClosedInterval,
    DomainError,
    affine_image,
    all_bridge_reports,
    bounded_gaps,
    bridge_at,
    dumps_stage,
    gaps,
    loads_stage,
    make_stage,
    middle_alpha,
    middle_alpha_family,
    restrict,
    thickness,
)
from conftest import (
    brute_local_thickness,
    brute_thickness,
    nesting_problem,
    random_stage,
    stage_problem,
)


def test_gaps_single_interval():
    stage = make_stage([(0, 1)])
    gs = gaps(stage)
    assert [g.kind for g in gs] == ["left_unbounded", "right_unbounded"]
    assert bounded_gaps(stage) == []


def test_gaps_first_middle_thirds_stage():
    stage = make_stage([(0, F(1, 3)), (F(2, 3), 1)])
    (g,) = bounded_gaps(stage)
    assert (g.lo, g.hi) == (F(1, 3), F(2, 3))
    assert g.length == F(1, 3)


def test_gap_count_matches_interval_count():
    for seed in range(8):
        stage = random_stage(seed, depth=5)
        assert len(bounded_gaps(stage)) == stage.count - 1
        assert len(gaps(stage)) == stage.count + 1


def test_bridge_hand_scan_example():
    # Four intervals; the right bridge of the central gap crosses the small
    # gap (7/9, 8/9) because it is shorter than 1/3, and reaches 1.
    stage = make_stage([(0, F(1, 9)), (F(2, 9), F(1, 3)), (F(2, 3), F(7, 9)), (F(8, 9), 1)])
    report = bridge_at(stage, F(2, 3), "right")
    assert report.bridge == ClosedInterval(F(2, 3), F(1))
    assert report.local_thickness == 1
    assert report.gap.length == F(1, 3)


def test_bridge_two_interval_set():
    stage = make_stage([(0, 1), (2, 3)])
    report = bridge_at(stage, 1, "left")
    assert report.bridge == ClosedInterval(F(0), F(1))
    assert report.local_thickness == 1


def test_bridge_bad_endpoint_rejected():
    stage = make_stage([(0, 1), (2, 3)])
    with pytest.raises(DomainError):
        bridge_at(stage, F(1, 2), "left")
    with pytest.raises(DomainError):
        bridge_at(stage, 1, "right")  # 1 is a left endpoint, not a right one
    with pytest.raises(DomainError):
        bridge_at(stage, 1, "sideways")


def test_bridge_maximality_against_brute_oracle():
    for seed in range(20):
        stage = random_stage(seed, tau=F(1 + seed % 3), depth=4)
        for i in range(stage.count - 1):
            left = bridge_at(stage, stage.intervals[i].hi, "left")
            right = bridge_at(stage, stage.intervals[i + 1].lo, "right")
            assert left.local_thickness == brute_local_thickness(stage, i, "left")
            assert right.local_thickness == brute_local_thickness(stage, i, "right")


def test_bridge_inner_gaps_no_longer_than_reference():
    for seed in range(12):
        stage = random_stage(seed, depth=5)
        for report in all_bridge_reports(stage):
            for g in bounded_gaps(stage):
                if report.bridge.lo < g.lo and g.hi < report.bridge.hi:
                    assert g.length <= report.gap.length


def test_thickness_middle_thirds_is_one():
    for depth in range(1, 7):
        assert thickness(middle_alpha(F(1, 3), depth)).value == 1


def test_thickness_restricted_middle_thirds_drops():
    for depth in (2, 3, 4):
        stage = middle_alpha(F(1, 3), depth)
        clipped = restrict(stage, ClosedInterval(F(2, 9), F(7, 9)))
        assert thickness(clipped).value == F(1, 3)


def test_thickness_middle_fifth():
    stage = middle_alpha(F(1, 5), 3)
    assert thickness(stage).value == 2
    assert brute_thickness(stage) == 2


def test_thickness_matches_brute_oracle_on_random_stages():
    for seed in range(25):
        stage = random_stage(seed, tau=F(1 + (seed % 4), 1 + (seed % 2)), depth=4)
        assert thickness(stage).value == brute_thickness(stage)


def test_thickness_single_interval_undefined():
    with pytest.raises(DomainError, match="single interval"):
        thickness(make_stage([(0, 1)]))


def test_thickness_tie_break_leftmost_left_side():
    stage = make_stage([(0, 1), (2, 3)])
    result = thickness(stage)
    assert result.value == 1
    assert result.argmin.endpoint == 1
    assert result.argmin.side == "left"


@st.composite
def _stages(draw):
    """Small stages over a common denominator with few distinct gap lengths
    (so bridges tie and chain), zero-length intervals, and optionally a
    restriction window or an affine image with either sign of scale, whose
    grid is sometimes rescaled to a non-minimal denominator."""
    den = draw(st.sampled_from([1, 2, 3, 7, 12, 1024]))
    n = draw(st.integers(2, 12))
    widths = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    spaces = draw(st.lists(st.integers(1, 4), min_size=n - 1, max_size=n - 1))
    x, ivs = 0, []
    for k in range(n):
        ivs.append(ClosedInterval(F(x, den), F(x + widths[k], den)))
        x += widths[k] + (spaces[k] if k < n - 1 else 0)
    stage = CantorStage(tuple(ivs), allow_degenerate=True)
    shape = draw(st.sampled_from(["plain", "restrict", "affine"]))
    if shape == "restrict":
        a = draw(st.integers(0, x))
        b = draw(st.integers(a, x))
        window = ClosedInterval(F(a, den), F(b, den))
        assume(any(iv.intersection(window) for iv in stage.intervals))
        stage = restrict(stage, window)
    elif shape == "affine":
        num = draw(st.integers(-5, 5).filter(bool))
        stage = affine_image(stage, F(num, draw(st.integers(1, 5))), F(draw(st.integers(-9, 9)), 7))
    m = draw(st.sampled_from([1, 6, 2 ** 40]))
    if shape != "plain" and m > 1:
        den, lo, hi = stage._grid
        stage = CantorStage._from_grid((den * m, [x * m for x in lo], [x * m for x in hi]),
                                       stage.depth, None, stage.allow_degenerate)
    assume(stage.count >= 2)
    return stage


def _side_key(endpoint, side):
    return (endpoint, 0 if side == "left" else 1)


@settings(max_examples=300, deadline=None)
@given(_stages())
def test_thickness_and_argmin_against_brute_oracle(stage):
    value, argmin = thickness(stage)
    assert value == brute_thickness(stage)
    # The argmin is the minimizer with the smallest (endpoint, left before right).
    ivs = stage.intervals
    minimizers = [
        _side_key(ivs[i].hi if side == "left" else ivs[i + 1].lo, side)
        for i in range(stage.count - 1)
        for side in ("left", "right")
        if brute_local_thickness(stage, i, side) == value
    ]
    assert _side_key(argmin.endpoint, argmin.side) == min(minimizers)
    assert argmin.local_thickness == value


def _bridge_or_text(stage, x, side):
    try:
        return bridge_at(stage, x, side)
    except DomainError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(_stages())
def test_bridge_reports_against_brute_oracle(stage):
    # bridge_at answers first, while a grid-built stage has not built its
    # intervals.  Every gap endpoint is probed on both sides, with the gap
    # midpoints, both hull ends and a point beyond each.
    den, lo, hi = stage._grid
    probes = [F(x, den) for x in hi[:-1] + lo[1:]]
    probes += [F(a + b, 2 * den) for a, b in zip(hi, lo[1:])]
    probes += [F(lo[0], den), F(hi[-1], den), F(lo[0], den) - 1, F(hi[-1], den) + 1]
    answers = {(x, side): _bridge_or_text(stage, x, side)
               for x in probes for side in ("left", "right")}
    assert _bridge_or_text(stage, probes[0], "up") == "side must be 'left' or 'right', got 'up'"
    reports = all_bridge_reports(stage)
    assert len(reports) == 2 * (stage.count - 1)
    ivs = stage.intervals
    ends = {"left": {iv.hi for iv in ivs[:-1]}, "right": {iv.lo for iv in ivs[1:]}}
    for (x, side), answer in answers.items():
        if x not in ends[side]:
            assert answer == f"{x} is not the {side} endpoint of any bounded gap of the stage"
    for k, report in enumerate(reports):
        i, side = divmod(k, 2)
        side = ("left", "right")[side]
        assert report.side == side
        assert (report.gap.lo, report.gap.hi) == (ivs[i].hi, ivs[i + 1].lo)
        assert report.local_thickness == brute_local_thickness(stage, i, side)
        assert report.bridge.length == report.local_thickness * report.gap.length
        if side == "left":
            assert report.bridge.hi == report.endpoint == ivs[i].hi
        else:
            assert report.bridge.lo == report.endpoint == ivs[i + 1].lo
        assert answers[report.endpoint, side] == report


def test_restrict_examples():
    stage2 = middle_alpha(F(1, 3), 2)
    left = restrict(stage2, ClosedInterval(F(0), F(1, 3)))
    assert [(iv.lo, iv.hi) for iv in left.intervals] == [
        (F(0), F(1, 9)),
        (F(2, 9), F(1, 3)),
    ]
    middle = restrict(stage2, ClosedInterval(F(2, 9), F(7, 9)))
    assert [(iv.lo, iv.hi) for iv in middle.intervals] == [
        (F(2, 9), F(1, 3)),
        (F(2, 3), F(7, 9)),
    ]
    whole = restrict(stage2, ClosedInterval(F(-1), F(2)))
    assert whole.intervals == stage2.intervals


def test_restrict_empty_window_rejected():
    stage = make_stage([(0, 1), (2, 3)])
    with pytest.raises(DomainError):
        restrict(stage, ClosedInterval(F(5, 4), F(7, 4)))


def test_affine_reflection_and_translation():
    stage = make_stage([(0, F(1, 3)), (F(2, 3), 1)])
    reflected = affine_image(stage, -1, 0)
    assert [(iv.lo, iv.hi) for iv in reflected.intervals] == [
        (F(-1), F(-2, 3)),
        (F(-1, 3), F(0)),
    ]
    shifted = affine_image(stage, 1, F(-2, 3))
    (g,) = bounded_gaps(shifted)
    assert (g.lo, g.hi) == (F(-1, 3), F(0))


def test_affine_zero_scale_rejected():
    with pytest.raises(DomainError):
        affine_image(make_stage([(0, 1), (2, 3)]), 0, 1)


def test_affine_preserves_thickness_exactly():
    transforms = [(F(2), F(5)), (F(-1), F(0)), (F(-3, 7), F(1, 11)), (F(1, 9), F(-4))]
    for seed in range(100):
        stage = random_stage(seed, tau=F(1 + seed % 3), depth=4)
        scale, shift = transforms[seed % len(transforms)]
        image = affine_image(stage, scale, shift)
        assert thickness(image).value == thickness(stage).value
        if seed % 4 == 0:  # exhaustive endpoint-scan oracle spot checks
            assert thickness(image).value == brute_thickness(image)


def test_bridge_restriction_never_loses_thickness():
    # Restricting to any bridge keeps thickness (smaller count here; the
    # acceptance suite runs the full 300-stage version).
    for seed in range(10):
        stage = random_stage(seed, tau=F(2), depth=4)
        base = thickness(stage).value
        for report in all_bridge_reports(stage):
            piece = restrict(stage, report.bridge)
            if piece.count >= 2:
                assert thickness(piece).value >= base


def test_refinement_gaps_are_superset_of_parent_gaps():
    fam = middle_alpha_family(F(2, 7))
    for depth in range(1, 5):
        parent_gaps = {(g.lo, g.hi) for g in bounded_gaps(fam.stage(depth))}
        child_gaps = {(g.lo, g.hi) for g in bounded_gaps(fam.stage(depth + 1))}
        assert parent_gaps <= child_gaps


def test_gap_validation():
    from thickset import Gap

    with pytest.raises(DomainError):
        Gap(F(1), F(1))  # empty open interval
    with pytest.raises(DomainError):
        Gap(F(1), None, "left_unbounded")
    with pytest.raises(DomainError):
        Gap(F(1), F(2), "diagonal")
    g = Gap(None, F(0), "left_unbounded")
    assert g.contains_point(F(-100)) and not g.contains_point(F(0))
    with pytest.raises(DomainError):
        g.length


def test_closed_interval_validation():
    with pytest.raises(DomainError):
        ClosedInterval(F(1), F(0))
    assert ClosedInterval(F(1, 2), F(1, 2)).length == 0


def test_stage_validation():
    with pytest.raises(DomainError):
        make_stage([])
    with pytest.raises(DomainError):
        make_stage([(0, 1), (1, 2)])  # touching intervals are not disjoint
    with pytest.raises(DomainError):
        make_stage([(0, 1), (F(1, 2), 2)])
    with pytest.raises(DomainError):
        CantorStage((ClosedInterval(F(0), F(0)),))  # degenerate without opt-in
    CantorStage((ClosedInterval(F(0), F(0)),), allow_degenerate=True)


def test_parent_nesting_validated():
    parent = make_stage([(0, F(1, 3)), (F(2, 3), 1)])
    CantorStage(
        (ClosedInterval(F(0), F(1, 9)), ClosedInterval(F(2, 3), F(1))),
        depth=1,
        parent=parent,
    )
    with pytest.raises(DomainError):
        CantorStage((ClosedInterval(F(2, 5), F(3, 5)),), depth=1, parent=parent)


def test_json_round_trip_bit_exact():
    for seed in range(10):
        stage = random_stage(seed, depth=5)
        again = loads_stage(dumps_stage(stage))
        assert again.intervals == stage.intervals
        assert again.depth == stage.depth


def test_json_format_shape():
    stage = make_stage([(0, F(1, 3)), (F(2, 3), 1)], depth=1)
    data = json.loads(dumps_stage(stage))
    assert data == {"depth": 1, "intervals": [["0", "1/3"], ["2/3", "1"]]}
    parsed = loads_stage('{"depth": 1, "intervals": [["0", "1/3"], ["2/3", "1"]]}')
    assert parsed.intervals == stage.intervals


def test_json_malformed_rejected():
    with pytest.raises(DomainError):
        loads_stage('{"depth": 1}')
    with pytest.raises(DomainError):
        loads_stage('{"depth": "x", "intervals": []}')


@pytest.mark.parametrize("text", [
    '{"depth": true, "intervals": [[0.1, "1/3"], ["2/3", 1]]}',
    '{"depth": true, "intervals": [["0", "1/3"], ["2/3", "1"]]}',
    '{"depth": 2.9, "intervals": [["0", "1/3"], ["2/3", "1"]]}',
    '{"depth": "3", "intervals": [["0", "1/3"], ["2/3", "1"]]}',
    '{"depth": 1, "intervals": [[0.1, "1/3"], ["2/3", "1"]]}',
    '{"depth": 1, "intervals": [[false, true]]}',
    '{"depth": 1, "intervals": [["0", "1/0"]]}',
])
def test_json_input_is_never_coerced(text):
    with pytest.raises(DomainError):
        loads_stage(text)


def test_json_integer_coordinates_accepted():
    stage = loads_stage('{"depth": 1, "intervals": [[0, "1/3"], ["2/3", 1]]}')
    assert stage.intervals == make_stage([(0, F(1, 3)), (F(2, 3), 1)]).intervals


def test_reports_recompute_bit_for_bit():
    stage = random_stage(3, depth=5)
    first = thickness(stage)
    second = thickness(stage)
    assert first.value == second.value
    assert first.argmin == second.argmin
    assert all_bridge_reports(stage) == all_bridge_reports(stage)


_coords = st.builds(F, st.integers(-30, 30), st.sampled_from([1, 2, 3, 4, 6, 1024]))


@st.composite
def _interval_lists(draw):
    """Intervals with small mixed denominators, so neighbours often touch,
    overlap, repeat or have zero length."""
    pairs = draw(st.lists(st.tuples(_coords, _coords), min_size=1, max_size=8))
    ivs = [ClosedInterval(min(a, b), max(a, b)) for a, b in pairs]
    if draw(st.booleans()):
        ivs.sort(key=lambda iv: (iv.lo, iv.hi))
    return ivs


@settings(max_examples=400, deadline=None)
@given(_interval_lists(), st.booleans())
def test_stage_checks_match_fraction_oracle(ivs, allow_degenerate):
    expected = stage_problem(ivs, allow_degenerate)
    if expected is None:
        stage = CantorStage(tuple(ivs), allow_degenerate=allow_degenerate)
        assert stage.intervals == tuple(ivs)
    else:
        with pytest.raises(DomainError) as info:
            CantorStage(tuple(ivs), allow_degenerate=allow_degenerate)
        assert str(info.value) == expected


@st.composite
def _nested_pairs(draw):
    """A parent stage, and a child whose intervals sit inside the parent's
    over a finer denominator, with one child endpoint possibly pushed one
    grid unit (1/den of the child) past its parent interval."""
    den = draw(st.sampled_from([1, 2, 3, 5, 16]))
    n = draw(st.integers(1, 6))
    widths = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    spaces = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    x, ivs = draw(st.integers(-5, 5)), []
    for w, gap in zip(widths, spaces):
        ivs.append(ClosedInterval(F(x, den), F(x + w, den)))
        x += w + gap
    parent = CantorStage(tuple(ivs))
    fine = den * draw(st.sampled_from([1, 2, 3, 7]))
    child = []
    for iv in ivs:
        lo, hi = int(iv.lo * fine), int(iv.hi * fine)
        a = draw(st.integers(lo, hi - 1))
        b = draw(st.integers(a + 1, hi))
        child.append([a, b])
    k = draw(st.integers(0, len(child) - 1))
    push = draw(st.sampled_from(["none", "left", "right"]))
    out_lo, out_hi = int(ivs[k].lo * fine) - 1, int(ivs[k].hi * fine) + 1
    if push == "left" and (k == 0 or child[k - 1][1] < out_lo):
        child[k][0] = out_lo
    elif push == "right" and (k == len(child) - 1 or out_hi < child[k + 1][0]):
        child[k][1] = out_hi
    return parent, [ClosedInterval(F(a, fine), F(b, fine)) for a, b in child]


@settings(max_examples=300, deadline=None)
@given(_nested_pairs())
def test_nesting_check_matches_fraction_oracle(pair):
    parent, ivs = pair
    child = CantorStage(tuple(ivs), depth=1)
    expected = nesting_problem(child, parent)
    if expected is None:
        child.check_nested_in(parent)
        CantorStage(tuple(ivs), depth=1, parent=parent)
    else:
        with pytest.raises(DomainError) as info:
            child.check_nested_in(parent)
        assert str(info.value) == expected
        with pytest.raises(DomainError) as info:
            CantorStage(tuple(ivs), depth=1, parent=parent)
        assert str(info.value) == expected


_scales = st.builds(F, st.integers(-9, 9).filter(bool), st.integers(1, 9))
_shifts = st.builds(F, st.integers(-20, 20), st.integers(1, 12))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 200), st.sampled_from([F(1), F(3, 2), F(2)]), st.booleans(),
       _scales, _shifts)
def test_affine_image_matches_naive_arithmetic(seed, tau, degenerate, scale, shift):
    stage = random_stage(seed, tau=tau, depth=3)
    if degenerate:
        iv = stage.intervals[1]
        stage = restrict(stage, ClosedInterval(stage.min, iv.lo))
    image = affine_image(stage, scale, shift)
    pairs = [(iv.lo * scale + shift, iv.hi * scale + shift) for iv in stage.intervals]
    if scale < 0:
        pairs = [(b, a) for a, b in reversed(pairs)]
    assert [(iv.lo, iv.hi) for iv in image.intervals] == pairs
    assert image.allow_degenerate == any(a == b for a, b in pairs)
    assert image.depth == stage.depth
