"""Exact interval geometry: gaps, bridges, thickness, restriction, affine."""

import contextlib
import io
import json
import os
import tempfile
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from thickset import (
    CantorStage,
    ClosedInterval,
    DomainError,
    FunctionSpec,
    RandomThickSpec,
    SearchConfig,
    affine_image,
    all_bridge_reports,
    bridge_at,
    dumps_stage,
    find_3ap,
    intersect,
    loads_stage,
    make_stage,
    middle_alpha,
    middle_alpha_family,
    random_thick_family,
    restrict,
    thickness,
)
from thickset import cli
from thickset.core import (
    _bridge_ends,
    _bridges_json,
    _grid_texts,
    _rational_text,
    rational_str,
    to_rational,
)
from thickset.errors import InsufficientDepthError
from thickset.search import subset_extract, thickness_floor
from conftest import (
    bounded_gaps,
    brute_bridge_ends,
    brute_local_thickness,
    brute_thickness,
    gaps,
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
                                       stage.depth, stage.allow_degenerate)
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
    assert "".join(_bridges_json(stage)) == _bridges_oracle(reports)
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


def _point_interval_stages():
    """Intersections whose common stage holds point intervals: middle
    thirds met by its own copy shifted one interval length (touching ends),
    and the reflected largest-gap frame of the 3-AP search."""
    for depth in range(1, 8):
        k = middle_alpha(F(1, 3), depth)
        yield intersect(k, affine_image(k, 1, F(1, 3 ** depth))).common
    k = affine_image(middle_alpha(F(1, 3), 5), 1, F(-2, 3))
    left = restrict(k, ClosedInterval(F(-2, 3), F(-1, 3)))
    yield intersect(affine_image(left, -1, 0), restrict(k, ClosedInterval(F(0), F(1, 3)))).common


def test_bridge_ends_against_the_brute_scan():
    """The one-pass next-longer-gap stack against an O(n**2) scan, on equal
    gap runs (middle thirds), random-thick stages and stages holding point
    intervals, which the small hypothesis stages reach only shallowly."""
    family = middle_alpha_family(F(1, 3))
    stages = [family.stage(depth) for depth in range(1, 9)]
    stages += [random_thick_family(RandomThickSpec(F(3, 2), 0, seed)).stage(8)
               for seed in range(3)]
    points = list(_point_interval_stages())
    assert all(any(a == b for a, b in zip(*s._grid[1:])) for s in points)
    for stage in stages + points:
        _, lo, hi = stage._grid
        assert _bridge_ends(lo, hi) == brute_bridge_ends(lo, hi)


@settings(max_examples=300, deadline=None)
@given(_stages())
def test_a_point_interval_never_has_both_sides_minimal(stage):
    """At a point interval [x, x] the right side of gap i and the left side
    of gap i + 1 share the endpoint x, but never both reach the minimum: so
    the first strict minimum in gap order is the least by (endpoint, side)."""
    value = brute_thickness(stage)
    ivs = stage.intervals
    for k in range(1, stage.count - 1):
        if ivs[k].lo == ivs[k].hi:
            assert not (brute_local_thickness(stage, k - 1, "right") == value
                        == brute_local_thickness(stage, k, "left"))


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
    make_stage([(0, F(1, 9)), (F(2, 3), 1)], depth=1).check_nested_in(parent)
    with pytest.raises(DomainError):
        make_stage([(F(2, 5), F(3, 5))], depth=1).check_nested_in(parent)


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


def _bridges_oracle(reports) -> str:
    return json.dumps({"reports": [r.to_json() for r in reports]}, indent=2)


def _cli_stdout(argv) -> str:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(argv) == 0, argv
    return out.getvalue()


_taus = st.sampled_from([F(1), F(3, 2), F(2), F(3)])
_ends = st.integers(-5, 5) | st.fractions(-5, 5, max_denominator=12)


@st.composite
def _random_thick(draw):
    tau, depth, seed = draw(_taus), draw(st.integers(0, 6)), draw(st.integers(0, 2 ** 32))
    argv = ["--random-thick", str(tau), "--depth", str(depth), "--seed", str(seed)]
    return random_thick_family(RandomThickSpec(tau, depth, seed)).stage(depth), argv


@st.composite
def _middle_alpha(draw):
    alpha = draw(st.fractions(F(1, 50), F(49, 50), max_denominator=60))
    depth = draw(st.integers(0, 5))
    argv = ["--middle-alpha", str(alpha), "--depth", str(depth)]
    return middle_alpha_family(alpha).stage(depth), argv


@st.composite
def _mixed(draw, points: bool):
    """Negative, integer and fractional endpoints; with ``points``, some
    intervals are single points."""
    ends = sorted(set(draw(st.lists(_ends, min_size=2, max_size=24))))
    assume(len(ends) >= 2)
    pairs, k = [], 0
    while k + 1 < len(ends) or (points and k < len(ends)):
        width = 0 if points and (k + 1 == len(ends) or draw(st.booleans())) else 1
        pairs.append(ClosedInterval(ends[k], ends[k + width]))
        k += width + 1
    return CantorStage(tuple(pairs), draw(st.integers(0, 3)), allow_degenerate=points), None


@st.composite
def _one_interval(draw):
    lo, hi = sorted(draw(st.lists(_ends, min_size=2, max_size=2, unique=True)))
    return make_stage([(lo, hi)], depth=draw(st.integers(0, 3))), None


_WRITER_STAGES = {
    "random-thick": _random_thick(),
    "random-thick-loaded": _random_thick().map(lambda s: (loads_stage(dumps_stage(s[0])), s[1])),
    "middle-alpha": _middle_alpha(),
    "mixed": _mixed(False),
    "point-interval": _mixed(True),
    "one-interval": _one_interval(),
}


@pytest.mark.parametrize("kind", sorted(_WRITER_STAGES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_fixed_writers_match_json_dumps(kind, data):
    """Stage files and the bridges payload, written from fixed templates,
    are json.dumps of the reports' and intervals' own texts byte for byte:
    in memory, through --out and through stdout."""
    stage, construct = data.draw(_WRITER_STAGES[kind])
    reports = all_bridge_reports(stage)
    assert (reports == []) == (stage.count == 1)
    texts = {"depth": stage.depth, "intervals": [iv.to_json() for iv in stage.intervals]}
    for indent in (None, 0, 2, "\t"):
        assert dumps_stage(stage, indent) == json.dumps(texts, indent=indent)
    assert "".join(_bridges_json(stage)) == _bridges_oracle(reports)
    with tempfile.TemporaryDirectory() as d:
        stage_file, out = os.path.join(d, "k.json"), os.path.join(d, "out.json")
        with open(stage_file, "w", encoding="utf-8") as fh:
            fh.write(dumps_stage(stage, indent=2))
        assert _cli_stdout(["bridges", stage_file]) == _bridges_oracle(reports) + "\n"
        assert cli.main(["bridges", stage_file, "--out", out]) == 0
        with open(out, encoding="utf-8") as fh:
            assert fh.read() == _bridges_oracle(reports) + "\n"
        if construct is not None:
            assert _cli_stdout(["construct", *construct]) == json.dumps(texts, indent=2) + "\n"
            assert cli.main(["construct", *construct, "--out", out]) == 0
            with open(out, encoding="utf-8") as fh:
                assert fh.read() == json.dumps(texts, indent=2) + "\n"


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


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.integers(), st.integers(-2 ** 300, 2 ** 300)),
       st.one_of(st.integers(1, 10 ** 6), st.integers(1, 2 ** 300)),
       st.integers(1, 2 ** 64))
def test_rational_text_is_the_fraction_text(n, d, common):
    for num, den in ((n, d), (0, d), (n * common, d * common)):
        assert _rational_text(num, den) == str(F(num, den))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 400),
       st.one_of(st.just(1), st.integers(1, 2 ** 300).map(lambda n: 2 * n + 1)),
       st.lists(st.one_of(st.integers(-2 ** 800, 2 ** 800), st.integers(-10 ** 6, 10 ** 6)),
                max_size=20),
       st.integers(0, 400))
def test_grid_texts_are_the_fraction_texts(k, odd, xs, shift):
    """The kernel's shift-and-odd-gcd reduction against one Fraction per
    endpoint: grids from 2**k * odd down to den == 1, endpoints of either
    sign, zero, and endpoints that share the grid's powers of two."""
    for den in (2 ** k * odd, 1):
        ends = [0, *xs, *(x << shift for x in xs), *(x * odd for x in xs)]
        assert _grid_texts(den, ends) == [rational_str(F(x, den)) for x in ends]


def test_grid_texts_past_the_digit_limit_are_a_domain_error():
    """A numerator or a reduced denominator over 4300 digits is refused as
    ``rational_str`` refuses it, and a whole number still writes."""
    den = 2 ** 20 * 5 ** 7000  # 4,899 digits
    for ends in ([1], [10 ** 4400 * den + 1], [2 ** 20, 0]):
        with pytest.raises(DomainError, match=r"^rational too long to write: .*4300 digits"):
            _grid_texts(den, ends)
    assert _grid_texts(den, [0, den, -2 * den]) == ["0", "1", "-2"]


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
    else:
        with pytest.raises(DomainError) as info:
            child.check_nested_in(parent)
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


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    '{"depth": 1, "intervals": ' + "[" * 100000 + "]" * 100000 + "}",
], ids=["bare", "in-intervals"])
def test_deeply_nested_stage_json_is_a_domain_error(text):
    with pytest.raises(DomainError, match="^stage JSON is nested too deeply$"):
        loads_stage(text)


# ---------------------------------------------------------------------------
# Depths and seeds at the library edge: ints only, never a bool or a float
# ---------------------------------------------------------------------------

_UNIT = (ClosedInterval(F(0), F(1)),)
_INT_ENTRIES = {
    "make_stage": ("stage depth", lambda v: make_stage([(0, 1)], depth=v)),
    "CantorStage": ("stage depth", lambda v: CantorStage(_UNIT, depth=v)),
    "CantorStage._from_grid": ("stage depth", lambda v: CantorStage._from_grid((1, [0], [1]), v)),
    "RefinableFamily.stage": ("family depth", lambda v: middle_alpha_family(F(1, 3)).stage(v)),
    "RandomThickSpec.depth": ("depth", lambda v: RandomThickSpec(2, v, 0)),
    "RandomThickSpec.seed": ("seed", lambda v: RandomThickSpec(2, 2, v)),
    "SearchConfig.max_depth": ("max_depth", lambda v: SearchConfig(max_depth=v)),
    "find_3ap.max_depth": ("max_depth",
                           lambda v: find_3ap(middle_alpha_family(F(1, 3)), max_depth=v)),
}


@pytest.mark.parametrize("value", [True, False, 0.0, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("entry", list(_INT_ENTRIES))
def test_bool_and_float_depths_and_seeds_are_refused(entry, value):
    name, call = _INT_ENTRIES[entry]
    with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
        call(value)


_POINT = ClosedInterval(F(0), F(0))
_DEPTH_ENTRIES = {  # name in the message, least accepted value, call
    "StageFamily.stages.first": ("first", 0, lambda v: middle_alpha_family(F(1, 3)).stages(v, 2)),
    "StageFamily.stages.last": ("last", None, lambda v: middle_alpha_family(F(1, 3)).stages(0, v)),
    "StageFamily.interval_chain": (
        "max_depth", 0, lambda v: middle_alpha_family(F(1, 3)).interval_chain(_POINT, v)),
    "thickness_floor": ("max_depth", 1, lambda v: thickness_floor(middle_alpha_family(F(1, 3)), v)),
    "subset_extract.max_scan_depth": (
        "max_scan_depth", 1,
        lambda v: subset_extract(middle_alpha_family(F(1, 3)), F(1, 10), max_scan_depth=v)),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry, (_, least, _) in _DEPTH_ENTRIES.items()
    for value in (True, False, 2.0, 2.5) + (() if least is None else (least - 1,))
])
def test_depth_arguments_are_refused_unless_ints_at_their_least(entry, value):
    name, least, call = _DEPTH_ENTRIES[entry]
    if type(value) is not int:
        match = f"^{name} must be an integer, got {value!r}$"
    else:
        match = f"^{name} must be {f'at least {least}' if least else 'nonnegative'}$"
    with pytest.raises(DomainError, match=match):
        call(value)


def test_depth_arguments_at_their_least_are_accepted():
    fam = middle_alpha_family(F(1, 3))
    assert fam.stages(3, 1) == [] and fam.stages(0, -1) == []
    assert len(fam.stages(0, 0)) == 1
    assert fam.interval_chain(_POINT, 0) == [_UNIT[0]]
    assert thickness_floor(fam, 1) == 1
    # Depth 1 has one gap, so a scan there finds no shorter one.
    with pytest.raises(InsufficientDepthError, match="up to depth 1 "):
        subset_extract(fam, F(1, 10), max_scan_depth=1)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.fractions(min_value=-8, max_value=8, max_denominator=64),
                min_size=2, max_size=10, unique=True),
       st.one_of(st.integers(-2, 60), st.booleans(),
                 st.floats(allow_nan=False, allow_infinity=False)))
def test_every_stage_the_constructors_accept_round_trips(points, depth):
    ends = sorted(points)
    pairs = list(zip(ends[::2], ends[1::2]))
    base = make_stage(pairs)
    builds = (lambda: make_stage(pairs, depth=depth),
              lambda: CantorStage(base.intervals, depth=depth),
              lambda: CantorStage._from_grid(base._grid, depth))
    for build in builds:
        try:
            stage = build()
        except DomainError:
            continue
        assert loads_stage(dumps_stage(stage)) == stage


# ---------------------------------------------------------------------------
# the int-string digit limit at the text edge
# ---------------------------------------------------------------------------

_HUGE_EXPONENTS = ["1e1000000000", "1e4301", "-1E-4301", " 2e+1_000_000 ", "1e" + "9" * 5000]


@pytest.mark.parametrize("text", _HUGE_EXPONENTS)
def test_a_huge_decimal_exponent_is_refused_before_it_is_computed(text):
    """Fraction would compute 10**exponent first: 1e4000000 takes seconds."""
    refusals = (
        lambda: to_rational(text),
        lambda: loads_stage(json.dumps({"depth": 1, "intervals": [["0", text]]})),
        lambda: FunctionSpec.parse(f"1,{text}"),
        lambda: cli._fraction(text),
    )
    for refuse in refusals:
        start = time.perf_counter()
        with pytest.raises(DomainError, match="^decimal exponent out of range: its magnitude "
                                              "may be at most 4300$"):
            refuse()
        assert time.perf_counter() - start < 1


@pytest.mark.parametrize("text", ["1e3", "+1/2", " 3/4 ", "1e4300", "-2.5E-4300", "1_0e0_1"])
def test_rational_text_keeps_the_fraction_grammar_and_value(text):
    assert to_rational(text) == F(text)
    assert cli._fraction(text) == F(text)
    assert FunctionSpec.parse(text).coefficients == (F(text),)
    stage = loads_stage(json.dumps({"depth": 0, "intervals": [["-1", text]]}))
    assert stage.max == F(text)


def test_a_rational_too_long_to_write_is_a_domain_error():
    """Every rational becomes text through these two functions."""
    huge = F(1, 10 ** 4400)
    with pytest.raises(DomainError, match=r"^rational too long to write: .*4300 digits"):
        rational_str(huge)
    with pytest.raises(DomainError, match=r"^rational too long to write: .*4300 digits"):
        _rational_text(3, 10 ** 4400)
    with pytest.raises(DomainError, match=r"^rational too long to write: "):
        dumps_stage(make_stage([(0, huge)]))
    assert rational_str(F(-1, 2)) == "-1/2" and _rational_text(4, 8) == "1/2"


@pytest.mark.parametrize("text", [
    '{"depth": 1, "intervals": [[0, %s]]}', '{"depth": %s, "intervals": [[0, 1]]}',
], ids=["coordinate", "depth"])
def test_a_json_integer_over_the_digit_limit_is_a_domain_error(text):
    with pytest.raises(DomainError, match=r"^malformed stage JSON: .*4300 digits"):
        loads_stage(text % ("1" + "0" * 5000))
    with pytest.raises(json.JSONDecodeError):  # a decode error keeps its byte offset
        loads_stage(text % "1" + ",")
